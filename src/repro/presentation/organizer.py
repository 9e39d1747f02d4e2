"""The Information Organizer: MSG → result page (paper §3, §7).

    "It admits as input the MSG from the Information Discovery layer and
    dynamically organizes the results for effective exploration by the
    user.  There are two key primitives: grouping and ranking, managed by
    Information Organizer and Result Selector, respectively."

:class:`InformationOrganizer` builds the candidate groupings (social,
topical, structural facets, endorser-group), picks the most meaningful one
(§7.1), ranks groups and members (Result Selector), and attaches §7.2
explanations — yielding a :class:`ResultPage`, the library's end-user-facing
answer object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import Id, SocialContentGraph
from repro.core.activity import ActivityRelation
from repro.discovery.msg import MeaningfulSocialGraph
from repro.errors import PresentationError
from repro.presentation.explanations import (
    COLLABORATIVE,
    Explanation,
    GroupExplanation,
    aggregate_group,
    collaborative_pair,
    content_based,
)
from repro.presentation.grouping import (
    endorser_group_grouping,
    social_grouping,
    structural_grouping,
    topical_grouping,
)
from repro.presentation.hierarchy import GroupingFactory, HierarchicalPresenter
from repro.presentation.meaningful import MeaningfulnessWeights, choose_grouping
from repro.presentation.ranking import RankedGroup, ResultSelector


@dataclass
class ResultEntry:
    """One displayed result."""

    item_id: Id
    name: str
    score: float
    explanation: Explanation


@dataclass
class ResultGroup:
    """One displayed group with ranked entries and a group explanation."""

    label: str
    dimension: str
    entries: list[ResultEntry] = field(default_factory=list)
    group_score: float = 0.0
    explanation: GroupExplanation | None = None


@dataclass
class ResultPage:
    """The organized answer to one query."""

    query_text: str
    user_id: Id
    groups: list[ResultGroup] = field(default_factory=list)
    chosen_dimension: str = ""
    dimension_scores: dict[str, float] = field(default_factory=dict)
    flat: list[ResultEntry] = field(default_factory=list)
    used_expert_fallback: bool = False

    @property
    def all_items(self) -> list[Id]:
        """Every displayed item id, across groups."""
        return [e.item_id for g in self.groups for e in g.entries]


@dataclass
class OrganizerConfig:
    """Knobs for page assembly."""

    structural_facets: tuple[str, ...] = ("city", "category")
    social_theta: float = 0.3
    weights: MeaningfulnessWeights = field(default_factory=MeaningfulnessWeights)
    explanation_kind: str = COLLABORATIVE
    flat_k: int = 10


class InformationOrganizer:
    """Builds result pages (and zoomable hierarchies) from MSGs.

    The organizer holds no graph: a page reads the graph its MSG was cut
    from (``msg.base``), and every read of it beyond the MSG goes through
    ``msg.base.activity()``, kept by that frozen graph across requests.
    So one page never mixes two states of the site.  Assign
    :attr:`config` to change the configuration; the grouping dimensions
    are built from it once.
    """

    def __init__(self, config: OrganizerConfig | None = None):
        self.config = config or OrganizerConfig()
        self.selector = ResultSelector()

    @property
    def config(self) -> OrganizerConfig:
        """Knobs for page assembly."""
        return self._config

    @config.setter
    def config(self, config: OrganizerConfig) -> None:
        groupers: dict[str, GroupingFactory] = {
            "social": lambda msg: social_grouping(msg, config.social_theta),
            "topical": topical_grouping,
            "endorser": endorser_group_grouping,
        }
        for facet in config.structural_facets:
            groupers[f"structural:{facet}"] = (
                lambda msg, f=facet: structural_grouping(msg, f)
            )
        self._config = config
        self._groupers = dict(sorted(groupers.items()))

    # ---------------------------------------------------------------- groups
    def grouping_factories(self) -> dict[str, GroupingFactory]:
        """All grouping dimensions available on this site (each reads the
        base graph of the MSG it groups)."""
        return dict(self._groupers)

    # ------------------------------------------------------------------ page
    def organize(
        self,
        msg: MeaningfulSocialGraph,
        dimension: str | None = None,
        flat_k: int | None = None,
    ) -> ResultPage:
        """Assemble the full result page for an MSG.

        Request-aware entry point: *dimension* forces one grouping
        dimension instead of the §7.1 meaningfulness choice, and *flat_k*
        overrides the configured flat-list length for this page only.
        """
        grouper = None
        if dimension is not None:
            # Validate before the empty-result early return: a typo'd
            # dimension must fail loudly even when no items matched.
            grouper = self._groupers.get(dimension)
            if grouper is None:
                raise PresentationError(
                    f"unknown grouping dimension {dimension!r}; have "
                    f"{list(self._groupers)}"
                )
        page = ResultPage(
            query_text=msg.query.raw_text,
            user_id=msg.query.user_id,
            used_expert_fallback=msg.used_expert_fallback,
        )
        if not msg.items:
            return page
        graph = msg.base
        activity = graph.activity()
        if grouper is not None:
            winner = grouper(msg)
            scores = {dimension: 1.0}
        else:
            candidates = [g(msg) for g in self._groupers.values()]
            winner, scores = choose_grouping(
                candidates, msg, self.config.weights
            )
        page.chosen_dimension = winner.dimension
        page.dimension_scores = scores

        for ranked in self.selector.rank_groups(winner, msg):
            page.groups.append(
                self._render_group(ranked, msg.query.user_id, graph, activity)
            )
        # The flat list is the classic single ranked list (global combined
        # score order); interleaved across-group selection remains available
        # via ResultSelector.interleave for diversity-first surfaces.
        all_entries = [e for g in page.groups for e in g.entries]
        all_entries.sort(key=lambda e: (-e.score, repr(e.item_id)))
        limit = self.config.flat_k if flat_k is None else flat_k
        page.flat = all_entries[:limit]
        return page

    def _render_group(
        self,
        ranked: RankedGroup,
        user: Id,
        graph: SocialContentGraph,
        activity: ActivityRelation,
    ) -> ResultGroup:
        entries, counted = [], []
        for item, score in ranked.items:
            # one explanation per item and use: the entry shows the
            # friends-only one, the group sums the everyone one
            if self.config.explanation_kind == COLLABORATIVE:
                shown, for_group = collaborative_pair(activity, user, item)
            else:
                shown = for_group = content_based(activity, user, item)
            counted.append(for_group)
            name = graph.node(item).value("name", item) \
                if graph.has_node(item) else item
            entries.append(ResultEntry(item_id=item, name=str(name),
                                       score=score, explanation=shown))
        return ResultGroup(
            label=ranked.label,
            dimension=ranked.dimension,
            entries=entries,
            group_score=ranked.group_score,
            explanation=aggregate_group(graph, ranked.label, counted),
        )

    # ------------------------------------------------------------- hierarchy
    def hierarchy(self, msg: MeaningfulSocialGraph) -> HierarchicalPresenter:
        """A zoomable presenter over the MSG (§7.1's hierarchical option)."""
        return HierarchicalPresenter(
            msg, self.grouping_factories(), self.config.weights
        )
