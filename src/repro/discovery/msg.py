"""The Meaningful Social Graph (MSG) — the discovery layer's output (§3).

    "The result is a social content sub-graph, called Meaningful Social
    Graph (MSG), that is semantically and socially relevant to a given
    user and query."

An MSG is a genuine :class:`~repro.core.graph.SocialContentGraph` — the
querying user, the relevant items (annotated with semantic / social /
combined scores), the endorsing users, and the links among them (the social
provenance §7 builds groups and explanations from) — plus convenience
accessors the presentation layer uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import Id, Link, SocialContentGraph
from repro.discovery.query import Query
from repro.discovery.strategies import SocialScores


@dataclass
class ScoredItem:
    """One result item with its score decomposition."""

    item_id: Id
    semantic: float
    social: float
    combined: float


@dataclass
class MeaningfulSocialGraph:
    """The discovery result: subgraph + scores + provenance, and the
    (frozen) graph it was cut from, which a result page reads."""

    graph: SocialContentGraph
    query: Query
    items: list[ScoredItem] = field(default_factory=list)
    social: SocialScores | None = None
    used_expert_fallback: bool = False
    base: SocialContentGraph = field(kw_only=True, repr=False,
                                     compare=False)

    @property
    def item_ids(self) -> list[Id]:
        """Result item ids, best first."""
        return [s.item_id for s in self.items]

    def __post_init__(self) -> None:
        # read per item by ranking and §7.1 meaningfulness; the first
        # record of an id wins, as a scan of ``items`` would find it
        self._scores: dict[Id, float] = {}
        for scored in self.items:
            self._scores.setdefault(scored.item_id, scored.combined)

    def score_of(self, item_id: Id) -> float:
        """Combined score of one result item (0 when absent)."""
        return self._scores.get(item_id, 0.0)

    def endorsers_of(self, item_id: Id) -> dict[Id, float]:
        """Social provenance: endorsing users and their weights."""
        if self.social is None:
            return {}
        return dict(self.social.endorsers.get(item_id, {}))

    def taggers_of(self, item_id: Id) -> set[Id]:
        """Users with an activity link onto the item *within the MSG*."""
        return {
            l.src
            for l in self.graph.in_links(item_id)
            if l.has_type("act")
        }


def assemble_msg(
    base: SocialContentGraph,
    query: Query,
    scored_items: list[ScoredItem],
    social: SocialScores,
    used_expert_fallback: bool,
) -> MeaningfulSocialGraph:
    """Cut the MSG subgraph out of the base graph.

    Included: the user, every result item (annotated with scores), every
    endorsing user, the user's connect links to endorsers, endorsers'
    activity links onto result items, and items' ``belong`` links (topics,
    cities) so structural grouping has material to work with.  Every link
    is found from the adjacency of a node already in the MSG — the cut
    costs the window's neighbourhood, not the site.  *base* is frozen and
    kept as the MSG's :attr:`~MeaningfulSocialGraph.base`.
    """
    base.freeze()
    msg = SocialContentGraph(catalog=base.catalog)
    if base.has_node(query.user_id):
        msg.add_node(base.node(query.user_id))
    for scored in scored_items:
        node = base.node(scored.item_id).with_attrs(
            semantic_score=round(scored.semantic, 6),
            social_score=round(scored.social, 6),
            score=round(scored.combined, 6),
        )
        msg.add_node(node)
    endorser_set: set[Id] = set()
    for scored in scored_items:
        endorser_set.update(social.endorsers.get(scored.item_id, {}))
    for endorser in endorser_set:
        if base.has_node(endorser) and not msg.has_node(endorser):
            msg.add_node(base.node(endorser))
    # a link that qualifies twice (typed both ``act`` and ``belong``
    # between two result items) consolidates with itself: same record
    for link in base.out_links(query.user_id):
        if link.has_type("connect") and link.tgt in endorser_set:
            msg.add_link(link)
    for scored in scored_items:
        for link in base.in_links(scored.item_id):
            if link.has_type("act") and link.src in endorser_set:
                msg.add_link(link)
        for link in base.out_links(scored.item_id):
            if link.has_type("belong"):
                if not msg.has_node(link.tgt):
                    msg.add_node(base.node(link.tgt))
                msg.add_link(link)
    return MeaningfulSocialGraph(
        graph=msg,
        query=query,
        items=scored_items,
        social=social,
        used_expert_fallback=used_expert_fallback,
        base=base,
    )
