"""Reference page assembly: the organizer's old control flow.

:func:`organize_reference` is ``InformationOrganizer.organize`` as it ran
when every entry was explained by its own call and every group re-explained
its items: the same grouping choice and Result Selector (shared code, not
under test), with the reference groupings over the cut MSG
(``oracle.msg``) and the reference explanations plugged in.  It is what the whole-response parity suite
renders the "old" page with.
"""

from __future__ import annotations

from repro.core import Id, SocialContentGraph
from repro.discovery.msg import MeaningfulSocialGraph
from repro.errors import PresentationError
from repro.presentation.explanations import COLLABORATIVE, Explanation
from repro.presentation.meaningful import choose_grouping
from repro.presentation.organizer import (
    OrganizerConfig,
    ResultEntry,
    ResultGroup,
    ResultPage,
)
from repro.presentation.ranking import RankedGroup, ResultSelector

from oracle.explanations import (
    explain_collaborative,
    explain_content_based,
    explain_group,
)
from oracle.msg import (
    endorser_group_grouping,
    social_grouping,
    structural_grouping,
    topical_grouping,
)


def _factories(base: SocialContentGraph, config: OrganizerConfig) -> dict:
    factories = {
        "social": lambda msg: social_grouping(msg, config.social_theta),
        "topical": topical_grouping,
        "endorser": lambda msg: endorser_group_grouping(msg, base),
    }
    for facet in config.structural_facets:
        factories[f"structural:{facet}"] = (
            lambda msg, f=facet: structural_grouping(msg, f)
        )
    return factories


def organize_reference(
    base: SocialContentGraph,
    msg: MeaningfulSocialGraph,
    config: OrganizerConfig | None = None,
    dimension: str | None = None,
    flat_k: int | None = None,
) -> ResultPage:
    """Assemble the full result page for an MSG, the old way."""
    config = config or OrganizerConfig()
    selector = ResultSelector()
    factories = _factories(base, config)
    factory = None
    if dimension is not None:
        factory = factories.get(dimension)
        if factory is None:
            raise PresentationError(
                f"unknown grouping dimension {dimension!r}; have "
                f"{sorted(factories)}"
            )
    page = ResultPage(
        query_text=msg.query.raw_text,
        user_id=msg.query.user_id,
        used_expert_fallback=msg.used_expert_fallback,
    )
    if not msg.items:
        return page
    if factory is not None:
        winner = factory(msg)
        scores = {dimension: 1.0}
    else:
        candidates = [f(msg) for _, f in sorted(factories.items())]
        winner, scores = choose_grouping(candidates, msg, config.weights)
    page.chosen_dimension = winner.dimension
    page.dimension_scores = scores

    for ranked in selector.rank_groups(winner, msg):
        page.groups.append(_render_group(base, config, ranked, msg))
    all_entries = [e for g in page.groups for e in g.entries]
    all_entries.sort(key=lambda e: (-e.score, repr(e.item_id)))
    limit = config.flat_k if flat_k is None else flat_k
    page.flat = all_entries[:limit]
    return page


def _render_group(
    base: SocialContentGraph,
    config: OrganizerConfig,
    ranked: RankedGroup,
    msg: MeaningfulSocialGraph,
) -> ResultGroup:
    entries = []
    for item, score in ranked.items:
        entries.append(
            ResultEntry(
                item_id=item,
                name=str(base.node(item).value("name", item))
                if base.has_node(item)
                else str(item),
                score=score,
                explanation=_explain(base, config, msg, item),
            )
        )
    group_explanation = explain_group(
        base,
        msg.query.user_id,
        ranked.label,
        [i for i, _ in ranked.items],
        kind=config.explanation_kind,
    )
    return ResultGroup(
        label=ranked.label,
        dimension=ranked.dimension,
        entries=entries,
        group_score=ranked.group_score,
        explanation=group_explanation,
    )


def _explain(
    base: SocialContentGraph,
    config: OrganizerConfig,
    msg: MeaningfulSocialGraph,
    item: Id,
) -> Explanation:
    if config.explanation_kind == COLLABORATIVE:
        return explain_collaborative(
            base, msg.query.user_id, item, friends_only=True
        )
    return explain_content_based(base, msg.query.user_id, item)
