"""Reference §7.2 explanations: the population-walking bodies.

Verbatim the loops ``repro.presentation.explanations`` ran before it was
inverted onto the item's endorsers: the collaborative explanation visits
every member of the population (the user's ``connect`` targets, or every
``user``-typed node on the site) and re-derives ``_items_of`` / ``_rating``
by walking ``out_links`` each time; the content-based one computes
``item_similarity`` once for the supporters and once more for the
percentage; ``explain_group`` re-explains every item.  O(site) per item —
which is why it lives here — and trivially right, which is why
``tests/presentation/test_explanation_parity.py`` holds the engine equal
to it.  The result records (:class:`Explanation`, :class:`GroupExplanation`)
are the engine's own: they are the compared values, not compared code.
"""

from __future__ import annotations

from repro.analysis.similarity import jaccard
from repro.core import Id, SocialContentGraph
from repro.presentation.explanations import (
    COLLABORATIVE,
    CONTENT_BASED,
    Explanation,
    GroupExplanation,
)


def _items_of(graph: SocialContentGraph, user: Id) -> set[Id]:
    return {l.tgt for l in graph.out_links(user) if l.has_type("act")}


def _rating(graph: SocialContentGraph, user: Id, item: Id) -> float:
    """rating(u, i): stored rating if present, 1.0 if acted, else 0."""
    best = 0.0
    for link in graph.out_links(user):
        if link.tgt != item or not link.has_type("act"):
            continue
        value = link.value("rating")
        if value is not None:
            best = max(best, float(value))
        else:
            best = max(best, 1.0)
    return best


def item_similarity(graph: SocialContentGraph, a: Id, b: Id) -> float:
    """ItemSim(i, i′): derived ``sim_item`` link weight when present,
    tagger-set Jaccard otherwise."""
    for link in graph.out_links(a):
        if link.tgt == b and link.has_type("sim_item"):
            return float(link.value("sim", 0.0))
    taggers_a = {l.src for l in graph.in_links(a) if l.has_type("act")}
    taggers_b = {l.src for l in graph.in_links(b) if l.has_type("act")}
    return jaccard(taggers_a, taggers_b)


def user_similarity(graph: SocialContentGraph, a: Id, b: Id) -> float:
    """UserSim(u, u′): derived ``sim_user`` link weight when present,
    item-set Jaccard otherwise (0 when unrelated, as §7.2 requires)."""
    for link in graph.out_links(a):
        if link.tgt == b and link.has_type("sim_user"):
            return float(link.value("sim", 0.0))
    return jaccard(_items_of(graph, a), _items_of(graph, b))


def explain_content_based(
    graph: SocialContentGraph, user: Id, item: Id
) -> Explanation:
    """§7.2 content-based explanation with ItemSim × rating weights."""
    explanation = Explanation(item_id=item, kind=CONTENT_BASED)
    past = _items_of(graph, user)
    for past_item in sorted(past, key=repr):
        if past_item == item:
            continue
        sim = item_similarity(graph, item, past_item)
        if sim <= 0:
            continue
        weight = sim * _rating(graph, user, past_item)
        if weight > 0:
            explanation.supporters[past_item] = round(weight, 6)
    if past:
        similar = sum(
            1 for p in past if p != item and item_similarity(graph, item, p) > 0
        )
        pct = round(100 * similar / len(past))
        explanation.aggregate_text = (
            f"This item is similar to {pct}% of items you visited before"
        )
    return explanation


def explain_collaborative(
    graph: SocialContentGraph,
    user: Id,
    item: Id,
    friends_only: bool = False,
) -> Explanation:
    """§7.2 CF explanation with UserSim × rating weights.

    ``friends_only`` restricts U to the user's direct connections, which
    also powers the "% of your friends endorsed this item" aggregate.
    """
    explanation = Explanation(item_id=item, kind=COLLABORATIVE)
    if friends_only:
        population = {
            l.tgt for l in graph.out_links(user) if l.has_type("connect")
        }
    else:
        population = {
            n.id for n in graph.nodes_of_type("user") if n.id != user
        }
    endorsing = set()
    for other in sorted(population, key=repr):
        if item not in _items_of(graph, other):
            continue
        endorsing.add(other)
        sim = user_similarity(graph, user, other)
        if sim <= 0:
            continue
        weight = sim * _rating(graph, other, item)
        if weight > 0:
            explanation.supporters[other] = round(weight, 6)
    if friends_only and population:
        pct = round(100 * len(endorsing) / len(population))
        explanation.aggregate_text = (
            f"{pct}% of your friends endorsed this item"
        )
    elif endorsing:
        explanation.aggregate_text = (
            f"{len(endorsing)} travelers like you endorsed this item"
        )
    return explanation


def explain_group(
    graph: SocialContentGraph,
    user: Id,
    label: str,
    items: list[Id],
    kind: str = COLLABORATIVE,
) -> GroupExplanation:
    """Aggregate item explanations into one concise group explanation.

    Supporters' weights sum across the group's items; the text reports the
    dominant supporter and explanation coverage — "converting individual
    explanations ... into a concise explanation at a group level".
    """
    totals: dict[Id, float] = {}
    covered = 0
    for item in items:
        if kind == COLLABORATIVE:
            explanation = explain_collaborative(graph, user, item)
        else:
            explanation = explain_content_based(graph, user, item)
        if not explanation.is_empty:
            covered += 1
        for supporter, weight in explanation.supporters.items():
            totals[supporter] = totals.get(supporter, 0.0) + weight
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    coverage = covered / len(items) if items else 0.0
    if ranked:
        leader = ranked[0][0]
        name = (
            graph.node(leader).value("name", str(leader))
            if graph.has_node(leader)
            else str(leader)
        )
        text = (
            f"{name} is the strongest endorser behind this group; "
            f"{round(100 * coverage)}% of its items come with endorsements"
        )
    else:
        text = "no endorsement data for this group"
    return GroupExplanation(
        label=label,
        top_supporters=ranked[:5],
        coverage=coverage,
        text=text,
    )
