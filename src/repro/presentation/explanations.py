"""Explanations for results and groups (paper §7.2).

Content-based:

    Expl(u, i) = {i′ ∈ I | ItemSim(i, i′) > 0 & i′ ∈ Items(u)}
    weight: ItemSim(i, i′) × rating(u, i′)

Collaborative filtering:

    Expl(u, i) = {u′ ∈ U | UserSim(u, u′) > 0 & i ∈ Items(u′)}
    weight: UserSim(u, u′) × rating(u′, i)

plus the aggregate renderings the paper suggests ("60% of your friends
endorsed this item", "This item is similar to 75% of items you visited
before") and group-level explanations aggregated from item explanations.

§7.2's definition makes every non-endorser contribute 0, so the CF
explanation walks the *item's* endorsers (its ``act`` in-links) and keeps
those in the population — never the population itself.  Every graph read
goes through ``graph.activity()``, read once per call by the functions
taking the base graph; :func:`collaborative_pair`, :func:`content_based`
and :func:`item_sim` take a relation the caller holds.  The
population-walking reference is ``tests/oracle/explanations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.similarity import jaccard
from repro.core import Id, SocialContentGraph
from repro.core.activity import ActivityRelation, OutView

CONTENT_BASED = "content"
COLLABORATIVE = "cf"


@dataclass
class Explanation:
    """One item's explanation: supporting users or items with weights."""

    item_id: Id
    kind: str  # CONTENT_BASED or COLLABORATIVE
    supporters: dict[Id, float] = field(default_factory=dict)
    aggregate_text: str = ""

    @property
    def is_empty(self) -> bool:
        """True when nothing supports the item."""
        return not self.supporters

    def top(self, k: int = 3) -> list[tuple[Id, float]]:
        """Strongest supporters."""
        ranked = sorted(
            self.supporters.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )
        return ranked[:k]


def item_similarity(graph: SocialContentGraph, a: Id, b: Id) -> float:
    """ItemSim(i, i′): derived ``sim_item`` link weight when present,
    tagger-set Jaccard otherwise."""
    return item_sim(graph.activity(), a, b)


def item_sim(activity: ActivityRelation, a: Id, b: Id) -> float:
    """:func:`item_similarity` over a relation the caller holds."""
    sim = activity.out(a).sim_item.get(b)
    if sim is not None:
        return sim
    return jaccard(activity.endorsers(a).keys(), activity.endorsers(b).keys())


def user_similarity(graph: SocialContentGraph, a: Id, b: Id) -> float:
    """UserSim(u, u′): derived ``sim_user`` link weight when present,
    item-set Jaccard otherwise (0 when unrelated, as §7.2 requires)."""
    activity = graph.activity()
    return _user_similarity(activity, activity.out(a), b)


def _user_similarity(
    activity: ActivityRelation, mine: OutView, b: Id
) -> float:
    sim = mine.sim_user.get(b)
    if sim is not None:
        return sim
    return jaccard(mine.acted.keys(), activity.out(b).acted.keys())


def explain_content_based(
    graph: SocialContentGraph, user: Id, item: Id
) -> Explanation:
    """§7.2 content-based explanation with ItemSim × rating weights."""
    return content_based(graph.activity(), user, item)


def content_based(
    activity: ActivityRelation, user: Id, item: Id
) -> Explanation:
    """:func:`explain_content_based` over a relation the caller holds."""
    explanation = Explanation(item_id=item, kind=CONTENT_BASED)
    past = activity.out(user).acted
    similar = 0
    for past_item, rating in past.items():
        if past_item == item:
            continue
        sim = item_sim(activity, item, past_item)
        if sim <= 0:
            continue
        similar += 1
        weight = sim * rating
        if weight > 0:
            explanation.supporters[past_item] = round(weight, 6)
    if past:
        # the item itself, when already visited, stays in the denominator
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
    return _collaborative(graph.activity(), user, item, friends_only, {})


def collaborative_pair(
    activity: ActivityRelation, user: Id, item: Id, sims: dict[Id, float]
) -> tuple[Explanation, Explanation]:
    """One item's friends-only and everyone CF explanations, over a
    relation the caller holds.

    *sims* memoises UserSim(user, ·): the two populations share it, and a
    caller explaining several items to one user passes the same dict.
    """
    return (
        _collaborative(activity, user, item, True, sims),
        _collaborative(activity, user, item, False, sims),
    )


def _collaborative(
    activity: ActivityRelation,
    user: Id,
    item: Id,
    friends_only: bool,
    sims: dict[Id, float],
) -> Explanation:
    """Walk the item's endorsers, keeping those in the population: the
    user's ``connect`` targets (of any node type, the user included), or
    every ``user``-typed node but the user."""
    explanation = Explanation(item_id=item, kind=COLLABORATIVE)
    mine = activity.out(user)
    friends = mine.friends
    endorsing = 0
    for other, rating in activity.endorsers(item).items():
        if friends_only:
            if other not in friends:
                continue
        elif other == user or not activity.is_user(other):
            continue
        endorsing += 1
        sim = sims.get(other)
        if sim is None:
            sim = sims[other] = _user_similarity(activity, mine, other)
        if sim <= 0:
            continue
        weight = sim * rating
        if weight > 0:
            explanation.supporters[other] = round(weight, 6)
    if friends_only and friends:
        pct = round(100 * endorsing / len(friends))
        explanation.aggregate_text = (
            f"{pct}% of your friends endorsed this item"
        )
    elif endorsing and not friends_only:
        explanation.aggregate_text = (
            f"{endorsing} travelers like you endorsed this item"
        )
    return explanation


@dataclass
class GroupExplanation:
    """§7.2's group-level explanation: aggregation over item explanations."""

    label: str
    top_supporters: list[tuple[Id, float]] = field(default_factory=list)
    coverage: float = 0.0  # fraction of items with non-empty explanations
    text: str = ""


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
    activity = graph.activity()
    if kind == COLLABORATIVE:
        explanations = [_collaborative(activity, user, item, False, {})
                        for item in items]
    else:
        explanations = [content_based(activity, user, item)
                        for item in items]
    return aggregate_group(graph, label, explanations)


def aggregate_group(
    graph: SocialContentGraph, label: str, explanations: list[Explanation]
) -> GroupExplanation:
    """The group explanation of already-explained items, in group order."""
    totals: dict[Id, float] = {}
    covered = 0
    for explanation in explanations:
        if not explanation.is_empty:
            covered += 1
        for supporter, weight in explanation.supporters.items():
            totals[supporter] = totals.get(supporter, 0.0) + weight
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    coverage = covered / len(explanations) if explanations else 0.0
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
