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
explanation walks the *item's* endorsers (its ``act`` in-links) once and
keeps those in either population — never the population itself.  The
Jaccard fallbacks are read off the relation's similarity rows
(``user_row`` / ``item_row``), kept with the served graph.  Every graph
read goes through ``graph.activity()``, read once per call by the
functions taking the base graph; :func:`collaborative_pair`,
:func:`content_based` and :func:`item_sim` take a relation the caller
holds.  The population-walking reference is
``tests/oracle/explanations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import Id, SocialContentGraph
from repro.core.activity import ActivityRelation

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
    return activity.out(a).sim_item.get(b, activity.item_row(a).get(b, 0.0))


def user_similarity(graph: SocialContentGraph, a: Id, b: Id) -> float:
    """UserSim(u, u′): derived ``sim_user`` link weight when present,
    item-set Jaccard otherwise (0 when unrelated, as §7.2 requires)."""
    activity = graph.activity()
    return activity.out(a).sim_user.get(b, activity.user_row(a).get(b, 0.0))


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
    overrides = activity.out(item).sim_item
    row = activity.item_row(item)
    similar = 0
    for past_item, rating in past.items():
        if past_item == item:
            continue
        sim = overrides.get(past_item, row.get(past_item, 0.0))
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
    return collaborative_pair(graph.activity(), user, item)[
        0 if friends_only else 1
    ]


def collaborative_pair(
    activity: ActivityRelation, user: Id, item: Id
) -> tuple[Explanation, Explanation]:
    """One item's friends-only and everyone CF explanations, over a
    relation the caller holds, from one walk of the item's endorsers.

    An endorser counts for the friends when it is one of the user's
    ``connect`` targets (of any node type, the user included), and for
    everyone when it is a ``user``-typed node other than the user; its
    UserSim is the user's ``sim_user`` link onto it, or else its entry in
    the user's similarity row.
    """
    friends_only = Explanation(item_id=item, kind=COLLABORATIVE)
    everyone = Explanation(item_id=item, kind=COLLABORATIVE)
    mine = activity.out(user)
    friends, overrides = mine.friends, mine.sim_user
    row = activity.user_row(user)
    endorsing_friends = endorsing = 0
    for other, rating in activity.endorsers(item).items():
        friend = other in friends
        counted = other != user and activity.is_user(other)
        if not (friend or counted):
            continue
        endorsing_friends += friend
        endorsing += counted
        sim = overrides.get(other, row.get(other, 0.0))
        if sim <= 0:
            continue
        weight = sim * rating
        if weight > 0:
            weight = round(weight, 6)
            if friend:
                friends_only.supporters[other] = weight
            if counted:
                everyone.supporters[other] = weight
    if friends:
        pct = round(100 * endorsing_friends / len(friends))
        friends_only.aggregate_text = (
            f"{pct}% of your friends endorsed this item"
        )
    if endorsing:
        everyone.aggregate_text = (
            f"{endorsing} travelers like you endorsed this item"
        )
    return friends_only, everyone


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
        explanations = [collaborative_pair(activity, user, item)[1]
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
