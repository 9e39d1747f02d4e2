"""Reference MSG cut, its taggers and the groupings that read the cut.

Verbatim what ``repro.discovery.msg.assemble_msg`` and
``repro.presentation.grouping.endorser_group_grouping`` did before they
read adjacency: one pass over *every link of the site* per request, to cut
the MSG and again to collect group membership.  :func:`taggers_of` and
the social, topical and structural groupings are the bodies that read the
cut subgraph (``msg.graph``) before the MSG became a view of its base.
``tests/presentation/test_explanation_parity.py`` and
``tests/presentation/test_msg_view.py`` hold the served versions equal to
these.
"""

from __future__ import annotations

from repro.core import Id, SocialContentGraph
from repro.discovery.msg import MeaningfulSocialGraph, ScoredItem
from repro.discovery.query import Query
from repro.discovery.strategies import SocialScores
from repro.analysis.similarity import jaccard
from repro.presentation.grouping import Group, GroupingResult


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
    cities) so structural grouping has material to work with.
    """
    msg = SocialContentGraph(catalog=base.catalog)
    if base.has_node(query.user_id):
        msg.add_node(base.node(query.user_id))
    item_set = {s.item_id for s in scored_items}
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
    for link in base.links():
        if link.has_type("act") and link.src in endorser_set and link.tgt in item_set:
            msg.add_link(link)
        elif (
            link.has_type("connect")
            and link.src == query.user_id
            and link.tgt in endorser_set
        ):
            msg.add_link(link)
        elif link.has_type("belong") and link.src in item_set:
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


def endorser_group_grouping(
    msg: MeaningfulSocialGraph,
    base: SocialContentGraph,
) -> GroupingResult:
    """Alexia's grouping: by which user-group endorsed each item.

    An item lands in the group (e.g. 'history class') whose members
    produced most of its endorsements; items with no group-affiliated
    endorsers fall into 'other travelers'.  Requires ``belong, member``
    links from users to ``group`` nodes in the *base* graph.
    """
    membership: dict[Id, set[Id]] = {}
    for link in base.links():
        if link.has_type("member") and base.has_node(link.tgt):
            if base.node(link.tgt).has_type("group"):
                membership.setdefault(link.src, set()).add(link.tgt)
    by_group: dict[Id, list[Id]] = {}
    other: list[Id] = []
    for item in msg.item_ids:
        votes: dict[Id, int] = {}
        for user in taggers_of(msg, item) | set(msg.endorsers_of(item)):
            for group_id in membership.get(user, ()):
                votes[group_id] = votes.get(group_id, 0) + 1
        if not votes:
            other.append(item)
            continue
        winner = max(votes.items(), key=lambda kv: (kv[1], repr(kv[0])))[0]
        by_group.setdefault(winner, []).append(item)
    groups = []
    for group_id, items in sorted(by_group.items(), key=lambda kv: repr(kv[0])):
        name = base.node(group_id).value("name", str(group_id))
        groups.append(
            Group(label=f"endorsed by your {name}", dimension="endorser",
                  items=items)
        )
    if other:
        groups.append(Group(label="endorsed by other travelers",
                            dimension="endorser", items=other))
    return GroupingResult(dimension="endorser", groups=groups)


def taggers_of(msg: MeaningfulSocialGraph, item_id: Id) -> set[Id]:
    """Users with an activity link onto the item *within the cut*."""
    return {l.src for l in msg.graph.in_links(item_id) if l.has_type("act")}


def social_grouping(
    msg: MeaningfulSocialGraph, theta: float = 0.3
) -> GroupingResult:
    """Definition 14 over the cut: leader-cluster by tagger Jaccard ≥ θ."""
    graph = msg.graph
    items = msg.item_ids
    taggers = {i: taggers_of(msg, i) for i in items}
    leaders: list[Id] = []
    clusters: list[list[Id]] = []
    for item in items:
        placed = False
        for index, leader in enumerate(leaders):
            if jaccard(taggers[item], taggers[leader]) >= theta:
                clusters[index].append(item)
                placed = True
                break
        if not placed:
            leaders.append(item)
            clusters.append([item])
    groups = []
    for cluster in clusters:
        endorsers: dict[Id, int] = {}
        for item in cluster:
            for user in taggers[item]:
                endorsers[user] = endorsers.get(user, 0) + 1
        if endorsers:
            top = max(endorsers.items(), key=lambda kv: (kv[1], repr(kv[0])))
            label = (f"endorsed by {_user_label(graph, top[0])} "
                     f"(+{len(endorsers) - 1} others)")
        else:
            label = "no endorsements"
        groups.append(Group(label=label, dimension="social", items=cluster))
    return GroupingResult(dimension="social", groups=groups)


def _user_label(graph: SocialContentGraph, user: Id) -> str:
    if graph.has_node(user):
        name = graph.node(user).value("name")
        if name:
            return str(name)
    return str(user)


def topical_grouping(msg: MeaningfulSocialGraph) -> GroupingResult:
    """Group by each item's strongest topic, read off the cut."""
    graph = msg.graph
    by_topic: dict[Id, list[Id]] = {}
    misc: list[Id] = []
    for item in msg.item_ids:
        topics = [
            l.tgt for l in graph.out_links(item)
            if l.has_type("belong") and graph.node(l.tgt).has_type("topic")
        ]
        if not topics:
            misc.append(item)
            continue

        def strength(topic_id: Id) -> tuple:
            for l in graph.out_links(item):
                if l.tgt == topic_id and l.has_type("belong"):
                    return (float(l.value("prob", 0.0)), repr(topic_id))
            return (0.0, repr(topic_id))

        best = max(topics, key=strength)
        by_topic.setdefault(best, []).append(item)
    groups = []
    for topic_id, items in sorted(by_topic.items(), key=lambda kv: repr(kv[0])):
        keywords = graph.node(topic_id).value("keywords", str(topic_id))
        groups.append(
            Group(label=f"topic: {keywords}", dimension="topical", items=items)
        )
    if misc:
        groups.append(Group(label="other topics", dimension="topical",
                            items=misc))
    return GroupingResult(dimension="topical", groups=groups)


def structural_grouping(
    msg: MeaningfulSocialGraph, attribute: str
) -> GroupingResult:
    """Facet grouping on an item attribute, read off the cut."""
    graph = msg.graph
    by_value: dict[str, list[Id]] = {}
    for item in msg.item_ids:
        values = graph.node(item).values(attribute)
        key = str(values[0]) if values else "(none)"
        by_value.setdefault(key, []).append(item)
    groups = [
        Group(label=f"{attribute}: {value}",
              dimension=f"structural:{attribute}", items=items)
        for value, items in sorted(by_value.items())
    ]
    return GroupingResult(dimension=f"structural:{attribute}", groups=groups)
