"""Reference MSG cut and endorser-group membership: the ``links()`` scans.

Verbatim what ``repro.discovery.msg.assemble_msg`` and
``repro.presentation.grouping.endorser_group_grouping`` did before they
read adjacency: one pass over *every link of the site* per request, to cut
the MSG and again to collect group membership.
``tests/presentation/test_explanation_parity.py`` holds the adjacency
versions equal to these.
"""

from __future__ import annotations

from repro.core import Id, SocialContentGraph
from repro.discovery.msg import MeaningfulSocialGraph, ScoredItem
from repro.discovery.query import Query
from repro.discovery.strategies import SocialScores
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
        for user in msg.taggers_of(item) | set(msg.endorsers_of(item)):
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
