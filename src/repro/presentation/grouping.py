"""Result grouping mechanisms (paper §7.1).

    "there are many different mechanisms for grouping items in I_Qu:
    Social Grouping, which defines item groups based on similarity or
    closeness between users who endorsed the items; Topical Grouping,
    which defines item groups using the abstract topics each item belongs
    to; Structural Grouping, which relies on similarity in items'
    attributes."

Definition 14 (social grouping) puts two items in one group when the
Jaccard similarity of their tagger sets reaches θ; like the §6.2 clustering
definitions it is a pairwise predicate, realised with the same
deterministic greedy leader clustering.  Endorser-group grouping (Alexia's
"her classmates ... or her friends on the soccer team") is the social
variant keyed on the *user groups* of the endorsers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.similarity import jaccard
from repro.core import Id
from repro.discovery.msg import MeaningfulSocialGraph


@dataclass
class Group:
    """One displayed group of result items."""

    label: str
    dimension: str  # 'social' | 'topical' | 'structural:<att>' | 'endorser'
    items: list[Id] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of items in the group."""
        return len(self.items)


@dataclass
class GroupingResult:
    """A full partition of the result set along one dimension."""

    dimension: str
    groups: list[Group] = field(default_factory=list)

    @property
    def num_groups(self) -> int:
        """Number of groups."""
        return len(self.groups)

    def covers(self, items: Sequence[Id]) -> bool:
        """True when the groups partition exactly the given items."""
        seen: set[Id] = set()
        for group in self.groups:
            for item in group.items:
                if item in seen:
                    return False
                seen.add(item)
        return seen == set(items)


def social_grouping(
    msg: MeaningfulSocialGraph,
    theta: float = 0.3,
) -> GroupingResult:
    """Definition 14: leader-cluster items by tagger-set Jaccard ≥ θ.

    Groups are labelled by their most active endorser ("endorsed by
    user…"), the information a user can actually interpret.
    """
    graph = msg.base
    items = msg.item_ids
    taggers = {i: msg.taggers_of(i) for i in items}
    leaders: list[Id] = []
    clusters: list[list[Id]] = []
    for item in items:  # msg order = best first, so leaders are top items
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
            top = max(endorsers.items(), key=lambda kv: (kv[1], repr(kv[0])))[0]
            name = graph.node(top).value("name") if graph.has_node(top) else None
            label = f"endorsed by {name or top} (+{len(endorsers) - 1} others)"
        else:
            label = "no endorsements"
        groups.append(Group(label=label, dimension="social", items=cluster))
    return GroupingResult(dimension="social", groups=groups)


def topical_grouping(msg: MeaningfulSocialGraph) -> GroupingResult:
    """Group by the topic each item belongs to (derived ``belong`` links).

    Items without topic links fall into a 'misc' group; the topic node's
    keywords label the group.
    """
    graph = msg.base
    by_topic: dict[Id, list[Id]] = {}
    misc: list[Id] = []
    for item in msg.item_ids:
        # topic → the prob of the item's first ``belong`` link onto it
        topics: dict[Id, float] = {}
        for l in graph.out_links(item):
            if l.has_type("belong") and graph.node(l.tgt).has_type("topic"):
                topics.setdefault(l.tgt, float(l.value("prob", 0.0)))
        if not topics:
            misc.append(item)
            continue
        # strongest topic wins (highest prob attribute, then id)
        best = max(topics, key=lambda t: (topics[t], repr(t)))
        by_topic.setdefault(best, []).append(item)
    groups = []
    for topic_id, items in sorted(by_topic.items(), key=lambda kv: repr(kv[0])):
        keywords = graph.node(topic_id).value("keywords", str(topic_id))
        groups.append(
            Group(label=f"topic: {keywords}", dimension="topical", items=items)
        )
    if misc:
        groups.append(Group(label="other topics", dimension="topical", items=misc))
    return GroupingResult(dimension="topical", groups=groups)


def structural_grouping(
    msg: MeaningfulSocialGraph, attribute: str
) -> GroupingResult:
    """Facet-style grouping on an item attribute (e.g. ``city``,
    ``category``)."""
    graph = msg.base
    by_value: dict[str, list[Id]] = {}
    for item in msg.item_ids:
        values = graph.node(item).values(attribute)
        key = str(values[0]) if values else "(none)"
        by_value.setdefault(key, []).append(item)
    groups = [
        Group(label=f"{attribute}: {value}", dimension=f"structural:{attribute}",
              items=items)
        for value, items in sorted(by_value.items())
    ]
    return GroupingResult(dimension=f"structural:{attribute}", groups=groups)


def endorser_group_grouping(msg: MeaningfulSocialGraph) -> GroupingResult:
    """Alexia's grouping: by which user-group endorsed each item.

    An item lands in the group (e.g. 'history class') whose members
    produced most of its endorsements; items with no group-affiliated
    endorsers fall into 'other travelers'.  Requires ``belong, member``
    links from users to ``group`` nodes in the MSG's base graph — read
    per endorser from their own out-links, never by scanning the site.
    """
    base = msg.base
    activity = base.activity()
    by_group: dict[Id, list[Id]] = {}
    other: list[Id] = []
    for item in msg.item_ids:
        votes: dict[Id, int] = {}
        for user in msg.taggers_of(item) | set(msg.endorsers_of(item)):
            for group_id in activity.out(user).groups:
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
