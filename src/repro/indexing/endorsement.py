"""§6.2 network-aware indexes as access paths for the social stage.

The paper's ``IL^u_k`` structures (:class:`~repro.indexing.inverted.
ExactUserIndex`, :class:`~repro.indexing.clustered.ClusteredIndex`) store
``score_k(i, u) = f(network(u) ∩ taggers(i, k))``.  Friend-based
endorsement in the *uniform-weight* regime — an empty-keyword query, where
every friend's topical fit is 1.0 — is exactly that score with
``network(u)`` = the user's outgoing ``connect`` neighbours, ``taggers``
= the actors of each item, one pseudo-tag for "acted at all", and
``f = count``.  :class:`EndorsementData` extracts that reading so the
physical compiler can lower the friend-endorsement probe onto either index
structure with record-identical results.

Directionality note: the tagging-site :class:`~repro.indexing.scores.
TaggingData` treats the network as symmetric; friend selection follows
*outgoing* ``connect`` links only.  The two maps an index needs are
therefore transposes of each other — ``basis[u]`` (who u follows, used at
score time) vs. ``network[t]`` (who observes t, used at build time) — and
this class maintains both.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

from repro.core import Id, SocialContentGraph
from repro.core.delta import LINK, GraphDelta
from repro.indexing.clustered import ClusteredIndex
from repro.indexing.clustering import Clustering, network_clustering
from repro.indexing.inverted import ExactUserIndex
from repro.indexing.scores import ScoreF, TaggingData, f_count

#: The single pseudo-tag under which every activity is indexed.
ACT_TAG = "__act__"

#: Default clustering tightness for the compressed variant.
DEFAULT_CLUSTER_THETA = 0.3


@dataclass
class EndorsementData(TaggingData):
    """Directed activity/network accessors for endorsement indexing.

    ``network`` holds the *observer* transpose (who follows each actor —
    what index construction walks); ``basis`` holds each user's own
    outgoing friend set (what exact rescoring intersects).
    """

    basis: dict[Id, set] = field(default_factory=dict)
    #: True when some (user, item) pair carries more than one ``act``
    #: link — the per-link weighted probe then diverges from the
    #: set-semantics index score, so the index path must not serve it.
    has_multi_act: bool = False

    def score_tag(
        self, item: Id, user: Id, tag: str, f: ScoreF = f_count
    ) -> float:
        """score(i, u) against the user's *outgoing* friend basis."""
        taggers = self.taggers.get((item, tag))
        if not taggers:
            return 0.0
        return f(self.basis.get(user, set()) & taggers)

    @classmethod
    def from_graph(
        cls,
        graph: SocialContentGraph,
        connect_type: str = "connect",
        act_type: str = "act",
    ) -> "EndorsementData":
        """One-pass extraction of the endorsement reading of a graph."""
        data = cls()
        users: set[Id] = set()
        items: set[Id] = set()
        seen_acts: set[tuple[Id, Id]] = set()
        for node in graph.nodes():
            if node.has_type("user"):
                users.add(node.id)
            elif node.has_type("item"):
                items.add(node.id)
        for link in graph.links():
            if link.has_type(connect_type):
                data.basis.setdefault(link.src, set()).add(link.tgt)
                data.network.setdefault(link.tgt, set()).add(link.src)
                users.add(link.src)
                users.add(link.tgt)
            if link.has_type(act_type):
                key = (link.src, link.tgt)
                if key in seen_acts:
                    data.has_multi_act = True
                seen_acts.add(key)
                data.items.setdefault(link.src, set()).add(link.tgt)
                data.taggers.setdefault((link.tgt, ACT_TAG), set()).add(link.src)
                data.items_with_tag.setdefault(ACT_TAG, set()).add(link.tgt)
                users.add(link.src)
        data.users = sorted(users, key=repr)
        data.item_ids = sorted(items, key=repr)
        data.tag_vocab = [ACT_TAG] if data.taggers else []
        return data


def exact_endorsement_index(graph: SocialContentGraph) -> ExactUserIndex:
    """Per-(pseudo-tag, user) exact endorsement lists over *graph*."""
    return ExactUserIndex(EndorsementData.from_graph(graph))


def patched_exact_index(
    index: ExactUserIndex, delta: GraphDelta
) -> ExactUserIndex | None:
    """:func:`exact_endorsement_index` of the graph *index* was built on,
    advanced by *delta* — or ``None`` when only a rebuild can say.

    Patched are the steps a vote stream is made of: *added* ``act`` and
    ``connect`` links between users the index already lists.  A new
    endorsement changes one entry in the list of each of the actor's
    followers, a new connection the connecting user's list; those lists
    are recomputed from the patched accessors, every other list and set
    is shared with *index*, which is left as it was.  Anything else — a
    removed or replaced link, a node change, an endpoint the index has
    not seen — answers ``None``.
    """
    data = index.data
    users = set(data.users)
    fresh = replace(
        data, basis=dict(data.basis), network=dict(data.network),
        items=dict(data.items), taggers=dict(data.taggers),
        items_with_tag=dict(data.items_with_tag),
    )
    relist: set[Id] = set()
    for kind, old, link in delta:
        if kind != LINK or old is not None:
            return None
        connects, acts = link.has_type("connect"), link.has_type("act")
        src, tgt = link.src, link.tgt
        if (connects or acts) and src not in users \
                or connects and tgt not in users:
            return None
        if connects and tgt not in fresh.basis.get(src, ()):
            fresh.basis[src] = fresh.basis.get(src, set()) | {tgt}
            fresh.network[tgt] = fresh.network.get(tgt, set()) | {src}
            relist.add(src)
        if acts and tgt in fresh.items.get(src, ()):
            fresh.has_multi_act = True
        elif acts:
            key = (tgt, ACT_TAG)
            fresh.items[src] = fresh.items.get(src, set()) | {tgt}
            fresh.taggers[key] = fresh.taggers.get(key, set()) | {src}
            if tgt not in fresh.items_with_tag.get(ACT_TAG, ()):
                fresh.items_with_tag[ACT_TAG] = (
                    fresh.items_with_tag.get(ACT_TAG, set()) | {tgt}
                )
            fresh.tag_vocab = [ACT_TAG]
            relist.update(fresh.network.get(src, ()))
    patched = copy.copy(index)
    patched.data = fresh
    patched.lists = dict(index.lists)
    for user in relist:
        reached: dict[Id, set] = {}
        for friend in fresh.basis.get(user, ()):
            for item in fresh.items.get(friend, ()):
                reached.setdefault(item, set()).add(friend)
        if reached:
            patched.lists[(ACT_TAG, user)] = sorted(
                ((item, index.f(friends)) for item, friends in reached.items()),
                key=lambda kv: (-kv[1], repr(kv[0])),
            )
    return patched


def clustered_endorsement_index(
    graph: SocialContentGraph,
    theta: float = DEFAULT_CLUSTER_THETA,
    clustering: Clustering | None = None,
) -> ClusteredIndex:
    """Cluster-compressed endorsement lists (Eq 1 upper bounds)."""
    data = EndorsementData.from_graph(graph)
    return ClusteredIndex(
        data, clustering if clustering is not None
        else network_clustering(data, theta)
    )


def endorsement_entries(index: ExactUserIndex | ClusteredIndex,
                        user: Id) -> list[tuple[Id, float]] | None:
    """The user's endorsement posting list, exact-scored.

    For the exact index this is a stored list; for the clustered index the
    upper-bound list of the user's cluster is exact-rescored entry by
    entry (the paper's query-time overhead).  Returns ``None`` when the
    index cannot answer exactly (multi-activity pairs, uncovered user) —
    the caller falls back to the probe path.
    """
    data = index.data
    if getattr(data, "has_multi_act", False):
        return None
    if isinstance(index, ClusteredIndex):
        cluster = index.clustering.cluster_of.get(user)
        if cluster is None:
            # An unclustered user endorses nothing only if it has no basis.
            return [] if not data.basis.get(user) else None
        entries = []
        for item, _bound in index.lists.get((ACT_TAG, cluster), ()):
            exact = data.score(item, user, [ACT_TAG])
            if exact > 0:
                entries.append((item, exact))
        return entries
    return list(index.lists.get((ACT_TAG, user), ()))
