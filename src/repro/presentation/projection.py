"""The activity projection: what §7 reads of the base graph, per node.

Grouping and explanations (§7.1–7.2) ask the same few questions of the
site graph over and over — which items did this user act on and how did
they rate them, who are their connections, which derived similarity links
leave this node, which user groups are they a member of, who endorsed
this item.  :class:`ActivityProjection` answers each from the node's own
adjacency, once, and remembers the answer: nothing here (or anywhere above
the plan) iterates the graph's whole link or node population.

A projection describes one graph object, which its owner
(:class:`~repro.presentation.organizer.InformationOrganizer`) froze on
adoption, and is never updated: the owner replaces it when the graph is
reassigned — by nothing, or, when it knows which links separate the two
graphs, by one that :meth:`~ActivityProjection.carried` the untouched
reads over.  It lives in ``repro.presentation`` because the layer DAG
forbids ``presentation → plan``; the plan's columnar buckets are out of
reach.

Thread-safety: one projection is shared by every request thread of a
session and takes no lock.  Each fill builds its value completely from the
frozen graph and *then* publishes it with one dict store;
two threads racing on a key compute equal values and either store wins; a
published value is never mutated.  Readers therefore see a key as absent
or complete, never partial.
"""

from __future__ import annotations

from typing import Mapping, Union

from repro.core import Id, SocialContentGraph
from repro.core.delta import GraphDelta


class OutView:
    """One node's outgoing adjacency, bucketed by the link types §7 reads."""

    __slots__ = ("acted", "friends", "sim_user", "sim_item", "groups")

    def __init__(self, graph: SocialContentGraph, node: Id):
        acted: dict[Id, float] = {}
        #: the node's direct connections (``connect`` targets)
        self.friends: set[Id] = set()
        #: derived ``sim_user`` / ``sim_item`` weights leaving the node
        #: (empty before the analysis has run)
        self.sim_user: dict[Id, float] = {}
        self.sim_item: dict[Id, float] = {}
        #: ``group``-typed nodes the node has a ``member`` link onto
        self.groups: set[Id] = set()
        for link in graph.out_links(node):
            attrs = link.attrs
            types = attrs["type"]
            tgt = link.tgt
            if "act" in types:
                acted[tgt] = max(acted.get(tgt, 0.0), _rating(attrs))
            if "connect" in types:
                self.friends.add(tgt)
            if "sim_user" in types:
                self.sim_user.setdefault(tgt, _sim(attrs))
            if "sim_item" in types:
                self.sim_item.setdefault(tgt, _sim(attrs))
            if "member" in types and graph.node(tgt).has_type("group"):
                self.groups.add(tgt)
        #: Items(u) → rating(u, i), items in ``repr`` order: the largest
        #: stored rating over parallel ``act`` links, 1.0 for an unrated
        #: one, floored at 0
        self.acted = dict(sorted(acted.items(), key=_by_repr))


class ActivityProjection:
    """Lazily filled per-node reads of one graph."""

    def __init__(self, graph: SocialContentGraph):
        self.graph = graph
        self._out: dict[Id, OutView] = {}
        self._endorsers: dict[Id, dict[Id, float]] = {}
        self._users: dict[Id, bool] = {}

    @classmethod
    def of(cls, source: "GraphSource") -> "ActivityProjection":
        """*source* itself when it is a projection, else a fresh one."""
        return source if isinstance(source, cls) else cls(source)

    def carried(
        self, graph: SocialContentGraph, delta: GraphDelta
    ) -> "ActivityProjection":
        """The projection of *graph* — this one's graph advanced by the
        link-only *delta* — starting from every read the step left true:
        all but ``out`` of a changed link's source and ``endorsers`` of
        its target.  ``self`` keeps serving whoever holds it.
        """
        carried = ActivityProjection(graph)
        # dict() is one atomic copy; a reader may be filling the original
        carried._out = dict(self._out)
        carried._endorsers = dict(self._endorsers)
        carried._users = dict(self._users)
        for link in delta.touched_links():
            carried._out.pop(link.src, None)
            carried._endorsers.pop(link.tgt, None)
        return carried

    def out(self, node: Id) -> OutView:
        """What leaves *node*: acted items, friends, similarities, groups."""
        view = self._out.get(node)
        if view is None:
            view = self._out[node] = OutView(self.graph, node)
        return view

    def endorsers(self, item: Id) -> dict[Id, float]:
        """Sources of the item's ``act`` in-links → rating(u′, i), in
        ``repr`` order of the sources.

        Iteration gives the supporters' insertion order, ``.keys()`` the
        tagger set for Jaccard; the rating is the one :meth:`acted` holds
        for the pair, read here from the same links' other end.
        """
        found = self._endorsers.get(item)
        if found is None:
            ratings: dict[Id, float] = {}
            for link in self.graph.in_links(item):
                attrs = link.attrs
                if "act" in attrs["type"]:
                    src = link.src
                    ratings[src] = max(ratings.get(src, 0.0), _rating(attrs))
            found = self._endorsers[item] = dict(
                sorted(ratings.items(), key=_by_repr)
            )
        return found

    def is_user(self, node: Id) -> bool:
        """True for a ``user``-typed node of the graph."""
        found = self._users.get(node)
        if found is None:
            graph = self.graph
            found = self._users[node] = (
                graph.has_node(node) and graph.node(node).has_type("user")
            )
        return found


def _rating(attrs: Mapping[str, tuple]) -> float:
    """One ``act`` link's rating: the stored one, 1.0 when unrated."""
    values = attrs.get("rating")
    return float(values[0]) if values else 1.0


def _sim(attrs: Mapping[str, tuple]) -> float:
    """A derived similarity link's weight (0 when it carries none)."""
    values = attrs.get("sim")
    return float(values[0]) if values else 0.0


def _by_repr(pair: tuple[Id, float]) -> str:
    return repr(pair[0])


#: What the §7 functions accept as "the base graph": the graph itself (a
#: one-off projection is built for the call) or a projection the caller
#: keeps across calls.
GraphSource = Union[SocialContentGraph, ActivityProjection]
