"""The activity relation of one graph: who acted on what, with which rating.

§7.1–7.2's groupings and explanations and §5's expert fallback (Selma's
problem) ask the same questions of the site graph over and over;
:class:`ActivityRelation` answers each lazily and remembers the answer.
A frozen graph keeps its relation (``graph.activity()``), an unfrozen one
gives a one-off per call, and ``graph.patched(delta)`` hands the next
graph the relation :meth:`~ActivityRelation.carried` over a links-only
delta (none over a node-touching one, or when none was built).  So every
layer reads one relation per graph and none holds a copy.

§7.2's UserSim and ItemSim fall back to a Jaccard of acted / endorser
sets; ``user_row`` / ``item_row`` hold one node's whole row of them, so
a requester's similarities are computed once per served graph.

What stays on adjacency: ``friend_probe``, ``_similar_user_scores`` and
``_item_based_scores`` (:mod:`repro.core.social`) count once per ``act``
link — a member who visited and tagged an item counts twice — and
``similar_users`` also filters on ``visit``, while the relation keeps one
max rating per (user, item) over any ``act``.  No served Jaccard uses the
explanations' filter, so none is shared.

Thread-safety: a relation takes no lock.  Each fill builds its value from
the frozen records and *then* publishes it with one store; racing threads
compute equal values and either store wins, and a published value is
never mutated, so a reader sees a key absent or complete.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.text import tokenize

if TYPE_CHECKING:
    from repro.core.delta import GraphDelta
    from repro.core.graph import Id, Link, SocialContentGraph


class OutView:
    """One node's outgoing adjacency, bucketed by the link types §7 reads."""

    __slots__ = ("acted", "friends", "sim_user", "sim_item", "groups")

    def __init__(self, relation: ActivityRelation, node: Id):
        links, acted = relation._links, {}
        #: the node's direct connections (``connect`` targets)
        self.friends: set[Id] = set()
        #: derived ``sim_user`` / ``sim_item`` weights leaving the node
        #: (empty before the analysis has run)
        self.sim_user: dict[Id, float] = {}
        self.sim_item: dict[Id, float] = {}
        #: ``group``-typed nodes the node has a ``member`` link onto
        self.groups: set[Id] = set()
        for link_id in relation._out_ids.get(node, ()):
            link = links[link_id]
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
            if "member" in types and relation._nodes[tgt].has_type("group"):
                self.groups.add(tgt)
        #: Items(u) → rating(u, i), items in ``repr`` order: the largest
        #: stored rating over parallel ``act`` links, 1.0 for an unrated
        #: one, floored at 0
        self.acted = dict(sorted(acted.items(), key=_by_repr))


class ActivityRelation:
    """Lazily filled activity reads of one graph."""

    __slots__ = ("_nodes", "_links", "_out_ids", "_in_ids", "_out",
                 "_endorsers", "_users", "_postings", "_user_rows",
                 "_item_rows")

    def __init__(self, graph: SocialContentGraph):
        # the graph's maps, not the graph: a frozen graph holds its
        # relation, and a relation holding the graph would be a cycle
        self._nodes = graph._nodes
        self._links = graph._links
        self._out_ids = graph._out
        self._in_ids = graph._in
        self._out: dict[Id, OutView] = {}
        self._endorsers: dict[Id, dict[Id, float]] = {}
        self._users: dict[Id, bool] = {}
        self._postings: dict[str, dict[Id, Id]] | None = None
        self._user_rows: dict[Id, dict[Id, float]] = {}
        self._item_rows: dict[Id, dict[Id, float]] = {}

    def carried(
        self, graph: SocialContentGraph, delta: GraphDelta
    ) -> ActivityRelation:
        """The relation of *graph* — this one's graph advanced by the
        links-only *delta* — starting from every read the step left true:
        all but ``out`` of a changed link's source and ``endorsers`` of
        its target, with the postings patched per touched term (a new map
        sharing every term's postings the step did not touch).

        A changed ``act`` link v→j drops the user rows of v, of j's
        endorsers after the step and every row holding v, and the item
        rows of j, of v's items after the step and every row holding j.
        """
        carried = ActivityRelation(graph)
        # dict() is one atomic copy; a reader may be filling the original
        carried._out = dict(self._out)
        carried._endorsers = dict(self._endorsers)
        carried._users = dict(self._users)
        carried._user_rows = dict(self._user_rows)
        carried._item_rows = dict(self._item_rows)
        actors, acted = set(), set()
        for link in delta.touched_links():
            carried._out.pop(link.src, None)
            carried._endorsers.pop(link.tgt, None)
            if "act" in link.attrs["type"]:
                actors.add(link.src)
                acted.add(link.tgt)
        for rows, moved, via, reach in (
            (carried._user_rows, actors, acted, carried.endorsers),
            (carried._item_rows, acted, actors, carried._acted),
        ):
            if rows and moved:
                for key in [key for key, row in rows.items() if key in moved
                            or any(node in row for node in moved)]:
                    del rows[key]
                for node in via:
                    for key in reach(node):
                        rows.pop(key, None)
        if self._postings is None:
            return carried
        postings = carried._postings = dict(self._postings)
        copied: set[str] = set()
        item_terms: dict[Id, set[str]] = {}
        for _kind, old, new in delta:
            for link, add in ((old, False), (new, True)):
                if link is None or not link.has_type("act"):
                    continue
                for term in carried._act_terms(link, item_terms):
                    if term not in copied:
                        postings[term] = dict(postings.get(term, {}))
                        copied.add(term)
                    if add:
                        postings[term][link.id] = link.src
                    else:
                        postings[term].pop(link.id, None)
        for term in copied:
            if not postings[term]:
                del postings[term]
        return carried

    def out(self, node: Id) -> OutView:
        """What leaves *node*: acted items, friends, similarities, groups."""
        view = self._out.get(node)
        if view is None:
            view = self._out[node] = OutView(self, node)
        return view

    def endorsers(self, item: Id) -> dict[Id, float]:
        """Sources of the item's ``act`` in-links → rating(u′, i), in
        ``repr`` order of the sources: the supporters' insertion order,
        and ``.keys()`` the tagger set for Jaccard."""
        found = self._endorsers.get(item)
        if found is None:
            ratings: dict[Id, float] = {}
            for link_id in self._in_ids.get(item, ()):
                link = self._links[link_id]
                attrs = link.attrs
                if "act" in attrs["type"]:
                    src = link.src
                    ratings[src] = max(ratings.get(src, 0.0), _rating(attrs))
            found = self._endorsers[item] = dict(
                sorted(ratings.items(), key=_by_repr)
            )
        return found

    def user_row(self, user: Id) -> dict[Id, float]:
        """Co-actor → Jaccard of the two acted sets, for every node that
        acted on an item *user* acted on (*user* included); a node
        missing from the row shares no item with *user* (0.0)."""
        return self._row(self._user_rows, user, self._acted, self.endorsers)

    def item_row(self, item: Id) -> dict[Id, float]:
        """The mirror of :meth:`user_row`: co-endorsed item → Jaccard of
        the two endorser sets, 0.0 for an item missing from the row."""
        return self._row(self._item_rows, item, self.endorsers, self._acted)

    def _row(
        self,
        rows: dict[Id, dict[Id, float]],
        node: Id,
        forward: Callable[[Id], dict[Id, float]],
        back: Callable[[Id], dict[Id, float]],
    ) -> dict[Id, float]:
        """{other: Jaccard(forward(node), forward(other))} for every other
        in back(forward(node)), with the arithmetic of
        :func:`repro.analysis.similarity.jaccard`: the same floats."""
        row = rows.get(node)
        if row is None:
            mine, shared = forward(node), {}
            for via in mine:
                for other in back(via):
                    shared[other] = shared.get(other, 0) + 1
            row = rows[node] = {
                other: count / (len(mine) + len(forward(other)) - count)
                for other, count in shared.items()
            }
        return row

    def _acted(self, node: Id) -> dict[Id, float]:
        return self.out(node).acted

    def is_user(self, node: Id) -> bool:
        """True for a ``user``-typed node of the graph."""
        found = self._users.get(node)
        if found is None:
            record = self._nodes.get(node)
            found = self._users[node] = (
                record is not None and record.has_type("user")
            )
        return found

    def term_postings(self) -> dict[str, dict[Id, Id]]:
        """Term → {``act`` link id: its source}: every ``act`` link filed
        under its target's text and its own tags, tokenised as the expert
        walk of ``tests/oracle`` tokenises them; built on the first read."""
        postings = self._postings
        if postings is None:
            postings = {}
            item_terms: dict[Id, set[str]] = {}
            for link in self._links.values():
                if link.has_type("act"):
                    for term in self._act_terms(link, item_terms):
                        postings.setdefault(term, {})[link.id] = link.src
            self._postings = postings
        return postings

    def _act_terms(
        self, link: Link, item_terms: dict[Id, set[str]]
    ) -> set[str]:
        """An ``act`` link's terms, its target's tokenised once per target
        into *item_terms*.  A links-only step changes no node record, so
        a removed link's terms are read off the target it still has."""
        terms = item_terms.get(link.tgt)
        if terms is None:
            terms = item_terms[link.tgt] = set(
                tokenize(self._nodes[link.tgt].text())
            )
        tags = link.values("tags")
        return terms.union(*(tokenize(str(value)) for value in tags)) if tags \
            else terms


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
