"""The social content graph model (paper §4).

    "We adopt a graph model for representing social content.  Intuitively,
    nodes in the graph represent physical and abstract entities like users
    and topics, and links represent connections and activities between
    entities such as friendship and tagging actions.  Each node or link has
    a unique id."

Design notes
------------

* :class:`Node` and :class:`Link` are immutable records.  Algebra operators
  never mutate records in place — they build new records via
  :meth:`Node.with_attrs` / :meth:`Link.with_attrs` — so many graphs can
  safely share the same record objects (cheap copy-on-write semantics).
* :class:`SocialContentGraph` enforces referential integrity: every link's
  endpoints must be present as nodes.  Node Selection (Def 1) produces
  *null graphs* — graphs with nodes and no links — which are perfectly legal.
* Node ids and link ids live in separate namespaces (the paper's examples
  use ``n1``/``l12`` style distinct ids; nothing requires disjointness but
  we keep the two maps separate).
* The graph is a *logical* model: "not tied to any specific physical
  implementation".  The physical layer lives in
  :mod:`repro.management.storage`; this class is the in-memory logical view
  the algebra operates on.
* A graph is mutable while it is built and frozen once it is served (by
  the Data Manager, an analysis publishing its union, a planner adopting
  it, an MSG cut from it): every mutator then raises
  :class:`~repro.errors.FrozenGraphError`, so what was derived from it
  stays true as long as it lives, and :meth:`patched` shares adjacency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.core.activity import ActivityRelation
from repro.core.attrs import (
    SCORE_ATTR,
    TYPE_ATTR,
    Scalar,
    first_value,
    merge_attrs,
    normalize_attrs,
    parse_values,
    text_of,
)
from repro.core.catalog import DEFAULT_CATALOG, TypeCatalog
from repro.errors import (
    DanglingLinkError,
    DuplicateIdError,
    FrozenGraphError,
    GraphError,
    UnknownLinkError,
    UnknownNodeError,
)

if TYPE_CHECKING:  # repro.core.delta imports the records defined here
    from repro.core.delta import GraphDelta

Id = int | str

SRC = "src"
TGT = "tgt"


class Node:
    """An entity in the social content graph (user, item, topic, group...).

    Attributes are multi-valued and schema-less; the mandatory ``type``
    attribute may hold several values, e.g. ``('user', 'traveler')``.
    """

    __slots__ = ("id", "attrs")

    def __init__(self, id: Id, attrs: Mapping[str, Any] | None = None, **kw: Any):
        object.__setattr__(self, "id", id)
        combined = dict(attrs or {})
        combined.update(kw)
        normalized = normalize_attrs(combined)
        if TYPE_ATTR not in normalized:
            raise GraphError(f"node {id!r} is missing the mandatory 'type' attribute")
        object.__setattr__(self, "attrs", normalized)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Node records are immutable; use with_attrs()")

    def __reduce__(self) -> tuple:
        # Default slots pickling restores via setattr, which the
        # immutability guard blocks; rebuild through the raw constructor
        # instead.  Attrs are already canonical — re-normalising on
        # unpickle would be wasted work and could drift.
        return (_restore_node, (self.id, self.attrs))

    # -- attribute access ----------------------------------------------------

    def values(self, name: str) -> tuple[Scalar, ...]:
        """All values of attribute *name* (empty tuple if absent)."""
        return self.attrs.get(name, ())

    def value(self, name: str, default: Any = None) -> Any:
        """First value of attribute *name*, or *default*."""
        return first_value(self.attrs, name, default)

    @property
    def types(self) -> tuple[Scalar, ...]:
        """The node's type tuple."""
        return self.attrs[TYPE_ATTR]

    def has_type(self, type_name: str) -> bool:
        """True if *type_name* is among the node's types."""
        return type_name in self.attrs[TYPE_ATTR]

    @property
    def score(self) -> float | None:
        """Score attached by a scored selection, if any."""
        value = self.value(SCORE_ATTR)
        return float(value) if value is not None else None

    def text(self) -> str:
        """All string attribute values as one blob (for keyword matching)."""
        return text_of(self.attrs)

    # -- derivation ----------------------------------------------------------

    def with_attrs(self, **updates: Any) -> "Node":
        """Return a copy with the given attributes set (None deletes)."""
        attrs = {k: v for k, v in self.attrs.items()}
        for key, value in updates.items():
            if value is None:
                attrs.pop(key, None)
            else:
                attrs[key] = parse_values(value)
        node = Node.__new__(Node)
        object.__setattr__(node, "id", self.id)
        object.__setattr__(node, "attrs", attrs)
        if TYPE_ATTR not in attrs:
            raise GraphError(f"node {self.id!r} cannot drop its 'type' attribute")
        return node

    def _with_normalized(self, updates: Mapping[str, Any]) -> "Node":
        """Hot-path :meth:`with_attrs`: values already canonical tuples.

        Callers guarantee every value is exactly what
        :func:`~repro.core.attrs.parse_values` would produce (or ``None``
        to delete) — the record built here must be indistinguishable from
        the public path's.  Exists because per-result-node normalisation
        dominated the compiled pipeline's profile.
        """
        attrs = dict(self.attrs)
        for key, value in updates.items():
            if value is None:
                attrs.pop(key, None)
            else:
                attrs[key] = value
        node = Node.__new__(Node)
        object.__setattr__(node, "id", self.id)
        object.__setattr__(node, "attrs", attrs)
        return node

    def with_score(self, score: float) -> "Node":
        """Return a copy carrying ``score`` (paper Def 1)."""
        return self.with_attrs(**{SCORE_ATTR: float(score)})

    def merged_with(self, other: "Node") -> "Node":
        """Consolidate with another record of the same id (paper Def 3)."""
        if other.id != self.id:
            raise GraphError(f"cannot consolidate nodes {self.id!r} and {other.id!r}")
        node = Node.__new__(Node)
        object.__setattr__(node, "id", self.id)
        object.__setattr__(node, "attrs", merge_attrs(self.attrs, other.attrs))
        return node

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id and other.attrs == self.attrs

    def __hash__(self) -> int:
        return hash(("node", self.id))

    def __repr__(self) -> str:
        type_str = ",".join(str(t) for t in self.types)
        return f"Node({self.id!r}, type={type_str})"


class Link:
    """A directed connection or activity between two nodes.

    ``l12(n1, n2) = {id=12; type='act, tag'; date=...; tags=...}`` in the
    paper's notation becomes ``Link(12, src=1, tgt=2, type='act, tag', ...)``.
    """

    __slots__ = ("id", "src", "tgt", "attrs")

    def __init__(
        self,
        id: Id,
        src: Id,
        tgt: Id,
        attrs: Mapping[str, Any] | None = None,
        **kw: Any,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        combined = dict(attrs or {})
        combined.update(kw)
        normalized = normalize_attrs(combined)
        if TYPE_ATTR not in normalized:
            raise GraphError(f"link {id!r} is missing the mandatory 'type' attribute")
        object.__setattr__(self, "attrs", normalized)

    @classmethod
    def _from_normalized(
        cls, id: Id, src: Id, tgt: Id, attrs: dict[str, tuple]
    ) -> "Link":
        """Hot-path constructor: *attrs* already canonical (and owned).

        Callers guarantee the dict's values are exactly what
        :func:`~repro.core.attrs.parse_values` would produce, ``type``
        included, and that the dict is not shared — the record built here
        must be indistinguishable from the public constructor's.
        """
        link = cls.__new__(cls)
        object.__setattr__(link, "id", id)
        object.__setattr__(link, "src", src)
        object.__setattr__(link, "tgt", tgt)
        object.__setattr__(link, "attrs", attrs)
        return link

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Link records are immutable; use with_attrs()")

    def __reduce__(self) -> tuple:
        # See Node.__reduce__: slots restore would hit the immutability
        # guard, so unpickling goes through the raw constructor.
        return (_restore_link, (self.id, self.src, self.tgt, self.attrs))

    # -- attribute access ----------------------------------------------------

    def values(self, name: str) -> tuple[Scalar, ...]:
        """All values of attribute *name* (empty tuple if absent)."""
        return self.attrs.get(name, ())

    def value(self, name: str, default: Any = None) -> Any:
        """First value of attribute *name*, or *default*."""
        return first_value(self.attrs, name, default)

    @property
    def types(self) -> tuple[Scalar, ...]:
        """The link's type tuple."""
        return self.attrs[TYPE_ATTR]

    def has_type(self, type_name: str) -> bool:
        """True if *type_name* is among the link's types."""
        return type_name in self.attrs[TYPE_ATTR]

    @property
    def score(self) -> float | None:
        """Score attached by a scored link selection, if any."""
        value = self.value(SCORE_ATTR)
        return float(value) if value is not None else None

    def endpoint(self, direction: str) -> Id:
        """Endpoint in the given direction: ``'src'`` or ``'tgt'``.

        This realises the paper's ``l.δd`` notation.
        """
        if direction == SRC:
            return self.src
        if direction == TGT:
            return self.tgt
        raise GraphError(f"direction must be 'src' or 'tgt', got {direction!r}")

    def other_endpoint(self, direction: str) -> Id:
        """Endpoint opposite to *direction* (the paper's ``l.δd̄``)."""
        return self.endpoint(TGT if direction == SRC else SRC)

    def text(self) -> str:
        """All string attribute values as one blob (for keyword matching)."""
        return text_of(self.attrs)

    # -- derivation ----------------------------------------------------------

    def with_attrs(self, **updates: Any) -> "Link":
        """Return a copy with the given attributes set (None deletes)."""
        attrs = {k: v for k, v in self.attrs.items()}
        for key, value in updates.items():
            if value is None:
                attrs.pop(key, None)
            else:
                attrs[key] = parse_values(value)
        if TYPE_ATTR not in attrs:
            raise GraphError(f"link {self.id!r} cannot drop its 'type' attribute")
        link = Link.__new__(Link)
        object.__setattr__(link, "id", self.id)
        object.__setattr__(link, "src", self.src)
        object.__setattr__(link, "tgt", self.tgt)
        object.__setattr__(link, "attrs", attrs)
        return link

    def with_score(self, score: float) -> "Link":
        """Return a copy carrying ``score`` (paper Def 2)."""
        return self.with_attrs(**{SCORE_ATTR: float(score)})

    def merged_with(self, other: "Link") -> "Link":
        """Consolidate with another record of the same id (paper Def 3)."""
        if other.id != self.id:
            raise GraphError(f"cannot consolidate links {self.id!r} and {other.id!r}")
        if (other.src, other.tgt) != (self.src, self.tgt):
            raise GraphError(
                f"link {self.id!r} has conflicting endpoints across graphs"
            )
        link = Link.__new__(Link)
        object.__setattr__(link, "id", self.id)
        object.__setattr__(link, "src", self.src)
        object.__setattr__(link, "tgt", self.tgt)
        object.__setattr__(link, "attrs", merge_attrs(self.attrs, other.attrs))
        return link

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Link)
            and other.id == self.id
            and other.src == self.src
            and other.tgt == self.tgt
            and other.attrs == self.attrs
        )

    def __hash__(self) -> int:
        return hash(("link", self.id))

    def __repr__(self) -> str:
        type_str = ",".join(str(t) for t in self.types)
        return f"Link({self.id!r}, {self.src!r}->{self.tgt!r}, type={type_str})"


def _restore_node(id: Id, attrs: dict[str, Any]) -> Node:
    """Unpickle target of :meth:`Node.__reduce__` (raw constructor)."""
    node = Node.__new__(Node)
    object.__setattr__(node, "id", id)
    object.__setattr__(node, "attrs", attrs)
    return node


def _restore_link(id: Id, src: Id, tgt: Id, attrs: dict[str, Any]) -> Link:
    """Unpickle target of :meth:`Link.__reduce__` (raw constructor)."""
    return Link._from_normalized(id, src, tgt, attrs)


class SocialContentGraph:
    """A logical social content graph: id-keyed nodes and links + adjacency.

    Instances behave like immutable values from the algebra's point of view:
    operators construct new graphs rather than mutating inputs.  Mutating
    methods (:meth:`add_node`, :meth:`add_link`, ...) exist for
    *construction* and work until :meth:`freeze`; a served graph is frozen
    and replaced, never written (the Data Manager cuts the next one with
    :meth:`patched`).
    """

    __slots__ = ("_nodes", "_links", "_out", "_in", "_frozen", "_activity",
                 "catalog")

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        links: Iterable[Link] = (),
        catalog: TypeCatalog | None = None,
    ):
        self._nodes: dict[Id, Node] = {}
        self._links: dict[Id, Link] = {}
        self._out: dict[Id, set[Id]] = {}
        self._in: dict[Id, set[Id]] = {}
        self._frozen = False
        #: the kept activity relation (frozen graphs only; see activity())
        self._activity: ActivityRelation | None = None
        self.catalog = catalog if catalog is not None else DEFAULT_CATALOG
        for node in nodes:
            self.add_node(node)
        for link in links:
            self.add_link(link)

    def freeze(self) -> "SocialContentGraph":
        """Refuse every mutator from now on (one-way); returns the graph.
        :meth:`copy` gives a mutable graph with the same content."""
        self._frozen = True
        return self

    def activity(self) -> ActivityRelation:
        """The graph's :class:`~repro.core.activity.ActivityRelation`:
        kept by a frozen graph (and carried by :meth:`patched`), a
        one-off per call for an unfrozen one."""
        relation = self._activity
        if relation is None:
            relation = ActivityRelation(self)
            if self._frozen:
                self._activity = relation
        return relation

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------

    def add_node(self, node: Node | None = None, /, **kw: Any) -> Node:
        """Add (or consolidate) a node.  Returns the stored record.

        Accepts either a prebuilt :class:`Node` or keyword arguments
        including ``id`` and ``type``.  Adding a node whose id already
        exists consolidates attributes (union of values) per Def 3.
        """
        if node is None:
            if "id" not in kw:
                raise GraphError("add_node requires a Node or an id= keyword")
            node = Node(kw.pop("id"), kw)
        elif kw:
            raise GraphError("pass either a Node or keyword attributes, not both")
        if self._frozen:
            raise FrozenGraphError("add_node")
        existing = self._nodes.get(node.id)
        if existing is not None:
            node = existing.merged_with(node)
        self._nodes[node.id] = node
        self._out.setdefault(node.id, set())
        self._in.setdefault(node.id, set())
        return node

    def add_link(self, link: Link | None = None, /, **kw: Any) -> Link:
        """Add (or consolidate) a link.  Endpoints must already exist.

        Accepts either a prebuilt :class:`Link` or keywords including
        ``id``, ``src``, ``tgt`` and ``type``.
        """
        if link is None:
            missing = {"id", "src", "tgt"} - kw.keys()
            if missing:
                raise GraphError(f"add_link missing required keywords: {missing}")
            link = Link(kw.pop("id"), kw.pop("src"), kw.pop("tgt"), kw)
        elif kw:
            raise GraphError("pass either a Link or keyword attributes, not both")
        if self._frozen:
            raise FrozenGraphError("add_link")
        for endpoint in (link.src, link.tgt):
            if endpoint not in self._nodes:
                raise DanglingLinkError(link.id, endpoint)
        existing = self._links.get(link.id)
        if existing is not None:
            link = existing.merged_with(link)
        self._links[link.id] = link
        # setdefault: nodes adopted through the bulk null-graph path carry
        # no adjacency slots until a link actually needs one
        self._out.setdefault(link.src, set()).add(link.id)
        self._in.setdefault(link.tgt, set()).add(link.id)
        return link

    def _adopt_fresh_link(self, link: Link) -> None:
        """Hot-path :meth:`add_link`: unique id, endpoints known present."""
        if self._frozen:
            raise FrozenGraphError("_adopt_fresh_link")
        self._links[link.id] = link
        self._out.setdefault(link.src, set()).add(link.id)
        self._in.setdefault(link.tgt, set()).add(link.id)

    def remove_link(self, link_id: Id) -> Link:
        """Remove and return a link."""
        if self._frozen:
            raise FrozenGraphError("remove_link")
        link = self._links.pop(link_id, None)
        if link is None:
            raise UnknownLinkError(link_id)
        out = self._out.get(link.src)
        if out is not None:
            out.discard(link_id)
        incoming = self._in.get(link.tgt)
        if incoming is not None:
            incoming.discard(link_id)
        return link

    def remove_node(self, node_id: Id) -> Node:
        """Remove a node and all incident links; returns the node."""
        if self._frozen:
            raise FrozenGraphError("remove_node")
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise UnknownNodeError(node_id)
        incident = set(self._out.get(node_id, ())) | set(self._in.get(node_id, ()))
        for link_id in incident:
            if link_id in self._links:
                self.remove_link(link_id)
        self._out.pop(node_id, None)
        self._in.pop(node_id, None)
        return node

    def replace_node(self, node: Node) -> None:
        """Swap in a new record for an existing node id (adjacency kept)."""
        if self._frozen:
            raise FrozenGraphError("replace_node")
        if node.id not in self._nodes:
            raise UnknownNodeError(node.id)
        self._nodes[node.id] = node

    def replace_link(self, link: Link) -> None:
        """Swap in a new record for an existing link id (endpoints fixed)."""
        if self._frozen:
            raise FrozenGraphError("replace_link")
        old = self._links.get(link.id)
        if old is None:
            raise UnknownLinkError(link.id)
        if (old.src, old.tgt) != (link.src, link.tgt):
            raise GraphError("replace_link cannot change endpoints")
        self._links[link.id] = link

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node(self, node_id: Id) -> Node:
        """The node with the given id (raises UnknownNodeError)."""
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        return node

    def link(self, link_id: Id) -> Link:
        """The link with the given id (raises UnknownLinkError)."""
        link = self._links.get(link_id)
        if link is None:
            raise UnknownLinkError(link_id)
        return link

    def has_node(self, node_id: Id) -> bool:
        """True if a node with this id exists."""
        return node_id in self._nodes

    def has_link(self, link_id: Id) -> bool:
        """True if a link with this id exists."""
        return link_id in self._links

    def nodes(self) -> Iterator[Node]:
        """Iterate over all node records."""
        return iter(self._nodes.values())

    def links(self) -> Iterator[Link]:
        """Iterate over all link records."""
        return iter(self._links.values())

    def node_ids(self) -> set[Id]:
        """Set of node ids (fresh set, safe to mutate)."""
        return set(self._nodes.keys())

    def link_ids(self) -> set[Id]:
        """Set of link ids (fresh set, safe to mutate)."""
        return set(self._links.keys())

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of links."""
        return len(self._links)

    def is_null_graph(self) -> bool:
        """True when the graph has no links (Node Selection output)."""
        return not self._links

    def is_empty(self) -> bool:
        """True when the graph has neither nodes nor links."""
        return not self._nodes and not self._links

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def out_links(self, node_id: Id) -> Iterator[Link]:
        """Links whose ``src`` is *node_id*."""
        for link_id in self._out.get(node_id, ()):
            yield self._links[link_id]

    def in_links(self, node_id: Id) -> Iterator[Link]:
        """Links whose ``tgt`` is *node_id*."""
        for link_id in self._in.get(node_id, ()):
            yield self._links[link_id]

    def out_degree(self, node_id: Id) -> int:
        """Number of outgoing links."""
        return len(self._out.get(node_id, ()))

    def in_degree(self, node_id: Id) -> int:
        """Number of incoming links."""
        return len(self._in.get(node_id, ()))

    def successors(self, node_id: Id) -> set[Id]:
        """Target node ids of outgoing links."""
        return {self._links[lid].tgt for lid in self._out.get(node_id, ())}

    def predecessors(self, node_id: Id) -> set[Id]:
        """Source node ids of incoming links."""
        return {self._links[lid].src for lid in self._in.get(node_id, ())}

    def neighbors(self, node_id: Id) -> set[Id]:
        """Union of successors and predecessors."""
        return self.successors(node_id) | self.predecessors(node_id)

    # ------------------------------------------------------------------
    # Derivation helpers used by the algebra
    # ------------------------------------------------------------------

    def copy(self) -> "SocialContentGraph":
        """A mutable shallow copy sharing the immutable node/link records."""
        out = SocialContentGraph(catalog=self.catalog)
        out._nodes = dict(self._nodes)
        out._links = dict(self._links)
        out._out = {k: set(v) for k, v in self._out.items()}
        out._in = {k: set(v) for k, v in self._in.items()}
        return out

    def patched(self, delta: "GraphDelta") -> "SocialContentGraph":
        """This graph advanced by *delta*, as a new frozen object; ``self``
        keeps its content.

        The records are applied in feed order with the *store's*
        semantics, not the algebra's: an upsert **replaces** the record
        (:meth:`add_node` / :meth:`add_link` would consolidate attribute
        values), a replaced record keeps its iteration position and a new
        one goes last — so the result iterates exactly as
        ``GraphStore.snapshot()`` of the written store does.  The maps are
        copied, every adjacency set is shared until the delta first
        touches its node in its direction; sharing sets, ``self`` is
        frozen too.  A links-only *delta* carries the kept activity
        relation (:meth:`ActivityRelation.carried`); a node-touching one
        carries none.
        """
        from repro.core.delta import NODE

        self._frozen = True
        out = SocialContentGraph(catalog=self.catalog)
        nodes = out._nodes = dict(self._nodes)
        links = out._links = dict(self._links)
        out_adj = out._out = dict(self._out)
        in_adj = out._in = dict(self._in)

        def own(adj: dict[Id, set[Id]], base: dict[Id, set[Id]],
                node: Id) -> set[Id]:
            ids = adj.get(node)
            if ids is None or ids is base.get(node):  # still self's set
                ids = adj[node] = set(ids or ())
            return ids

        for kind, old, new in delta:
            if kind == NODE:
                if new is None:
                    del nodes[old.id]
                    out_adj.pop(old.id, None)
                    in_adj.pop(old.id, None)
                else:
                    nodes[new.id] = new
                    if old is None:
                        own(out_adj, self._out, new.id)
                        own(in_adj, self._in, new.id)
            elif new is None:
                del links[old.id]
                own(out_adj, self._out, old.src).discard(old.id)
                own(in_adj, self._in, old.tgt).discard(old.id)
            else:
                links[new.id] = new
                if old is None:  # a replaced link keeps its endpoints
                    own(out_adj, self._out, new.src).add(new.id)
                    own(in_adj, self._in, new.tgt).add(new.id)
        out._frozen = True
        relation = self._activity
        if relation is not None and delta.links_only:
            out._activity = relation.carried(out, delta)
        return out

    def null_graph(self, nodes: Iterable[Node]) -> "SocialContentGraph":
        """A graph with the given nodes and no links (Def 1 output shape)."""
        out = SocialContentGraph(catalog=self.catalog)
        for node in nodes:
            out.add_node(node)
        return out

    def null_graph_unique(self, nodes: Iterable[Node]) -> "SocialContentGraph":
        """:meth:`null_graph` for a population the caller knows is id-unique.

        The bulk form behind selection results: one dict comprehension
        instead of a consolidation probe plus adjacency allocation per
        node.  Callers iterating a graph's own node map (every selection
        kernel) satisfy the uniqueness contract by construction; with
        duplicate ids the last record would silently win where
        :meth:`null_graph` would consolidate.
        """
        out = SocialContentGraph(catalog=self.catalog)
        out._nodes = {node.id: node for node in nodes}
        return out

    def subgraph_from_links(self, links: Iterable[Link]) -> "SocialContentGraph":
        """The subgraph *induced by links*: links + their endpoint nodes.

        This is the output shape of Link Selection (Def 2) and Link-Driven
        Minus (Def 4): "nodes consist precisely of those nodes which are
        induced by the set of links".
        """
        out = SocialContentGraph(catalog=self.catalog)
        for link in links:
            for endpoint in (link.src, link.tgt):
                if not out.has_node(endpoint):
                    out.add_node(self.node(endpoint))
            out.add_link(link)
        return out

    def induced_subgraph(self, node_ids: Iterable[Id]) -> "SocialContentGraph":
        """The subgraph induced by *node_ids*: those nodes plus every link
        whose two endpoints are both retained."""
        keep = set(node_ids)
        out = SocialContentGraph(catalog=self.catalog)
        for node_id in keep:
            if self.has_node(node_id):
                out.add_node(self.node(node_id))
        for link in self.links():
            if link.src in keep and link.tgt in keep:
                out.add_link(link)
        return out

    # ------------------------------------------------------------------
    # Overlay views (paper §4: activity / network / topical sub-graphs)
    # ------------------------------------------------------------------

    def activity_graph(self) -> "SocialContentGraph":
        """The overlay of user activities on items (``act``-based links)."""
        return self.subgraph_from_links(
            l for l in self.links() if self.catalog.is_activity(l.types)
        )

    def network_graph(self) -> "SocialContentGraph":
        """The overlay of social connections (``connect``-based links)."""
        return self.subgraph_from_links(
            l for l in self.links() if self.catalog.is_connection(l.types)
        )

    def topical_graph(self) -> "SocialContentGraph":
        """The overlay of topic/group memberships (``belong``-based links)."""
        return self.subgraph_from_links(
            l for l in self.links() if self.catalog.is_topical(l.types)
        )

    # ------------------------------------------------------------------
    # Typed convenience iterators
    # ------------------------------------------------------------------

    def nodes_of_type(self, type_name: str) -> Iterator[Node]:
        """All nodes whose type tuple contains *type_name*."""
        return (n for n in self.nodes() if n.has_type(type_name))

    def links_of_type(self, type_name: str) -> Iterator[Link]:
        """All links whose type tuple contains *type_name*."""
        return (l for l in self.links() if l.has_type(type_name))

    # ------------------------------------------------------------------
    # Equality / repr
    # ------------------------------------------------------------------

    def same_as(self, other: "SocialContentGraph") -> bool:
        """Structural equality: same node/link ids with equal records."""
        if self._nodes.keys() != other._nodes.keys():
            return False
        if self._links.keys() != other._links.keys():
            return False
        for node_id, node in self._nodes.items():
            if other._nodes[node_id] != node:
                return False
        for link_id, link in self._links.items():
            if other._links[link_id] != link:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SocialContentGraph) and self.same_as(other)

    def __hash__(self) -> int:  # graphs are mutable containers
        raise TypeError("SocialContentGraph is unhashable")

    def __repr__(self) -> str:
        return f"SocialContentGraph(nodes={self.num_nodes}, links={self.num_links})"

    def __contains__(self, record: object) -> bool:
        if isinstance(record, Node):
            stored = self._nodes.get(record.id)
            return stored is not None and stored == record
        if isinstance(record, Link):
            stored = self._links.get(record.id)
            return stored is not None and stored == record
        return False


def graph_from_edges(
    edges: Iterable[tuple[Id, Id]],
    node_type: str = "item",
    link_type: str = "connect",
) -> SocialContentGraph:
    """Build a simple graph from (src, tgt) pairs — mirrors the paper's
    ``G1 = {(a, b), (a, c), (b, c)}`` notation used around Def 4.

    Link ids are the ``(src, tgt)`` tuples rendered as ``'src->tgt'`` strings
    so that two graphs built this way agree on link ids, as the set-operator
    examples require.
    """
    graph = SocialContentGraph()
    for src, tgt in edges:
        for node_id in (src, tgt):
            if not graph.has_node(node_id):
                graph.add_node(Node(node_id, type=node_type))
        graph.add_link(Link(f"{src}->{tgt}", src, tgt, type=link_type))
    return graph
