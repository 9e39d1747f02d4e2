"""Physical storage for social content graphs (the Data Manager's engine).

The paper (§3): "the maintenance and retrieval of the social content graph
through the Data Manager, which abstracts away the physical implementation
of the graph."  :class:`GraphStore` is that physical implementation: an
in-memory record store with

* primary key access for nodes and links,
* secondary indexes on type values and on arbitrary registered attributes,
* adjacency indexes (out/in) for traversals,
* provenance bookkeeping (which *source* owns each record: local, an
  external site, or a derivation),
* maintained statistics for the optimizer (:class:`repro.core.stats.GraphStats`).

The logical layer (:class:`repro.core.graph.SocialContentGraph`) is
produced on demand via :meth:`snapshot` / :meth:`view`; algebra operators
never see the store.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core import Id, Link, Node, SocialContentGraph
from repro.core.stats import GraphStats
from repro.errors import (
    DanglingLinkError,
    ManagementError,
    UnknownLinkError,
    UnknownNodeError,
)

#: Provenance values for the ``origin`` of records (paper §3: information
#: may be locally owned, externally integrated, or derived).
LOCAL = "local"
DERIVED = "derived"


@dataclass
class StoreStats:
    """Running statistics maintained incrementally on every write."""

    node_types: Counter = field(default_factory=Counter)
    link_types: Counter = field(default_factory=Counter)
    writes: int = 0
    deletes: int = 0

    def as_graph_stats(self, num_nodes: int, num_links: int) -> GraphStats:
        """Adapt to the optimizer's GraphStats."""
        return GraphStats(
            num_nodes=num_nodes,
            num_links=num_links,
            node_types=Counter(self.node_types),
            link_types=Counter(self.link_types),
        )


class GraphStore:
    """In-memory physical store with secondary indexes and provenance."""

    def __init__(self, indexed_attributes: Iterable[str] = ()):
        self._nodes: dict[Id, Node] = {}
        self._links: dict[Id, Link] = {}
        self._out: dict[Id, set[Id]] = {}
        self._in: dict[Id, set[Id]] = {}
        self._node_type_index: dict[str, set[Id]] = {}
        self._link_type_index: dict[str, set[Id]] = {}
        self._attr_indexes: dict[str, dict[Any, set[Id]]] = {
            att: {} for att in indexed_attributes
        }
        self._origins: dict[tuple[str, Id], str] = {}
        self.stats = StoreStats()

    # ------------------------------------------------------------------ write
    def upsert_node(self, node: Node, origin: str = LOCAL) -> Node:
        """Insert or replace a node record, maintaining all indexes."""
        old = self._nodes.get(node.id)
        if old is not None:
            self._deindex_node(old)
        self._nodes[node.id] = node
        self._out.setdefault(node.id, set())
        self._in.setdefault(node.id, set())
        self._index_node(node)
        self._origins[("node", node.id)] = origin
        self.stats.writes += 1
        return node

    def upsert_link(self, link: Link, origin: str = LOCAL) -> Link:
        """Insert or replace a link record (endpoints must exist)."""
        for endpoint in (link.src, link.tgt):
            if endpoint not in self._nodes:
                raise DanglingLinkError(link.id, endpoint)
        old = self._links.get(link.id)
        if old is not None:
            if (old.src, old.tgt) != (link.src, link.tgt):
                raise ManagementError(
                    f"link {link.id!r} cannot change endpoints on upsert"
                )
            self._deindex_link(old)
        self._links[link.id] = link
        self._out[link.src].add(link.id)
        self._in[link.tgt].add(link.id)
        self._index_link(link)
        self._origins[("link", link.id)] = origin
        self.stats.writes += 1
        return link

    def delete_link(self, link_id: Id) -> None:
        """Remove a link and its index entries."""
        link = self._links.pop(link_id, None)
        if link is None:
            raise UnknownLinkError(link_id)
        self._deindex_link(link)
        self._out[link.src].discard(link_id)
        self._in[link.tgt].discard(link_id)
        self._origins.pop(("link", link_id), None)
        self.stats.deletes += 1

    def delete_node(self, node_id: Id) -> None:
        """Remove a node and cascade to incident links."""
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        incident = set(self._out.get(node_id, ())) | set(self._in.get(node_id, ()))
        for link_id in incident:
            if link_id in self._links:
                self.delete_link(link_id)
        self._deindex_node(node)
        del self._nodes[node_id]
        self._out.pop(node_id, None)
        self._in.pop(node_id, None)
        self._origins.pop(("node", node_id), None)
        self.stats.deletes += 1

    # -------------------------------------------------------------- indexing
    def _index_node(self, node: Node) -> None:
        for t in node.types:
            self._node_type_index.setdefault(str(t), set()).add(node.id)
            self.stats.node_types[str(t)] += 1
        for att, index in self._attr_indexes.items():
            for value in node.values(att):
                index.setdefault(value, set()).add(node.id)

    def _deindex_node(self, node: Node) -> None:
        for t in node.types:
            self._node_type_index.get(str(t), set()).discard(node.id)
            self.stats.node_types[str(t)] -= 1
        for att, index in self._attr_indexes.items():
            for value in node.values(att):
                index.get(value, set()).discard(node.id)

    def _index_link(self, link: Link) -> None:
        for t in link.types:
            self._link_type_index.setdefault(str(t), set()).add(link.id)
            self.stats.link_types[str(t)] += 1

    def _deindex_link(self, link: Link) -> None:
        for t in link.types:
            self._link_type_index.get(str(t), set()).discard(link.id)
            self.stats.link_types[str(t)] -= 1

    # ------------------------------------------------------------------ read
    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        """The attributes this store maintains value indexes for
        (:meth:`find_nodes`)."""
        return tuple(sorted(self._attr_indexes))

    def node(self, node_id: Id) -> Node:
        """Primary-key node lookup."""
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        return node

    def link(self, link_id: Id) -> Link:
        """Primary-key link lookup."""
        link = self._links.get(link_id)
        if link is None:
            raise UnknownLinkError(link_id)
        return link

    def has_node(self, node_id: Id) -> bool:
        """True if the node exists."""
        return node_id in self._nodes

    def has_link(self, link_id: Id) -> bool:
        """True if the link exists."""
        return link_id in self._links

    @property
    def num_nodes(self) -> int:
        """Node count."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Link count."""
        return len(self._links)

    def nodes_of_type(self, type_name: str) -> Iterator[Node]:
        """Secondary-index scan over a node type."""
        for node_id in sorted(self._node_type_index.get(type_name, ()), key=repr):
            yield self._nodes[node_id]

    def links_of_type(self, type_name: str) -> Iterator[Link]:
        """Secondary-index scan over a link type."""
        for link_id in sorted(self._link_type_index.get(type_name, ()), key=repr):
            yield self._links[link_id]

    def find_nodes(self, att: str, value: Any) -> Iterator[Node]:
        """Attribute-index lookup (attribute must be registered)."""
        index = self._attr_indexes.get(att)
        if index is None:
            raise ManagementError(
                f"attribute {att!r} is not indexed; registered: "
                f"{sorted(self._attr_indexes)}"
            )
        for node_id in sorted(index.get(value, ()), key=repr):
            yield self._nodes[node_id]

    def out_links(self, node_id: Id) -> Iterator[Link]:
        """Adjacency scan: outgoing links."""
        for link_id in self._out.get(node_id, ()):
            yield self._links[link_id]

    def in_links(self, node_id: Id) -> Iterator[Link]:
        """Adjacency scan: incoming links."""
        for link_id in self._in.get(node_id, ()):
            yield self._links[link_id]

    def origin_of(self, kind: str, record_id: Id) -> str | None:
        """Provenance of a record ('local', 'derived', or a site name)."""
        return self._origins.get((kind, record_id))

    def records_from(self, origin: str) -> tuple[set[Id], set[Id]]:
        """(node ids, link ids) owned by *origin*."""
        nodes = {rid for (kind, rid), o in self._origins.items()
                 if kind == "node" and o == origin}
        links = {rid for (kind, rid), o in self._origins.items()
                 if kind == "link" and o == origin}
        return nodes, links

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> SocialContentGraph:
        """A full logical graph over the current store contents."""
        graph = SocialContentGraph()
        for node in self._nodes.values():
            graph.add_node(node)
        for link in self._links.values():
            graph.add_link(link)
        return graph

    def graph_stats(self) -> GraphStats:
        """Optimizer statistics reflecting the current contents."""
        return self.stats.as_graph_stats(self.num_nodes, self.num_links)
