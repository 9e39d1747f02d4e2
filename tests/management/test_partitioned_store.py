"""The one store: its read surface against the graph it was written, and
its bookkeeping.

The site is stored in one :class:`GraphStore`.  The parity tests drive
it through write sequences (factory graphs plus randomized deletes) and
compare every read path against the logical graph the same writes
produce; the accounting tests pin the store's own counts and invariants,
which the optimizer statistics and the Data Manager read.

(The module and its test ids are named for the hash-partitioned store
this suite once held equal to the monolithic one; each test now pins the
one-store behaviour that replaced it.)
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import factories
from repro.core import Link, Node
from repro.core.stats import GraphStats
from repro.errors import DanglingLinkError, ManagementError, UnknownNodeError
from repro.management import DataManager, GraphStore


def load(store, graph, origin="local"):
    for node in graph.nodes():
        store.upsert_node(node, origin=origin)
    for link in graph.links():
        store.upsert_link(link, origin=origin)


def assert_store_serves(store: GraphStore, graph, origin="local"):
    """Every read path of *store* answers as *graph* says it should."""
    assert store.num_nodes == graph.num_nodes
    assert store.num_links == graph.num_links
    assert store.snapshot().same_as(graph)
    stats, expected = store.graph_stats(), GraphStats.of(graph)
    assert (stats.num_nodes, stats.num_links) == \
        (expected.num_nodes, expected.num_links)
    assert +stats.node_types == +expected.node_types
    assert +stats.link_types == +expected.link_types
    # type scans come back in id-repr order
    types = {str(t) for node in graph.nodes() for t in node.types}
    for type_name in types | {"missing-type"}:
        assert [n.id for n in store.nodes_of_type(type_name)] == sorted(
            (n.id for n in graph.nodes_of_type(type_name)), key=repr
        )
    for type_name in {str(t) for link in graph.links() for t in link.types}:
        assert [l.id for l in store.links_of_type(type_name)] == sorted(
            (l.id for l in graph.links() if l.has_type(type_name)), key=repr
        )
    # per-record reads agree everywhere
    for node in graph.nodes():
        assert store.node(node.id) == node
        assert store.has_node(node.id)
        assert sorted(l.id for l in store.out_links(node.id)) == sorted(
            l.id for l in graph.out_links(node.id)
        )
        assert sorted(l.id for l in store.in_links(node.id)) == sorted(
            l.id for l in graph.in_links(node.id)
        )
        assert store.origin_of("node", node.id) == origin


@st.composite
def store_workloads(draw):
    """A factory graph plus a randomized delete schedule."""
    graph = factories.social_site_graph(
        num_users=draw(st.integers(min_value=1, max_value=7)),
        num_items=draw(st.integers(min_value=1, max_value=9)),
        friends_per_user=draw(st.integers(min_value=0, max_value=3)),
        acts_per_user=draw(st.integers(min_value=0, max_value=4)),
        with_sim_links=draw(st.booleans()),
    )
    link_ids = sorted(graph.link_ids(), key=repr)
    node_ids = sorted(graph.node_ids(), key=repr)
    drop_links = draw(st.lists(st.sampled_from(link_ids), max_size=4,
                               unique=True)) if link_ids else []
    drop_nodes = draw(st.lists(st.sampled_from(node_ids), max_size=2,
                               unique=True))
    return graph, drop_links, drop_nodes


class TestDifferentialParity:
    @settings(max_examples=40, deadline=None)
    @given(store_workloads())
    def test_write_read_delete_parity(self, workload):
        graph, drop_links, drop_nodes = workload
        store = GraphStore(indexed_attributes=("name",))
        load(store, graph)
        expected = graph.copy()
        for link_id in drop_links:
            store.delete_link(link_id)
            expected.remove_link(link_id)
        for node_id in drop_nodes:
            store.delete_node(node_id)
            expected.remove_node(node_id)  # cascades, as the store does
        assert_store_serves(store, expected)

    @settings(max_examples=20, deadline=None)
    @given(store_workloads())
    def test_attribute_index_scatter(self, workload):
        # the value index answers a lookup with every match, in id order
        graph, _, _ = workload
        store = GraphStore(indexed_attributes=("name",))
        load(store, graph)
        for name in {node.value("name") for node in graph.nodes()}:
            assert [n.id for n in store.find_nodes("name", name)] == sorted(
                (n.id for n in graph.nodes() if n.value("name") == name),
                key=repr,
            )
        with pytest.raises(ManagementError, match="not indexed"):
            list(store.find_nodes("keywords", "topic0"))

    def test_datamanager_runs_unchanged_on_partitions(self):
        # the manager serves what it was loaded with, from one store
        graph = factories.tiny_travel_graph()
        manager = DataManager()
        manager.load_graph(graph)
        assert type(manager.store) is GraphStore
        assert manager.graph().same_as(graph)
        assert manager.statistics() == manager.store.graph_stats()
        assert +manager.statistics().node_types == \
            +GraphStats.of(graph).node_types
        assert manager.provenance_summary() == {
            "local": (graph.num_nodes, graph.num_links)
        }
        with pytest.raises(TypeError):
            DataManager(shards=4)  # the option is gone


class TestShardAccounting:
    def test_nodes_route_by_stable_hash(self):
        # every record lives in the one store, indexed on both endpoints
        store = GraphStore()
        graph = factories.social_site_graph()
        load(store, graph)
        assert set(store._nodes) == graph.node_ids()
        for link in graph.links():
            assert link.id in store._out[link.src]
            assert link.id in store._in[link.tgt]

    def test_per_shard_stats_sum_to_the_site_view(self):
        store = GraphStore()
        graph = factories.social_site_graph()
        load(store, graph)
        assert store.stats.writes == graph.num_nodes + graph.num_links
        assert store.stats.deletes == 0
        assert +store.stats.node_types == Counter(
            str(t) for node in graph.nodes() for t in node.types
        )
        assert +store.stats.link_types == Counter(
            str(t) for link in graph.links() for t in link.types
        )

    def test_shard_snapshot_is_the_partition_population(self):
        # a snapshot is the whole population, as a fresh graph of its own
        store = GraphStore()
        graph = factories.social_site_graph()
        load(store, graph)
        first, second = store.snapshot(), store.snapshot()
        assert first.same_as(graph) and first is not second
        first.remove_node(next(iter(graph.node_ids())))
        assert store.snapshot().same_as(graph)

    def test_cross_shard_links_delete_cleanly(self):
        store = GraphStore()
        store.upsert_node(Node("a", type="user"))
        store.upsert_node(Node("b", type="item"))
        store.upsert_link(Link("x", "a", "b", type="act"))
        assert [l.id for l in store.in_links("b")] == ["x"]
        store.delete_node("a")  # cascades to the incident link
        assert not store.has_link("x")
        assert list(store.in_links("b")) == []
        assert store.stats.link_types["act"] == 0
        assert store.stats.deletes == 2

    def test_invariants_enforced_across_shards(self):
        store = GraphStore()
        store.upsert_node(Node("u", type="user"))
        with pytest.raises(DanglingLinkError):
            store.upsert_link(Link("l", "u", "ghost", type="act"))
        store.upsert_node(Node("i", type="item"))
        store.upsert_link(Link("l", "u", "i", type="act"))
        with pytest.raises(ManagementError):
            store.upsert_link(Link("l", "i", "u", type="act"))
        with pytest.raises(UnknownNodeError):
            store.delete_node("ghost")
