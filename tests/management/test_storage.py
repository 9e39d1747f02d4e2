"""Tests for the physical GraphStore and DataManager."""

from __future__ import annotations

import pytest

from repro.core import Link, Node
from repro.errors import DanglingLinkError, ManagementError, UnknownNodeError
from repro.management import DataManager, GraphStore, LOCAL, DERIVED


@pytest.fixture
def store():
    s = GraphStore(indexed_attributes=("name",))
    s.upsert_node(Node(1, type="user", name="John"))
    s.upsert_node(Node(2, type="user", name="Ann"))
    s.upsert_node(Node("d1", type="item, destination", name="Coors Field"))
    s.upsert_link(Link("v1", 1, "d1", type="act, visit"))
    s.upsert_link(Link("f1", 1, 2, type="connect, friend"))
    return s


class TestGraphStore:
    def test_primary_key_access(self, store):
        assert store.node(1).value("name") == "John"
        assert store.link("v1").tgt == "d1"

    def test_type_index(self, store):
        users = [n.id for n in store.nodes_of_type("user")]
        assert users == [1, 2]
        visits = [l.id for l in store.links_of_type("visit")]
        assert visits == ["v1"]

    def test_attribute_index(self, store):
        found = [n.id for n in store.find_nodes("name", "Coors Field")]
        assert found == ["d1"]

    def test_unindexed_attribute_rejected(self, store):
        with pytest.raises(ManagementError):
            list(store.find_nodes("keywords", "x"))

    def test_upsert_replaces_and_reindexes(self, store):
        store.upsert_node(Node(1, type="user, vip", name="Johnny"))
        assert store.node(1).value("name") == "Johnny"
        assert [n.id for n in store.find_nodes("name", "John")] == []
        assert [n.id for n in store.find_nodes("name", "Johnny")] == [1]
        assert 1 in {n.id for n in store.nodes_of_type("vip")}

    def test_dangling_link_rejected(self, store):
        with pytest.raises(DanglingLinkError):
            store.upsert_link(Link("bad", 1, "missing", type="visit"))

    def test_upsert_link_cannot_move(self, store):
        with pytest.raises(ManagementError):
            store.upsert_link(Link("v1", 2, "d1", type="visit"))

    def test_delete_node_cascades(self, store):
        store.delete_node(1)
        assert not store.has_node(1)
        assert not store.has_link("v1")
        assert not store.has_link("f1")
        assert store.has_node(2)

    def test_delete_unknown(self, store):
        with pytest.raises(UnknownNodeError):
            store.delete_node(999)

    def test_adjacency(self, store):
        assert {l.id for l in store.out_links(1)} == {"v1", "f1"}
        assert {l.id for l in store.in_links("d1")} == {"v1"}

    def test_snapshot_round_trip(self, store):
        graph = store.snapshot()
        assert graph.num_nodes == store.num_nodes
        assert graph.num_links == store.num_links
        assert graph.node(1) == store.node(1)

    def test_provenance(self, store):
        store.upsert_node(Node(3, type="user", name="Ext"), origin="facebook")
        assert store.origin_of("node", 3) == "facebook"
        assert store.origin_of("node", 1) == LOCAL
        nodes, _ = store.records_from("facebook")
        assert nodes == {3}

    def test_stats_maintained(self, store):
        stats = store.graph_stats()
        assert stats.num_nodes == 3
        assert stats.node_types["user"] == 2
        assert stats.link_types["visit"] == 1
        store.delete_link("v1")
        assert store.graph_stats().link_types["visit"] == 0


class TestDataManager:
    def test_load_and_snapshot_cache(self, tiny_travel_graph):
        dm = DataManager()
        dm.load_graph(tiny_travel_graph)
        g1 = dm.graph()
        g2 = dm.graph()
        assert g1 is g2  # cached until next write
        dm.add_node(Node(999, type="user", name="new"))
        g3 = dm.graph()
        assert g3 is not g1
        assert g3.has_node(999)

    def test_a_rejected_write_changes_nothing(self, tiny_travel_graph):
        """A write the store refuses did not happen: the version stays,
        the served graph stays, and a session over the manager neither
        refreshes nor kills its open cursors."""
        from repro.api import Session

        dm = DataManager()
        dm.load_graph(tiny_travel_graph)
        session = Session(dm)
        first = session.query(101).page_size(1).run()
        served, version, epoch = dm.graph(), dm.version, session.epoch
        with pytest.raises(DanglingLinkError):
            dm.add_link(Link("ghost", "nobody", "d1", type="act, visit"))
        with pytest.raises(ManagementError):  # endpoints are fixed on upsert
            dm.add_link(Link("v0", 101, "d2", type="act, visit"))
        assert dm.version == version and dm.graph() is served
        assert len(dm.changes_since(version)) == 0
        second = session.query(101).cursor(first.page_info.next_cursor).run()
        assert second.items and second.items != first.items
        assert session.epoch == epoch and session.stats.refreshes == 0

    def test_a_scheduled_sync_reaches_every_reader(self):
        """The integrator writes below the facade; what a sync tick
        imports must still move the version (examples/federation.py's
        shape, read back through a session)."""
        from repro.api import SearchRequest, Session
        from repro.management import ALL_SCOPES, RemoteSocialSite

        social = RemoteSocialSite("facebook-sim")
        for uid in (1, 2):
            social.register_user(uid, f"user{uid}")
            social.grant(uid, "travel-site", set(ALL_SCOPES))
        social.connect(1, 2)
        dm = DataManager(site_name="travel-site")
        dm.attach_remote(social)
        session = Session(dm)
        request = SearchRequest(user_id=1, text="", strategy="friends")
        assert session.run(request).items == ()

        social.record_activity(2, "visit", "harbour-walk")
        version = dm.version
        assert dm.build_scheduler(social).run_tick(0) == 2
        assert dm.version > version
        assert dm.changes_since(version) is None  # bulk: resync in full
        assert dm.graph().same_as(dm.store.snapshot())
        assert session.run(request).items == ("harbour-walk",)
        assert session.graph.same_as(dm.store.snapshot())

    def test_merge_derived_provenance(self, tiny_travel_graph):
        from repro.analysis import user_similarity_links

        dm = DataManager()
        dm.load_graph(tiny_travel_graph)
        derived = user_similarity_links(tiny_travel_graph, threshold=0.6)
        dm.merge_derived(derived)
        summary = dm.provenance_summary()
        assert DERIVED in summary
        assert summary[DERIVED][1] > 0  # derived links recorded

    def test_statistics_flow_to_optimizer(self, tiny_travel_graph):
        dm = DataManager()
        dm.load_graph(tiny_travel_graph)
        stats = dm.statistics()
        assert stats.num_nodes == tiny_travel_graph.num_nodes
        assert stats.link_types["visit"] == 10
