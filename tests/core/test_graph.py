"""Unit tests for the social content graph model (paper §4)."""

from __future__ import annotations

import random

import pytest

from repro.core import Link, Node, SocialContentGraph, graph_from_edges
from repro.errors import (
    DanglingLinkError,
    FrozenGraphError,
    GraphError,
    UnknownLinkError,
    UnknownNodeError,
)
from repro.management import DataManager
from repro.workloads import WorkloadConfig, build_site


class TestNode:
    def test_requires_type(self):
        with pytest.raises(GraphError):
            Node(1, name="John")

    def test_multi_valued_type_from_comma_string(self):
        node = Node(1, type="user, traveler", name="John")
        assert node.types == ("user", "traveler")
        assert node.has_type("user")
        assert node.has_type("traveler")
        assert not node.has_type("item")

    def test_paper_example_n2(self):
        # n2 = {id=2; type='item, city'; name='Denver'; keywords='skiing'}
        n2 = Node(2, type="item, city", name="Denver", keywords="skiing")
        assert n2.value("name") == "Denver"
        assert n2.values("keywords") == ("skiing",)

    def test_immutable(self):
        node = Node(1, type="user")
        with pytest.raises(AttributeError):
            node.attrs = {}

    def test_with_attrs_creates_new_record(self):
        node = Node(1, type="user", name="John")
        updated = node.with_attrs(name="Johnny", age=30)
        assert node.value("name") == "John"
        assert updated.value("name") == "Johnny"
        assert updated.value("age") == 30
        assert updated.id == node.id

    def test_with_attrs_none_deletes(self):
        node = Node(1, type="user", name="John")
        assert node.with_attrs(name=None).value("name") is None

    def test_cannot_drop_type(self):
        node = Node(1, type="user")
        with pytest.raises(GraphError):
            node.with_attrs(type=None)

    def test_with_score(self):
        node = Node(1, type="user")
        assert node.score is None
        assert node.with_score(0.5).score == 0.5

    def test_merge_unions_values(self):
        a = Node(1, type="user", tags=("x", "y"))
        b = Node(1, type="traveler", tags=("y", "z"), name="J")
        merged = a.merged_with(b)
        assert set(merged.types) == {"user", "traveler"}
        assert set(merged.values("tags")) == {"x", "y", "z"}
        assert merged.value("name") == "J"

    def test_merge_rejects_different_id(self):
        with pytest.raises(GraphError):
            Node(1, type="user").merged_with(Node(2, type="user"))

    def test_text_includes_only_string_values(self):
        node = Node(1, type="user", name="John", age=30)
        text = node.text()
        assert "John" in text and "30" not in text

    def test_equality_covers_attrs(self):
        assert Node(1, type="user") == Node(1, type="user")
        assert Node(1, type="user") != Node(1, type="user", x=1)


class TestLink:
    def test_paper_example_l12(self):
        l12 = Link(12, 1, 2, type="act, tag", date="2008-8-2",
                   tags="rockies baseball")
        assert l12.has_type("act") and l12.has_type("tag")
        assert l12.src == 1 and l12.tgt == 2

    def test_endpoint_access(self):
        link = Link("l", "a", "b", type="friend")
        assert link.endpoint("src") == "a"
        assert link.endpoint("tgt") == "b"
        assert link.other_endpoint("src") == "b"
        assert link.other_endpoint("tgt") == "a"

    def test_endpoint_bad_direction(self):
        with pytest.raises(GraphError):
            Link("l", "a", "b", type="x").endpoint("middle")

    def test_requires_type(self):
        with pytest.raises(GraphError):
            Link("l", "a", "b")

    def test_merge_conflicting_endpoints_rejected(self):
        a = Link("l", 1, 2, type="x")
        b = Link("l", 1, 3, type="x")
        with pytest.raises(GraphError):
            a.merged_with(b)


class TestSocialContentGraph:
    def test_add_and_lookup(self):
        g = SocialContentGraph()
        g.add_node(Node(1, type="user"))
        g.add_node(id=2, type="item")
        g.add_link(Link("l1", 1, 2, type="visit"))
        assert g.num_nodes == 2 and g.num_links == 1
        assert g.node(1).has_type("user")
        assert g.link("l1").tgt == 2

    def test_add_link_keyword_form(self):
        g = SocialContentGraph()
        g.add_node(id=1, type="user")
        g.add_node(id=2, type="item")
        g.add_link(id="l", src=1, tgt=2, type="tag", tags="baseball")
        assert g.link("l").values("tags") == ("baseball",)

    def test_dangling_link_rejected(self):
        g = SocialContentGraph()
        g.add_node(Node(1, type="user"))
        with pytest.raises(DanglingLinkError):
            g.add_link(Link("l1", 1, 99, type="visit"))

    def test_unknown_lookups_raise(self):
        g = SocialContentGraph()
        with pytest.raises(UnknownNodeError):
            g.node(1)
        with pytest.raises(UnknownLinkError):
            g.link("l")

    def test_duplicate_add_consolidates(self):
        g = SocialContentGraph()
        g.add_node(Node(1, type="user", tags="a"))
        g.add_node(Node(1, type="traveler", tags="b"))
        assert set(g.node(1).types) == {"user", "traveler"}
        assert set(g.node(1).values("tags")) == {"a", "b"}

    def test_adjacency(self, tiny_travel_graph):
        g = tiny_travel_graph
        assert g.out_degree(101) == 4  # 2 visits + 2 friend links
        assert {l.tgt for l in g.out_links(101)} == {"d1", "d3", 102, 103}
        assert 101 in g.predecessors("d1")
        assert g.successors(104) == {"d3", "d1"}
        assert g.neighbors(102) == {101, 104, "d1", "d3", "d2"}

    def test_remove_node_cascades(self, tiny_travel_graph):
        g = tiny_travel_graph.copy()
        before = g.num_links
        g.remove_node(102)  # Ann: 3 visits + f1 in + f3 out
        assert g.num_links == before - 5
        assert not g.has_node(102)

    def test_remove_link(self, tiny_travel_graph):
        g = tiny_travel_graph.copy()
        g.remove_link("f1")
        assert not g.has_link("f1")
        assert 102 not in g.successors(101) or "f1" not in {
            l.id for l in g.out_links(101)
        }

    def test_copy_is_independent(self, tiny_travel_graph):
        g = tiny_travel_graph
        clone = g.copy()
        clone.remove_node(101)
        assert g.has_node(101)
        assert not clone.has_node(101)

    def test_replace_node_keeps_adjacency(self, tiny_travel_graph):
        g = tiny_travel_graph.copy()
        g.replace_node(g.node(101).with_attrs(vip=True))
        assert g.node(101).value("vip") is True
        assert g.out_degree(101) == 4

    def test_replace_link_cannot_move_endpoints(self, tiny_travel_graph):
        g = tiny_travel_graph.copy()
        with pytest.raises(GraphError):
            g.replace_link(Link("f1", 101, 104, type="friend"))

    def test_null_graph(self, tiny_travel_graph):
        g = tiny_travel_graph
        null = g.null_graph([g.node(101)])
        assert null.is_null_graph() and null.num_nodes == 1

    def test_subgraph_from_links_induces_endpoints(self, tiny_travel_graph):
        g = tiny_travel_graph
        sub = g.subgraph_from_links([g.link("f1")])
        assert sub.node_ids() == {101, 102}
        assert sub.num_links == 1

    def test_induced_subgraph(self, tiny_travel_graph):
        g = tiny_travel_graph
        sub = g.induced_subgraph([101, 102, "d1"])
        assert sub.node_ids() == {101, 102, "d1"}
        # v0 (101->d1), v2 (102->d1), f1 (101->102) survive.
        assert sub.num_links == 3

    def test_overlay_views(self, tiny_travel_graph):
        g = tiny_travel_graph
        activity = g.activity_graph()
        network = g.network_graph()
        assert activity.num_links == 10
        assert network.num_links == 3
        assert all(l.has_type("visit") for l in activity.links())
        assert all(l.has_type("friend") for l in network.links())

    def test_same_as(self, tiny_travel_graph):
        g = tiny_travel_graph
        assert g.same_as(g.copy())
        other = g.copy()
        other.replace_node(other.node(101).with_attrs(x=1))
        assert not g.same_as(other)

    def test_contains(self, tiny_travel_graph):
        g = tiny_travel_graph
        assert g.node(101) in g
        assert g.link("f1") in g
        assert Node(999, type="user") not in g

    def test_unhashable(self, tiny_travel_graph):
        with pytest.raises(TypeError):
            hash(tiny_travel_graph)

    def test_graph_from_edges(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert g.node_ids() == {"a", "b", "c"}
        assert g.has_link("a->b") and g.has_link("b->c")

    def test_typed_iterators(self, tiny_travel_graph):
        g = tiny_travel_graph
        assert len(list(g.nodes_of_type("user"))) == 4
        assert len(list(g.nodes_of_type("destination"))) == 4
        assert len(list(g.links_of_type("friend"))) == 3


# ---------------------------------------------------------------------------
# Frozen graphs and patching by sharing
# ---------------------------------------------------------------------------

#: every mutator, as a call that would succeed on the tiny travel graph
MUTATORS = {
    "add_node": lambda g: g.add_node(Node("new", type="item")),
    "add_link": lambda g: g.add_link(Link("new", 101, "d4", type="act")),
    "_adopt_fresh_link": lambda g: g._adopt_fresh_link(
        Link("new", 101, "d4", type="act")
    ),
    "remove_node": lambda g: g.remove_node("d4"),
    "remove_link": lambda g: g.remove_link("v0"),
    "replace_node": lambda g: g.replace_node(Node("d4", type="item")),
    "replace_link": lambda g: g.replace_link(Link("v0", 101, "d1",
                                                  type="act")),
}


class TestFrozen:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_every_mutator_refuses_on_a_frozen_graph(
        self, tiny_travel_graph, name
    ):
        graph = tiny_travel_graph.freeze()
        before = graph.copy()
        with pytest.raises(FrozenGraphError) as refused:
            MUTATORS[name](graph)
        assert refused.value.operation == name
        assert graph.same_as(before)
        # the copy is mutable, and the same call goes through there
        MUTATORS[name](before)

    def test_building_graphs_stay_mutable(self, tiny_travel_graph):
        graph = tiny_travel_graph.copy().freeze().copy()
        graph.add_node(Node("new", type="item"))
        assert graph.has_node("new")


def adjacency_ids(graph: SocialContentGraph) -> set[int]:
    return {id(s) for s in graph._out.values()} | \
        {id(s) for s in graph._in.values()}


class TestPatchedShares:
    def test_a_chain_of_patches_shares_what_it_does_not_touch(self):
        """50 steps of random writes (votes, friendships, deletes, new
        items, deleted users), each applied by ``patched`` to the graph
        before it: the child equals the store, shares every adjacency set
        the step did not touch, owns at most one new set per direction
        per changed link or new node, and leaves every earlier graph as it
        was."""
        rng = random.Random(7)
        manager = DataManager()
        manager.load_graph(build_site(WorkloadConfig(
            num_users=12, num_items=20, mean_degree=3, activity_rate=3.0,
            seed=7,
        )).graph)
        graph = manager.graph()
        held: list[tuple[SocialContentGraph, SocialContentGraph]] = []
        serial = 0
        for _ in range(50):
            users = [n.id for n in manager.store.nodes_of_type("user")]
            items = [n.id for n in manager.store.nodes_of_type("item")]
            links = sorted(l.id for l in manager.store.snapshot().links())
            version = manager.version
            for _ in range(rng.randint(1, 4)):
                serial += 1
                roll = rng.random()
                if roll < 0.4:
                    manager.add_link(Link(f"w{serial}", rng.choice(users),
                                          rng.choice(items), type="act"))
                elif roll < 0.55:
                    manager.add_link(Link(f"w{serial}", rng.choice(users),
                                          rng.choice(users), type="connect"))
                elif roll < 0.8 and links:
                    manager.delete_link(links.pop(rng.randrange(len(links))))
                elif roll < 0.9:
                    manager.add_node(Node(f"n{serial}", type="item"))
                elif len(users) > 4:
                    manager.delete_node(users.pop(rng.randrange(len(users))))
            delta = manager.changes_since(version)
            held.append((graph, graph.copy()))
            child = graph.patched(delta)
            assert child.same_as(manager.store.snapshot())

            touched_out: set = set()
            touched_in: set = set()
            changed_links = fresh_nodes = 0
            for change in delta:
                if change.kind == "link":
                    changed_links += 1
                    for link in (change.old, change.new):
                        if link is not None:
                            touched_out.add(link.src)
                            touched_in.add(link.tgt)
                elif change.old is None:
                    fresh_nodes += 1
                    touched_out.add(change.new.id)
                    touched_in.add(change.new.id)
            for node, links_out in child._out.items():
                if node not in touched_out:
                    assert links_out is graph._out[node], node
            for node, links_in in child._in.items():
                if node not in touched_in:
                    assert links_in is graph._in[node], node
            new_sets = adjacency_ids(child) - adjacency_ids(graph)
            assert len(new_sets) <= 2 * (changed_links + fresh_nodes)
            graph = child

        for parent, before in held:
            assert parent.same_as(before)
            for node, links_out in before._out.items():
                assert parent._out[node] == links_out
            with pytest.raises(FrozenGraphError):
                parent.add_node(Node("late", type="item"))
        with pytest.raises(FrozenGraphError):
            graph.remove_link(next(iter(graph.links())).id)
