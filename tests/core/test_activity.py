"""A served graph's activity relation equals a rebuild after every vote.

``graph.activity()`` on a frozen graph is kept with the graph, and
``patched`` hands the next graph the relation carried over a links-only
delta: every read but ``out`` of a changed link's source and
``endorsers`` of its target, with the term postings patched.  The
differential below writes random links-only steps through the Data
Manager — ``act``, ``connect``, ``member`` and ``sim_*`` links added,
replaced and deleted — fills a random part of each served graph's
relation first, and holds every read the next graph's relation holds
equal to a fresh :class:`~repro.core.activity.ActivityRelation` of it.
The similarity rows get a differential of their own: a row carried past
a step must be the very row a fresh relation builds, float for float.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

import factories
from repro.analysis.similarity import jaccard
from repro.core import Link, Node, SocialContentGraph
from repro.core.activity import ActivityRelation
from repro.management import DataManager

KINDS = ("act", "connect", "member", "sim_user", "sim_item")
READS = ("out", "endorsers", "is_user", "postings")
ROW_KINDS = ("act", "act", "connect", "sim_user", "sim_item")
ROWS = ("user_row", "item_row", "out", "endorsers")
indexes = st.integers(min_value=0, max_value=1000)


def site() -> SocialContentGraph:
    graph = factories.social_site_graph(num_users=5, num_items=6)
    for group in ("g0", "g1"):
        graph.add_node(Node(group, type="group", name=f"group {group}"))
    graph.add_link(Link("m0", "u0", "g0", type="belong, member"))
    graph.add_link(Link("m1", "u1", "g0", type="belong, member"))
    graph.add_link(Link("m2", "u1", "i0", type="member"))  # not a group
    return graph


def pick(population: list, index: int):
    return population[index % len(population)]


def ids_of(graph: SocialContentGraph, type_name: str) -> list:
    return sorted(n.id for n in graph.nodes() if n.has_type(type_name))


def write(manager: DataManager, serial: int, step: tuple) -> None:
    """One links-only write: add, replace or delete a link."""
    op, kind, a, b, value = step
    graph = manager.graph()
    links = sorted(l.id for l in graph.links())
    written = [link for link in links if str(link).startswith("w")]
    if written and b % 2:  # undo a step: a tag's last posting may go
        links = written
    if op == "delete":
        manager.delete_link(pick(links, a))
        return
    if op == "replace":
        old = graph.link(pick(links, a))
        attrs = {"rating": value} if old.has_type("act") \
            else {"sim": value / 5}
        manager.add_link(Link(old.id, old.src, old.tgt, type=old.types,
                              tags=pick(("museum", "thing", "fun"), b),
                              **attrs))
        return
    users, items = ids_of(graph, "user"), ids_of(graph, "item")
    src, targets, attrs = pick(users, a), items, {}
    if kind == "act":
        attrs = {"rating": value, "tags": pick(("museum", "fun"), b)}
    elif kind in ("connect", "sim_user"):
        targets = users
    elif kind == "member":
        targets = ids_of(graph, "group") + items
    else:
        src = pick(items, a)
    if kind.startswith("sim_"):
        attrs = {"sim": value / 5}
    manager.add_link(Link(f"w{serial}", src, pick(targets, b),
                          type=f"{kind}, step", **attrs))


def fill(graph: SocialContentGraph, reads: list[tuple[str, int]]) -> None:
    """Fill part of the graph's kept relation."""
    relation = graph.activity()
    nodes = sorted((n.id for n in graph.nodes()), key=repr)
    for read, at in reads:
        if read == "out":
            relation.out(pick(nodes, at))
        elif read == "endorsers":
            relation.endorsers(pick(nodes, at))
        elif read == "is_user":
            relation.is_user(pick(nodes, at))
        elif read == "user_row":
            relation.user_row(pick(nodes, at))
        elif read == "item_row":
            relation.item_row(pick(nodes, at))
        else:
            relation.term_postings()


steps = st.lists(
    st.tuples(
        st.sampled_from(("add", "add", "replace", "delete")),
        st.sampled_from(KINDS), indexes, indexes,
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1, max_size=8,
)
fills = st.lists(st.tuples(st.sampled_from(READS), indexes), max_size=12)


@settings(max_examples=120, deadline=None)
@given(writes=steps, reads=st.lists(fills, min_size=8, max_size=8))
def test_every_carried_read_equals_a_rebuild(writes, reads):
    manager, graph = factories.served(site())
    for serial, step in enumerate(writes):
        fill(graph, reads[serial])
        write(manager, serial, step)
        new = manager.graph()
        assert new._activity is not None  # carried, whatever was filled
        held = factories.assert_relation_as_rebuilt(new)
        event(f"held {min(held, 20) // 5 * 5}+ reads")
        graph = new


row_steps = st.lists(
    st.tuples(
        st.sampled_from(("add", "add", "replace", "delete")),
        st.sampled_from(ROW_KINDS), indexes, indexes,
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1, max_size=8,
)
row_fills = st.lists(st.tuples(st.sampled_from(ROWS), indexes), max_size=10)


@settings(max_examples=120, deadline=None)
@given(writes=row_steps, reads=st.lists(row_fills, min_size=8, max_size=8))
def test_every_carried_row_equals_a_fresh_row(writes, reads):
    manager, graph = factories.served(site())
    for serial, step in enumerate(writes):
        fill(graph, reads[serial])
        write(manager, serial, step)
        new = manager.graph()
        kept, fresh = new._activity, ActivityRelation(new)
        for node, row in kept._user_rows.items():
            assert row == fresh.user_row(node), node
        for item, row in kept._item_rows.items():
            assert row == fresh.item_row(item), item
        event(f"carried {min(len(kept._user_rows), 4)}+ user rows, "
              f"{min(len(kept._item_rows), 4)}+ item rows")
        graph = new


def test_rows_hold_the_jaccard_of_the_analysis():
    """A row's value is ``analysis.similarity.jaccard`` of the two sets,
    the same float, and a node sharing nothing is absent."""
    graph = site()
    relation = ActivityRelation(graph)
    users, items = ids_of(graph, "user"), ids_of(graph, "item")
    for a in users:
        row = relation.user_row(a)
        for b in users:
            sets = (relation.out(a).acted.keys(), relation.out(b).acted.keys())
            assert row.get(b, 0.0) == jaccard(*map(set, sets))
    for a in items:
        row = relation.item_row(a)
        for b in items:
            sets = (relation.endorsers(a).keys(), relation.endorsers(b).keys())
            assert row.get(b, 0.0) == jaccard(*map(set, sets))
    assert relation.user_row("u0")["u0"] == 1.0


def test_a_node_step_carries_nothing():
    manager, graph = factories.served(site())
    fill(graph, [(read, at) for read in READS for at in range(5)])
    manager.add_node(Node("i-new", type="item", keywords="museum"))
    assert graph._activity is not None
    assert manager.graph()._activity is None


def test_patching_a_graph_without_a_relation_builds_none():
    manager, graph = factories.served(site())
    manager.add_link(Link("vote", "u3", "i2", type="act, visit"))
    new = manager.graph()
    assert graph._activity is None and new._activity is None
    assert new.activity() is new.activity()  # kept once read


def test_an_unfrozen_graph_keeps_no_relation():
    graph = site()
    assert graph.activity() is not graph.activity()
    assert graph._activity is None
    assert graph.freeze().activity() is graph.activity()


def test_the_relation_reads_as_the_adjacency_says():
    relation = ActivityRelation(site())
    assert relation.out("u1").groups == {"g0"}  # i0 is no group
    assert relation.out("u0").friends == {"u1", "u2"}
    assert list(relation.out("u0").acted) == ["i0", "i1", "i2"]
    assert relation.out("i0").sim_item == {"i1": 0.2}
    assert list(relation.endorsers("i1")) == ["u0", "u1"]
    assert relation.is_user("u0") and not relation.is_user("i0")
    assert not relation.is_user("nobody")
    # i0 and i3 are the topic0 items: two acts onto i0, three onto i3
    topic0 = relation.term_postings()["topic0"]
    assert len(topic0) == 5
    assert set(topic0.values()) == {"u0", "u1", "u2", "u3", "u4"}
