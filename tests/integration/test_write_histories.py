"""Histories, not single queries: a session under writes answers as a
fresh one does.

A write through the Data Manager reaches the session as a *delta*: the
manager cuts the next graph from the one it served by patching it, sharing
every adjacency set the step did not touch, and every derived structure
keeps what the changed records cannot have touched
(``docs/ARCHITECTURE.md``, "Writes: a delta, not a flush" and "Served
graphs are values").  What that must never change is an answer.  The
state machine below interleaves the system's write verbs — ones the feed
can itemise and ones it cannot, accepted and rejected, and writes to the
served graph itself, which are refused — with reads, and after **every**
step holds the live session against a session built from scratch on the
same site:

* the canonical whole response of a probe set (keyword, empty-text,
  structural, ``strategy="auto"``) and of the last drawn request, at 1e-9;
* the working graph: equal records *and* equal node / link iteration
  order;
* the planner's statistics against ``GraphStats.of``;
* every read the served graph's activity relation holds — carried by
  ``patched`` or filled since — against a fresh relation's;
* what ``strategy="auto"`` resolved to.

Beside it: a vote makes no pass over the site (counting spies, and the
same with ten times the site around it), a reader keeps the state it
holds, a write to a served graph is refused while the same write through
the manager outlives later writes and a restart, and the change feed says
``None`` wherever it cannot itemise.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import factories
import oracle
from benchmarks.e2e.harness import canonical_response, first_difference
from repro.analysis import ContentAnalyzer
from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Link, Node, SocialContentGraph
from repro.core.activity import ActivityRelation
from repro.core.delta import LINK, NODE, Change, GraphDelta
from repro.core.social import SemanticOrder, expert_candidates
from repro.core.text import tokenize
from repro.discovery import (
    ScoredItem,
    SocialScores,
    assemble_msg,
    parse_query,
)
from repro.core.stats import GraphStats
from repro.errors import DanglingLinkError, FrozenGraphError
from repro.management import DataManager, RemoteSocialSite
from repro.management import datamanager as datamanager_module
from repro.management.storage import GraphStore
from repro.plan import QueryPlanner
from repro.presentation import InformationOrganizer
from repro.workloads import WorkloadConfig, build_site

SITE = WorkloadConfig(
    num_users=10, num_items=16, mean_degree=4, activity_rate=4.0, seed=5
)
WORDS = ("museum", "park", "food", "nightlife", "outdoors", "harbour")
LINK_TYPES = ("act, visit", "connect, friend", "act, tag")
STRATEGIES = ("friends", "similar_users", "item_based", "auto")

indexes = st.integers(min_value=0, max_value=10_000)


def pick(population: list, index: int):
    return population[index % len(population)]


def users_of(store: GraphStore) -> list:
    return [n.id for n in store.nodes_of_type("user")]


def items_of(store: GraphStore) -> list:
    return [n.id for n in store.nodes_of_type("item")]


def links_of(store: GraphStore) -> list[Link]:
    return sorted(store.snapshot().links(), key=lambda l: repr(l.id))


def probe_for(user) -> list[SearchRequest]:
    return [
        SearchRequest(user_id=user, text="museum park", k=8),
        SearchRequest(user_id=user, text="", k=8),
        SearchRequest(user_id=user, text="food",
                      structural={"type": "item"}, k=8),
        SearchRequest(user_id=user, text="", strategy="auto", k=8),
    ]


def assert_same_orders(planner: QueryPlanner) -> None:
    """Every kept semantic order equals one cut afresh from its candidates."""
    memo = planner.state.memo
    for key, (order, _bytes) in list(memo._entries.items()):
        if key[0] != "order":
            continue
        fresh = SemanticOrder(order.candidates)
        for name in ("scores", "top", "positive", "least_positive"):
            assert getattr(order, name) == getattr(fresh, name), (key, name)
        assert order.rows() == fresh.rows(), key


class WriteHistories(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="write-histories-")
        self.serial = 0
        self.request: SearchRequest | None = None

    def teardown(self) -> None:
        wal = self.session.data_manager.wal
        if wal is not None:
            wal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @initialize()
    def open_site(self) -> None:
        self.config = SessionConfig()
        self.session = Session.from_graph(build_site(SITE).graph, self.config)

    # ------------------------------------------------------------- helpers
    @property
    def manager(self) -> DataManager:
        return self.session.data_manager

    def fresh_id(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}:{self.serial}"

    # --------------------------------------------------- writes, itemised
    @rule(src=indexes, tgt=indexes, kind=st.sampled_from(LINK_TYPES))
    def add_link(self, src: int, tgt: int, kind: str) -> None:
        store = self.manager.store
        user = pick(users_of(store), src)
        onto = users_of(store) if kind.startswith("connect") \
            else items_of(store)
        attrs = {"tags": ["museum", "fun"]} if kind == "act, tag" else {}
        self.manager.add_link(Link(
            self.fresh_id("w"), user, pick(onto, tgt), type=kind, **attrs
        ))

    @rule(which=indexes, rating=st.integers(min_value=1, max_value=5))
    def replace_link(self, which: int, rating: int) -> None:
        """Upsert an existing id: the record is *replaced* — attributes the
        new one lacks are gone, where ``add_link`` would consolidate."""
        old = pick(links_of(self.manager.store), which)
        self.manager.add_link(Link(
            old.id, old.src, old.tgt, type=old.types, rating=rating
        ))
        stored = self.manager.store.link(old.id)
        assert set(stored.attrs) == {"type", "rating"}

    @rule(which=indexes)
    def parallel_act(self, which: int) -> None:
        """A second ``act`` link on one (user, item) pair."""
        acts = [l for l in links_of(self.manager.store) if l.has_type("act")]
        old = pick(acts, which)
        self.manager.add_link(Link(
            self.fresh_id("w"), old.src, old.tgt, type="act, visit"
        ))

    @rule(words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    def add_item(self, words: list[str]) -> None:
        item = self.fresh_id("item")
        self.manager.add_node(Node(
            item, type="item", name=item, category=words[0],
            keywords=" ".join(words),
        ))

    @rule(which=indexes,
          words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    def retext_item(self, which: int, words: list[str]) -> None:
        """An item's text changes: every idf moves."""
        item = pick(items_of(self.manager.store), which)
        self.manager.add_node(Node(
            item, type="item", name=str(item), category=words[0],
            keywords=" ".join(words),
        ))

    @rule(which=indexes)
    def delete_link(self, which: int) -> None:
        self.manager.delete_link(pick(links_of(self.manager.store), which).id)

    @precondition(lambda self: len(users_of(self.manager.store)) > 3
                  and len(items_of(self.manager.store)) > 3)
    @rule(which=indexes, user=st.booleans())
    def delete_node(self, which: int, user: bool) -> None:
        store = self.manager.store
        self.manager.delete_node(
            pick(users_of(store) if user else items_of(store), which)
        )

    # ------------------------------------------- writes, not itemised / not
    @rule(tgt=indexes)
    def rejected_write(self, tgt: int) -> None:
        """A dangling link is refused and nobody pays for it."""
        version, epoch = self.manager.version, self.session.epoch
        refreshes = self.session.stats.refreshes
        with pytest.raises(DanglingLinkError):
            self.manager.add_link(Link(
                self.fresh_id("w"), "nobody",
                pick(items_of(self.manager.store), tgt), type="act, visit",
            ))
        self.session.run(probe_for(users_of(self.manager.store)[0])[0])
        assert self.manager.version == version
        assert self.session.epoch == epoch
        assert self.session.stats.refreshes == refreshes

    @rule(src=indexes, tgt=indexes)
    def write_in_place(self, src: int, tgt: int) -> None:
        """The served graph refuses the write; the manager takes it."""
        store = self.manager.store
        link = Link(self.fresh_id("p"), pick(users_of(store), src),
                    pick(items_of(store), tgt), type="act, visit")
        with pytest.raises(FrozenGraphError):
            self.session.graph.add_link(link)
        self.manager.add_link(link)

    @rule()
    def analyze(self) -> None:
        self.session.analyze("user_similarity")

    @rule()
    def save_and_restore(self) -> None:
        self.session.save(self.directory)
        wal = self.manager.wal
        if wal is not None:
            wal.close()
        self.session = Session.restore(self.directory, self.config)

    # ---------------------------------------------------------------- reads
    @rule(user=indexes, text=st.sampled_from(("", "museum", "park food")),
          structural=st.booleans(), strategy=st.sampled_from(STRATEGIES),
          use_index=st.sampled_from((None, True, False)))
    def run(self, user: int, text: str, structural: bool, strategy: str,
            use_index: bool | None) -> None:
        self.request = SearchRequest(
            user_id=pick(users_of(self.manager.store), user), text=text,
            structural={"type": "item"} if structural else None,
            strategy=strategy, use_index=use_index, k=8,
        )

    # ------------------------------------------------------------ the gate
    def reference(self) -> Session:
        """The same site, built from scratch."""
        session = Session.from_graph(
            self.manager.store.snapshot(), self.config
        )
        for name in dict.fromkeys(
            entry.name for entry in self.session.analyzer.run_log
        ):
            session.analyze(name)
        return session

    @invariant()
    def answers_as_a_fresh_session_does(self) -> None:
        live, fresh = self.session, self.reference()
        requests = probe_for(users_of(self.manager.store)[0])
        if self.request is not None \
                and self.manager.store.has_node(self.request.user_id):
            requests.append(self.request)
        for request in requests:
            got, want = live.run(request), fresh.run(request)
            assert first_difference(
                canonical_response(got), canonical_response(want)
            ) is None, request
            assert got.resolved["social_strategy"] == \
                want.resolved["social_strategy"], request

        graph = live.graph
        assert graph.same_as(fresh.graph)
        assert [n.id for n in graph.nodes()] == \
            [n.id for n in fresh.graph.nodes()]
        if not live.analyzer.run_log:
            # derived links are re-derived in an order of their own
            assert [l.id for l in graph.links()] == \
                [l.id for l in fresh.graph.links()]
            assert graph.same_as(self.manager.store.snapshot())

        planner = live.planner
        assert planner.stats == GraphStats.of(graph, with_terms=True)
        assert_same_orders(planner)
        # postings built here if no fallback has yet: every later step
        # carries them with the rest of the relation
        graph.activity().term_postings()
        assert factories.assert_relation_as_rebuilt(graph)


TestWriteHistories = WriteHistories.TestCase
TestWriteHistories.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None,
    suppress_health_check=list(HealthCheck),
)


# ---------------------------------------------------------------------------
# A vote no longer looks at the site
# ---------------------------------------------------------------------------


class Spy:
    """Counts calls of a function or constructions of a class."""

    def __init__(self, monkeypatch, owner, name: str):
        self.calls = 0
        original = getattr(owner, name)
        spy = self

        if isinstance(original, type):
            init = original.__init__

            def counted_init(instance, *args, **kwargs):
                spy.calls += 1
                init(instance, *args, **kwargs)

            monkeypatch.setattr(original, "__init__", counted_init)
        else:
            def counted(*args, **kwargs):
                spy.calls += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)


def crowd(graph: SocialContentGraph, factor: int) -> SocialContentGraph:
    """*graph* with ``factor - 1`` unrelated copies of itself around it."""
    grown = graph.copy()
    for copy in range(1, factor):
        for node in graph.nodes():
            grown.add_node(Node(f"c{copy}:{node.id}", node.attrs))
        for link in graph.links():
            grown.add_link(Link(
                f"c{copy}:{link.id}", f"c{copy}:{link.src}",
                f"c{copy}:{link.tgt}", link.attrs,
            ))
    return grown


@pytest.mark.parametrize("factor", [1, 10])
def test_a_vote_makes_no_pass_over_the_site(monkeypatch, factor):
    import repro.core.scoring as scoring
    import repro.indexing.semantic as semantic

    site = build_site(SITE)
    session = Session.from_graph(crowd(site.graph, factor))
    user, friend = site.user_ids[0], site.user_ids[1]
    requests = probe_for(user)
    for request in requests:
        session.run(request)

    spies = {
        "GraphStore.snapshot": Spy(monkeypatch, GraphStore, "snapshot"),
        "GraphStats.of": Spy(monkeypatch, GraphStats, "of"),
        "TfIdfScorer": Spy(monkeypatch, scoring, "TfIdfScorer"),
        "SemanticItemIndex": Spy(monkeypatch, semantic, "SemanticItemIndex"),
    }
    before = dataclasses.replace(session.stats)
    for vote, request in enumerate(requests):
        session.data_manager.add_link(Link(
            f"vote:{vote}", friend, site.item_ids[vote], type="act, visit"
        ))
        session.run(request)

    assert {name: spy.calls for name, spy in spies.items()} == \
        dict.fromkeys(spies, 0)
    assert session.stats.plan_compiles == before.plan_compiles
    assert session.stats.delta_refreshes == \
        before.delta_refreshes + len(requests)
    assert session.stats.refreshes == before.refreshes + len(requests)


# ---------------------------------------------------------------------------
# A vote keeps the semantic orders and patches the expert postings
# ---------------------------------------------------------------------------


def kept_orders(session: Session) -> dict:
    return {key: order for key, (order, _bytes)
            in session.planner.state.memo._entries.items()
            if key[0] == "order"}


def assert_answers_as_a_fresh_session(session: Session, requests) -> None:
    fresh = Session.from_graph(session.data_manager.store.snapshot())
    for request in requests:
        assert first_difference(
            canonical_response(session.run(request)),
            canonical_response(fresh.run(request)),
        ) is None, request


def test_a_vote_keeps_the_orders_and_patches_the_postings(monkeypatch):
    site = build_site(SITE)
    session = Session.from_graph(site.graph)
    user, friend = site.user_ids[0], site.user_ids[1]
    requests = [SearchRequest(user_id=user, text=text, k=3)
                for text in ("museum park", "food", site.categories[0])]
    for request in requests:
        session.run(request)
    orders = kept_orders(session)
    assert orders
    held = session.graph
    postings = held.activity().term_postings()
    builds: list[ActivityRelation] = []
    term_postings = ActivityRelation.term_postings

    def counted(relation: ActivityRelation):
        if relation._postings is None:
            builds.append(relation)
        return term_postings(relation)

    monkeypatch.setattr(ActivityRelation, "term_postings", counted)

    session.data_manager.add_link(Link(
        "vote", friend, site.item_ids[0], type="act, visit", tags="museum",
    ))
    for request in requests:
        session.run(request)
    kept = kept_orders(session)
    assert kept.keys() == orders.keys()
    assert all(kept[key] is orders[key] for key in orders)
    assert session.graph is not held
    # patched carried the postings onto the new graph's relation
    patched = session.graph.activity().term_postings()
    assert builds == []
    assert patched is not postings
    assert patched == ActivityRelation(session.graph).term_postings()
    assert "vote" in patched["museum"] and "vote" not in postings["museum"]
    assert_answers_as_a_fresh_session(session, requests)

    session.data_manager.add_node(Node(
        "new-item", type="item", name="new-item", keywords="museum food",
    ))
    builds.clear()  # the rebuilds above built postings of their own
    for request in requests:
        session.run(request)
    # a node write replaces the scorer, which keys the selections anew
    rebuilt = kept_orders(session)
    assert len(rebuilt) == len(orders)
    assert not {id(order) for order in rebuilt.values()} & \
        {id(order) for order in orders.values()}
    # and carries no relation: the postings are built once, on first read
    relation = session.graph.activity()
    found = relation.term_postings()
    assert builds == [relation]
    assert found == ActivityRelation(session.graph).term_postings()
    assert_answers_as_a_fresh_session(session, requests)


def test_a_second_reader_of_the_manager_costs_no_resync():
    """A vote is followed by its delta whoever else reads the manager.

    The session reads the served graph, its version and the changes since
    its own version in one locked read, so a ``dm.graph()`` call between
    the vote and the next run changes nothing: one delta refresh, and the
    semantic orders are the same objects."""
    site = build_site(SITE)
    session = Session.from_graph(site.graph)
    requests = [SearchRequest(user_id=site.user_ids[0], text=text, k=3)
                for text in ("museum park", "food", site.categories[0])]
    for request in requests:
        session.run(request)
    orders = kept_orders(session)
    assert orders
    before = dataclasses.replace(session.stats)

    session.data_manager.add_link(Link(
        "vote", site.user_ids[1], site.item_ids[0], type="act, visit",
    ))
    session.data_manager.graph()  # a second reader of the manager
    for request in requests:
        session.run(request)
    assert session.stats.refreshes == before.refreshes + 1
    assert session.stats.delta_refreshes == before.delta_refreshes + 1
    kept = kept_orders(session)
    assert kept.keys() == orders.keys()
    assert all(kept[key] is orders[key] for key in orders)
    assert_answers_as_a_fresh_session(session, requests)


def site_terms(graph: SocialContentGraph) -> list[str]:
    """Every term the site's items and tags are filed under."""
    terms = {term for node in graph.nodes() if node.has_type("item")
             for term in tokenize(node.text())}
    return sorted(terms | set(WORDS) | {"fun"})


VOTE_STEPS = st.lists(
    st.tuples(st.sampled_from(("vote", "unvote", "retag")), indexes,
              indexes, st.booleans()),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(steps=VOTE_STEPS, queries=st.lists(
    st.tuples(st.lists(indexes, min_size=0, max_size=3), indexes),
    min_size=1, max_size=4,
))
def test_expert_postings_rank_as_the_link_walk_after_votes(steps, queries):
    """After random vote / unvote / re-tag steps the postings ``patched``
    carried equal a rebuild, and the experts they rank are the oracle's
    link walk's."""
    graph = build_site(SITE).graph.freeze()
    graph.activity().term_postings()
    users = sorted((n.id for n in graph.nodes() if n.has_type("user")),
                   key=repr)
    items = sorted((n.id for n in graph.nodes() if n.has_type("item")),
                   key=repr)
    vocabulary = site_terms(graph)
    for serial, (kind, who, what, tagged) in enumerate(steps):
        acts = sorted((l for l in graph.links() if l.has_type("act")),
                      key=lambda l: repr(l.id))
        if kind == "vote" or not acts:
            attrs = {"tags": pick(WORDS, what)} if tagged else {}
            change = Change(LINK, None, Link(
                f"v{serial}", pick(users, who), pick(items, what),
                type="act, visit", **attrs,
            ))
        elif kind == "unvote":
            change = Change(LINK, pick(acts, who), None)
        else:
            old = pick(acts, who)
            attrs = {"tags": pick(WORDS, what)} if tagged else {}
            change = Change(LINK, old, Link(
                old.id, old.src, old.tgt, type=old.types, **attrs,
            ))
        graph = graph.patched(GraphDelta([change]))
    postings = graph.activity()._postings
    assert postings is not None  # carried, never rebuilt
    assert postings == ActivityRelation(graph).term_postings()
    for picks, excluded in queries:
        terms = {pick(vocabulary, at) for at in picks}
        exclude = {pick(users, excluded)}
        assert expert_candidates(graph, terms, exclude) == \
            oracle.find_experts(graph, terms, exclude)


# ---------------------------------------------------------------------------
# A reader keeps its state
# ---------------------------------------------------------------------------


def test_patching_publishes_a_new_graph_and_leaves_the_old_one_whole():
    graph = build_site(SITE).graph
    before = graph.copy()
    user, item = 1, "i1"
    doomed = next(iter(graph.out_links(user)))
    child = graph.patched(GraphDelta([
        Change(LINK, None, Link("new", user, item, type="act, visit")),
        Change(LINK, doomed, None),
        Change(NODE, graph.node(item),
               Node(item, type="item", name="renamed")),
    ]))
    assert graph.same_as(before)
    assert child.has_link("new") and not child.has_link(doomed.id)
    assert child.node(item).value("name") == "renamed"

    # the two share every adjacency set the step did not touch, so both
    # are frozen: an in-place write to one cannot reach the other
    for held in (graph, child):
        with pytest.raises(FrozenGraphError):
            held.add_link(Link("behind", user, item, type="act, visit"))
        with pytest.raises(FrozenGraphError):
            held.remove_node(2)
    assert graph.same_as(before)
    assert {l.id for l in graph.out_links(user)} == \
        {l.id for l in before.out_links(user)}


def test_the_manager_never_writes_to_a_graph_it_served():
    manager = DataManager()
    manager.load_graph(build_site(SITE).graph)
    held = manager.graph()
    before = held.copy()
    manager.add_link(Link("vote", 1, "i1", type="act, visit"))
    manager.delete_node(2)
    served = manager.graph()
    assert served is not held and served.has_link("vote")
    assert held.same_as(before)
    assert served.same_as(manager.store.snapshot())
    for graph in (held, served):
        with pytest.raises(FrozenGraphError):
            graph.add_link(Link("behind", 1, "i1", type="act, visit"))


def test_whoever_serves_or_adopts_a_graph_freezes_it():
    """The snapshot the manager serves, an analysis's published union, the
    graph a planner adopts — at construction and at refresh — and the
    base graph an MSG is cut from (what a page reads) all refuse in-place
    writes; what is only built does not."""
    vote = Link("behind", 1, "i1", type="act, visit")

    def frozen(graph: SocialContentGraph) -> bool:
        try:
            graph.copy().add_link(vote)  # a copy always takes the write
            graph.add_link(vote)
        except FrozenGraphError:
            return True
        return False

    manager = DataManager()
    manager.load_graph(build_site(SITE).graph)
    assert frozen(manager.graph())
    analyzer = ContentAnalyzer(manager.graph())
    analyzer.run("user_similarity")
    assert frozen(analyzer.graph)
    built = build_site(SITE).graph
    assert not frozen(built.copy())
    planner = QueryPlanner(built)
    assert frozen(built)
    again = build_site(SITE).graph
    planner.refresh(again)
    assert frozen(again)

    base = build_site(SITE).graph
    msg = assemble_msg(base, parse_query(1, ""),
                       [ScoredItem("i1", 0.0, 1.0, 1.0)],
                       SocialScores(strategy="friends"), False)
    assert msg.base is base and frozen(base)
    assert InformationOrganizer().organize(msg).all_items == ["i1"]


def test_a_write_to_the_served_graph_is_refused_not_lost(tmp_path):
    """The served graph used to take an in-place write, serve it until
    the manager's next write, and then drop it: it was in neither the
    store nor the WAL.  Now the write is refused, and the same link
    written through the manager outlives a later write and a restart."""
    session = Session.from_graph(build_site(SITE).graph)
    session.data_manager.enable_wal(tmp_path / "wal")
    vote = Link("kept", 1, "i1", type="act, visit")
    with pytest.raises(FrozenGraphError):
        session.graph.add_link(vote)
    assert not session.graph.has_link("kept")

    session.data_manager.add_link(vote)
    session.data_manager.add_link(Link("later", 2, "i1", type="act, visit"))
    session.run(probe_for(1)[0])
    assert session.graph.has_link("kept") and session.graph.has_link("later")

    session.save(tmp_path)
    session.data_manager.wal.close()
    restored = Session.restore(tmp_path)
    try:
        assert restored.graph.link("kept") == vote
        assert restored.graph.same_as(session.graph)
    finally:
        restored.data_manager.wal.close()


# ---------------------------------------------------------------------------
# The change feed says None wherever it cannot itemise
# ---------------------------------------------------------------------------


class TestChangeFeed:
    @pytest.fixture()
    def manager(self):
        manager = DataManager()
        manager.load_graph(build_site(SITE).graph)
        return manager

    def test_itemised_steps_in_feed_order(self, manager):
        version = manager.version
        manager.add_link(Link("vote", 1, "i1", type="act, visit"))
        manager.add_link(Link("vote", 1, "i1", type="act, rate", rating=4))
        incident = {l.id for l in manager.store.out_links(2)} | \
            {l.id for l in manager.store.in_links(2)}
        manager.delete_node(2)
        delta = manager.changes_since(version)
        kinds = [(c.kind, c.old is None, c.new is None) for c in delta]
        assert kinds[:2] == [(LINK, True, False), (LINK, False, False)]
        # the cascade enters the feed before the node
        assert kinds[2:-1] == [(LINK, False, True)] * len(incident)
        assert kinds[-1] == (NODE, False, True)
        assert not delta.links_only
        assert len(manager.changes_since(manager.version)) == 0
        assert manager.changes_since(manager.version + 1) is None

    def test_a_bulk_load_is_not_itemised(self, manager):
        version = manager.version
        manager.add_link(Link("vote", 1, "i1", type="act, visit"))
        manager.load_graph(SocialContentGraph([Node("x", type="item")]))
        assert manager.changes_since(version) is None
        assert len(manager.changes_since(manager.version)) == 0

    def test_an_integration_pull_is_not_itemised(self, manager):
        version = manager.version
        site = RemoteSocialSite("elsewhere")
        site.register_user("far", name="Far")
        site.grant("far", manager.site_name, {"profile", "connections"})
        manager.attach_remote(site)
        assert manager.version > version
        assert manager.changes_since(version) is None

    def test_a_recovery_is_not_itemised(self, manager, tmp_path):
        manager.enable_wal(tmp_path / "wal")
        manager.checkpoint(tmp_path)
        manager.add_link(Link("vote", 1, "i1", type="act, visit"))
        manager.wal.close()
        recovered, _ = DataManager.recover(tmp_path)
        try:
            # the version jumped: an empty delta here would tell a reader
            # of the dead process that nothing happened
            for version in range(recovered.version):
                assert recovered.changes_since(version) is None
            assert len(recovered.changes_since(recovered.version)) == 0
        finally:
            recovered.wal.close()

    def test_further_back_than_the_log_holds(self, manager, monkeypatch):
        monkeypatch.setattr(datamanager_module, "CHANGE_LOG_BOUND", 4)
        version = manager.version
        for vote in range(6):
            manager.add_link(Link(f"v{vote}", 1, "i1", type="act, visit"))
        assert manager.changes_since(version) is None
        assert manager.changes_since(version + 1) is None
        assert len(manager.changes_since(version + 2)) == 4
        # and the reader that far behind still gets the right graph
        assert manager.graph().same_as(manager.store.snapshot())

    def test_the_partitioned_store_itemises_only_what_keeps_its_order(self):
        """An insert is itemised like any write, and a session configured
        ``shards=2`` (the option is inert) follows a vote by delta."""
        session = Session.from_graph(build_site(SITE).graph,
                                     SessionConfig(shards=2))
        manager = session.data_manager
        request = SearchRequest(user_id=1, text="museum", k=8)
        session.run(request)
        held, version = manager.graph(), manager.version
        before = dataclasses.replace(session.stats)
        manager.add_link(Link("vote", 1, "i1", type="act, visit"))
        delta = manager.changes_since(version)
        assert isinstance(delta, GraphDelta)
        (change,) = delta
        assert change.old is None and change.new.id == "vote"
        got = session.run(request)
        assert session.stats.delta_refreshes == before.delta_refreshes + 1
        assert session.stats.refreshes == before.refreshes + 1
        assert session.graph is not held and session.graph.has_link("vote")
        # the patched graph iterates as the store's snapshot does
        snapshot = manager.store.snapshot()
        assert [l.id for l in session.graph.links()] == \
            [l.id for l in snapshot.links()]
        fresh = Session.from_graph(snapshot).run(request)
        assert first_difference(
            canonical_response(got), canonical_response(fresh)
        ) is None
