"""The columnar view and vectorized selection: parity, lowering, caches.

The acceptance contract of the columnar substrate: for any condition,
scorer and strategy, the columnar execution path produces exactly what
the row-at-a-time :class:`ScanOp` produces — verified with a hypothesis
differential harness over random conditions and the shared site factory
across all three social strategies (1e-9 on scores).  Plus structural
tests for attribute equalities on the columnar scan, columnar link
scans, top-k pushdown,
writes reaching the columnar views through the Data Manager, the
byte-bounded memo accounting, and the plan-cache stats endpoint.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

import factories
from repro.api import (
    RequestFailure,
    SearchRequest,
    SearchResponse,
    Session,
    SessionConfig,
)
from repro.core import Condition, Link, Node, SocialContentGraph, input_graph
from repro.core.conditions import AttrCompare, HasAttr, HasType, Lambda, Or
from repro.core.selection import (
    select_links,
    select_matching_links,
    select_nodes,
)
from repro.core.stats import GraphStats
from repro.discovery import InformationDiscoverer, parse_query
from repro.errors import FrozenGraphError
from repro.management import DataManager
from repro.plan import (
    COLUMNAR,
    ColumnarLinkScanOp,
    ColumnarScanOp,
    ColumnarView,
    CostModel,
    QueryPlanner,
    ResultMemo,
    ScanOp,
    VectorCondition,
)
from repro.plan.columnar import cut_columnar_view
from repro.serve import ServeGateway

TOL = 1e-9

VOCAB = ("topic0", "topic1", "thing", "offkey")


def columnar_planner(graph, min_nodes=0.0, **model_kw) -> QueryPlanner:
    return QueryPlanner(
        graph,
        cost_model=CostModel(columnar_scan_min_nodes=min_nodes,
                             columnar_scan_min_links=min_nodes, **model_kw),
    )


def uses_columnar(plan) -> bool:
    return any(op.access_path == COLUMNAR
               for op in plan._walk(plan.root, set()))


#: A cost model whose thresholds no population reaches: every base-graph
#: selection stays on the row-at-a-time :class:`ScanOp`.
ROW_MODEL = CostModel(columnar_scan_min_nodes=math.inf,
                      columnar_scan_min_links=math.inf)


def row_planner(graph) -> QueryPlanner:
    """The row-at-a-time reference executor."""
    return QueryPlanner(graph, cost_model=ROW_MODEL)


# ---------------------------------------------------------------------------
# VectorCondition kernel parity
# ---------------------------------------------------------------------------


@st.composite
def populations(draw):
    """Node populations with mixed types, multi-valued and odd attrs."""
    graph = SocialContentGraph()
    count = draw(st.integers(min_value=0, max_value=30))
    for i in range(count):
        attrs = {
            "type": draw(st.sampled_from(
                ["item", "user", "item, destination", "user, traveler"]
            )),
            "name": f"spot {i}",
        }
        if draw(st.booleans()):
            attrs["rating"] = draw(st.sampled_from(
                [0.1, 0.5, "0.7", 1, 3, "bad"]
            ))
        if draw(st.booleans()):
            attrs["keywords"] = " ".join(draw(st.lists(
                st.sampled_from(VOCAB), max_size=3
            )))
        graph.add_node(Node(i, **attrs))
    return graph


@st.composite
def conditions(draw):
    structural = {}
    if draw(st.booleans()):
        structural["type"] = draw(st.sampled_from(["item", "user",
                                                   "destination"]))
    if draw(st.booleans()):
        structural["rating__ge"] = draw(st.sampled_from([0.2, "0.5", 2]))
    if draw(st.booleans()):
        structural["name"] = draw(st.sampled_from(["spot 1", "spot 99"]))
    keywords = draw(st.sampled_from(
        [None, "topic0", "topic0 thing", "offkey topics"]
    ))
    predicates = []
    if draw(st.booleans()):  # an opaque residual predicate
        predicates.append(Lambda(lambda e: str(e.id) != "3", "not-3"))
    if draw(st.booleans()):  # a nested disjunction (never vectorized)
        predicates.append(Or(HasType("item"), HasType("user")))
    return Condition(structural, keywords=keywords,
                     predicates=tuple(predicates))


class TestVectorConditionParity:
    @settings(max_examples=60, deadline=None)
    @given(populations(), conditions(), st.booleans())
    def test_select_matches_row_kernel(self, graph, condition, scored):
        scorer = (lambda e, kw: float(len(kw) + (e.id if isinstance(
            e.id, int) else 0))) if scored else None
        expected = select_nodes(graph, condition, scorer)
        view = cut_columnar_view(graph)
        got = VectorCondition(condition).select(view, scorer)
        assert [n.id for n in got] == [n.id for n in expected.nodes()]
        for node in got:
            assert node == expected.node(node.id)

    @settings(max_examples=25, deadline=None)
    @given(populations(), conditions())
    def test_sharded_union_matches_monolithic(self, graph, condition):
        # the planner's columnar scan, end to end, against the row scan
        expr = input_graph("G").select_nodes(condition)
        mono = row_planner(graph).execute(expr)
        got = columnar_planner(graph).execute(expr)
        assert uses_columnar(got.plan) and got.degraded_ops == 0
        assert got.result.same_as(mono.result)
        assert [n.id for n in got.result.nodes()] == \
            [n.id for n in mono.result.nodes()]


# ---------------------------------------------------------------------------
# End-to-end differential parity: columnar vs row-at-a-time ranking
# ---------------------------------------------------------------------------


@st.composite
def site_queries(draw):
    graph = factories.social_site_graph(
        num_users=draw(st.integers(min_value=1, max_value=6)),
        num_items=draw(st.integers(min_value=1, max_value=9)),
        friends_per_user=draw(st.integers(min_value=0, max_value=3)),
        acts_per_user=draw(st.integers(min_value=0, max_value=4)),
        with_sim_links=draw(st.booleans()),
    )
    user = f"u{draw(st.integers(min_value=0, max_value=5))}"
    text = " ".join(draw(st.lists(st.sampled_from(VOCAB), max_size=2)))
    strategy = draw(st.sampled_from(["friends", "similar_users",
                                     "item_based"]))
    return graph, user, text, strategy


class TestColumnarRankingParity:
    """row executor vs columnar executor — one ranking."""

    @settings(max_examples=25, deadline=None)
    @given(site_queries())
    def test_every_shard_count_ranks_identically(self, workload):
        graph, user, text, strategy = workload
        reference_discoverer = InformationDiscoverer(graph)
        reference_discoverer.planner.cost_model = ROW_MODEL
        reference = reference_discoverer.rank(
            parse_query(user, text), strategy=strategy
        )
        discoverer = InformationDiscoverer(graph)
        discoverer.planner.cost_model = CostModel(columnar_scan_min_nodes=0.0)
        got = discoverer.rank(parse_query(user, text), strategy=strategy)
        assert [s.item_id for s in got.items] == [
            s.item_id for s in reference.items
        ]
        for a, b in zip(got.items, reference.items):
            assert a.combined == pytest.approx(b.combined, abs=TOL)
            assert a.semantic == pytest.approx(b.semantic, abs=TOL)
            assert a.social == pytest.approx(b.social, abs=TOL)
        assert got.social.scores == pytest.approx(
            reference.social.scores, abs=TOL
        )

    @settings(max_examples=15, deadline=None)
    @given(site_queries(), st.integers(min_value=1, max_value=4))
    def test_topk_pushdown_is_a_prefix_of_the_full_ranking(self, workload,
                                                           k):
        graph, user, text, strategy = workload
        discoverer = InformationDiscoverer(graph)
        full = discoverer.rank(parse_query(user, text), strategy=strategy)
        bounded = discoverer.rank(parse_query(user, text), strategy=strategy,
                                  limit=k)
        assert bounded.items == full.items[:k]
        # provenance still covers every surviving item, not just the top k
        assert bounded.social.scores == full.social.scores


# ---------------------------------------------------------------------------
# Writes reach the columnar views through the Data Manager
# ---------------------------------------------------------------------------


class TestColumnarInvalidation:
    """A served graph refuses in-place writes; the same write through the
    Data Manager reaches the columnar views.

    The regression this guards: attribute columns and postings are cut
    per generation, and a stale column would keep serving the pre-write
    value forever.  Only a refresh moves the generation, so the one way
    to write must be one that refreshes: the planner's live graph is
    frozen, and the write goes through the manager.
    """

    def test_in_place_attribute_write_invalidates_columns(self):
        manager, graph = factories.served(
            factories.social_site_graph(num_items=6)
        )
        planner = columnar_planner(graph)
        expr = input_graph("G").select_nodes({"type": "item",
                                              "name": "item 1"})
        # an explicit env bypasses the memo: exercises the views directly
        before = planner.execute(expr, env={"G": graph})
        assert [n.id for n in before.result.nodes()] == ["i1"]
        renamed = graph.node("i1").with_attrs(name="renamed")
        with pytest.raises(FrozenGraphError):
            graph.replace_node(renamed)
        live = factories.write_through(
            manager, planner, lambda dm: dm.add_node(renamed)
        )
        assert planner.execute(expr, env={"G": live}).result.is_empty()
        renamed_scan = planner.execute(
            input_graph("G").select_nodes({"name": "renamed"}),
            env={"G": live},
        )
        assert [n.id for n in renamed_scan.result.nodes()] == ["i1"]

    def test_in_place_writes_invalidate_attr_postings(self):
        # a ``name`` equality is served by the columnar scan, whose
        # attribute columns are cut per generation
        manager, graph = factories.served(
            factories.social_site_graph(num_items=6)
        )
        planner = columnar_planner(graph)
        expr = input_graph("G").select_nodes({"type": "item",
                                              "name": "fresh"})
        assert planner.execute(expr, env={"G": graph}).result.is_empty()
        item = Node("i-live", type="item", name="fresh")
        with pytest.raises(FrozenGraphError):
            graph.add_node(item)
        live = factories.write_through(
            manager, planner, lambda dm: dm.add_node(item)
        )
        after = planner.execute(expr, env={"G": live})
        assert uses_columnar(after.plan) and after.degraded_ops == 0
        assert [n.id for n in after.result.nodes()] == ["i-live"]

    def test_in_place_link_writes_invalidate_link_buckets(self):
        manager, graph = factories.served(
            factories.social_site_graph(num_users=4, num_items=4)
        )
        planner = columnar_planner(graph)
        expr = input_graph("G").select_links({"type": "sim_item"})
        before = planner.execute(expr, env={"G": graph})
        link = Link("s-live", "i3", "i0", type="sim_item", sim=0.9)
        with pytest.raises(FrozenGraphError):
            graph.add_link(link)
        # a links-only step: the views keep their node side and re-cut
        # the link side
        live = factories.write_through(
            manager, planner, lambda dm: dm.add_link(link)
        )
        after = planner.execute(expr, env={"G": live})
        assert after.result.has_link("s-live")
        assert after.result.num_links == before.result.num_links + 1


# ---------------------------------------------------------------------------
# Attribute equalities ride the columnar scan
# ---------------------------------------------------------------------------


def attr_graph(num_items: int = 400) -> SocialContentGraph:
    """Items where ``category="rare"`` is selective (2 of 400)."""
    g = SocialContentGraph()
    for i in range(num_items):
        g.add_node(Node(i, type="item", name=f"spot {i}",
                        category="rare" if i % 200 == 0 else "common"))
    return g


def lowered_scans(plan) -> list:
    return [op for op in plan._walk(plan.root, set())
            if isinstance(op, (ScanOp, ColumnarScanOp))]


class TestAttrIndexPath:
    """There is one access path for an attribute equality, whatever the
    value's selectivity and whatever the store indexes: the columnar scan
    above the population threshold, the row scan below it.  (The class
    keeps its name for its ids; an attribute-posting path once served
    selective values of the store's registered attributes.)"""

    def test_selective_values_lower_to_postings(self):
        planner = columnar_planner(attr_graph())
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"type": "item",
                                           "category": "rare"})
        )
        (op,) = lowered_scans(plan)
        assert isinstance(op, ColumnarScanOp) and op.prune_type == "item"
        (decision,) = plan.decisions
        assert decision.chosen == COLUMNAR
        assert "columnar view" in decision.reason

    def test_common_values_stay_on_the_columnar_scan(self):
        planner = columnar_planner(attr_graph())
        plans = [
            planner.compile(input_graph("G").select_nodes(
                {"type": "item", "category": value}
            ))[0]
            for value in ("common", "rare", "absent")
        ]
        assert [type(op) for plan in plans
                for op in lowered_scans(plan)] == [ColumnarScanOp] * 3

    def test_posting_path_matches_the_scan_exactly(self):
        graph = attr_graph()
        expr = input_graph("G").select_nodes(
            Condition({"type": "item", "category": "rare"},
                      keywords="spot")
        )
        columnar = columnar_planner(graph).execute(expr)
        assert uses_columnar(columnar.plan)
        rows = row_planner(graph).execute(expr)
        assert not uses_columnar(rows.plan)
        assert columnar.result.same_as(rows.result)
        assert {n.id for n in columnar.result.nodes()} == {0, 200}

    def test_unregistered_attributes_never_take_the_path(self):
        # registering an attribute with the store changes no plan
        site = attr_graph(600)
        site.add_node(Node("u", type="user", name="u"))
        request = SearchRequest(
            user_id="u", structural={"type": "item", "category": "rare"},
            explain=True,
        )
        rows = []
        for indexed in ((), ("category", "name")):
            manager = DataManager(indexed_attributes=indexed)
            manager.load_graph(site)
            response = Session(manager).run(request)
            assert "[columnar:item]" in response.plan.text
            rows.append([
                (p.op, p.estimated, p.actual)
                for p in response.plan.operators
            ])
        assert rows[0] == rows[1]

    def test_missing_provider_degrades_to_scan(self):
        from repro.plan import compile_plan

        graph = attr_graph()
        plan = compile_plan(
            input_graph("G").select_nodes({"type": "item",
                                           "category": "rare"}),
            GraphStats.of(graph),
            cost_model=CostModel(columnar_scan_min_nodes=0.0),
        )
        assert uses_columnar(plan)
        execution = plan.execute({"G": graph})  # no view provider
        assert execution.degraded_ops == 1
        assert {n.id for n in execution.result.nodes()} == {0, 200}
        # EXPLAIN names the fallback the scan took
        scan, _input = execution.profiles
        assert scan.op.endswith("[columnar:item] (degraded→row scan)")

    def test_faulting_postings_fail_like_a_scan_fault(
        self, monkeypatch
    ):
        """A fault reading an attribute column is not degraded around: it
        reaches the caller (a typed ``RequestFailure`` through the
        gateway), and the next healthy execution scans the columns again
        at once."""
        graph = attr_graph()
        planner = columnar_planner(graph)
        expr = input_graph("G").select_nodes(
            {"type": "item", "category": "rare"}
        )
        env = {"G": graph}  # bypass the sub-plan memo: every run executes
        healthy = planner.execute(expr, env=env)

        site = attr_graph(600)
        site.add_node(Node("u", type="user", name="u"))
        manager = DataManager(indexed_attributes=("category",))
        manager.load_graph(site)
        session = Session(manager)
        column_request = SearchRequest(
            user_id="u", structural={"type": "item", "category": "rare"}
        )
        # served from the semantic index: no attribute column is read
        other_request = SearchRequest(user_id="u", text="spot",
                                      use_index=True)

        def corrupt(view, att):
            raise RuntimeError("column corrupt")

        async def serve(*requests):
            async with ServeGateway(session) as gateway:
                return [await gateway.submit("t", r) for r in requests]

        monkeypatch.setattr(ColumnarView, "column", corrupt)
        with pytest.raises(RuntimeError, match="column corrupt"):
            planner.execute(expr, env=env)
        failed, served = asyncio.run(serve(column_request, other_request))
        assert isinstance(failed, RequestFailure)
        assert failed.kind == "RuntimeError"
        assert "column corrupt" in failed.message
        assert isinstance(served, SearchResponse)

        monkeypatch.undo()
        recovered = planner.execute(expr, env=env)
        assert recovered.degraded_ops == 0
        assert uses_columnar(recovered.plan)
        assert recovered.result.same_as(healthy.result)
        (answered,) = asyncio.run(serve(column_request))
        assert isinstance(answered, SearchResponse)

    def test_observed_actuals_feed_the_attr_correction(self):
        # executing an equality leaves its estimate where the statistics
        # put it: the type share times the default predicate selectivity
        planner = columnar_planner(attr_graph())
        expr = input_graph("G").select_nodes(
            {"type": "item", "category": "rare"}
        )
        plan, _ = planner.compile(expr)
        estimate = plan.root.estimate(planner.stats).nodes
        assert estimate == pytest.approx(400 * 0.5)
        assert planner.execute(expr).result.num_nodes == 2
        planner.cache.clear()
        plan, _ = planner.compile(expr)
        assert plan.root.estimate(planner.stats).nodes == estimate

    def test_attr_correction_observes_postings_not_residual_output(self):
        # conjuncts multiply in under independence, unchanged by any
        # number of executions and refreshes
        planner = columnar_planner(attr_graph())
        expr = input_graph("G").select_nodes(
            {"type": "item", "category": "rare", "name": "spot 0"}
        )
        estimates = []
        for _ in range(4):
            execution = planner.execute(expr)
            assert execution.result.num_nodes == 1
            estimates.append(
                execution.plan.root.estimate(planner.stats).nodes
            )
            planner.refresh(planner.graph)  # recompile
        assert estimates == [pytest.approx(400 * 0.5 * 0.5)] * 4

    def test_session_mirrors_the_stores_registered_attributes(self):
        # the store keeps its attribute indexes (management-layer API);
        # the session's planner answers the same equality by scanning
        dm = DataManager(indexed_attributes=("name", "category"))
        dm.load_graph(factories.social_site_graph())
        assert dm.store.indexed_attributes == ("category", "name")
        assert {n.id for n in dm.store.find_nodes("name", "item 1")} == \
            {"i1"}
        planner = Session(dm).planner
        planner.cost_model = CostModel(columnar_scan_min_nodes=0.0)
        execution = planner.execute(
            input_graph("G").select_nodes({"name": "item 1"})
        )
        assert uses_columnar(execution.plan)
        assert [n.id for n in execution.result.nodes()] == ["i1"]


# ---------------------------------------------------------------------------
# Columnar link scans (the class keeps the name its ids were minted under)
# ---------------------------------------------------------------------------


class TestShardedLinkScan:
    @settings(max_examples=20, deadline=None)
    @given(site_queries())
    def test_link_selection_parity(self, workload):
        graph, _user, _text, _strategy = workload
        for condition in (
            {"type": "act"}, {"type": "connect"},
            Condition({"type": "act"}, keywords="visit"), {"sim__ge": 0.3},
        ):
            expected = select_links(
                graph, condition if isinstance(condition, Condition)
                else Condition(condition)
            )
            planner = columnar_planner(graph)
            got = planner.execute(input_graph("G").select_links(condition))
            assert uses_columnar(got.plan)
            assert got.result.same_as(expected)

    def test_lowering_prunes_to_link_type_buckets(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph)
        plan, _ = planner.compile(
            input_graph("G").select_links({"type": "act"})
        )
        ops = [op for op in plan._walk(plan.root, set())
               if isinstance(op, ColumnarLinkScanOp)]
        assert ops and ops[0].prune_type == "act"
        assert "[columnar-links:act]" in plan.render()

    def test_small_link_populations_stay_unsharded(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph, min_nodes=10_000.0)
        plan, _ = planner.compile(
            input_graph("G").select_links({"type": "act"})
        )
        assert not uses_columnar(plan)

    def test_link_scan_feeds_the_semi_join(self):
        graph = factories.social_site_graph()
        expr = input_graph("G").select_links({"type": "act"}).semi_join(
            input_graph("G").select_nodes({"id": "u0"}), ("src", "src")
        )
        columnar = columnar_planner(graph).execute(expr)
        assert uses_columnar(columnar.plan)
        rows = row_planner(graph).execute(expr)
        assert columnar.result.same_as(rows.result)

    def test_foreign_environment_degrades(self):
        graph = factories.social_site_graph()
        other = factories.social_site_graph(num_items=3)
        planner = columnar_planner(graph)
        expr = input_graph("G").select_links({"type": "act"})
        execution = planner.execute(expr, env={"G": other})
        assert execution.degraded_ops == 1
        assert execution.result.same_as(
            row_planner(other).execute(expr).result
        )


# ---------------------------------------------------------------------------
# σL residual vectorization: parity against the row-wise kernel
# ---------------------------------------------------------------------------


@st.composite
def link_scan_workloads(draw):
    """A random site plus a σL condition mixing every predicate regime."""
    graph = factories.social_site_graph(
        num_users=draw(st.integers(min_value=1, max_value=6)),
        num_items=draw(st.integers(min_value=1, max_value=9)),
        friends_per_user=draw(st.integers(min_value=0, max_value=3)),
        acts_per_user=draw(st.integers(min_value=0, max_value=4)),
        with_sim_links=draw(st.booleans()),
    )
    structural = {}
    if draw(st.booleans()):
        structural["type"] = draw(
            st.sampled_from(["act", "friend", "sim_item", "nosuch"])
        )
    if draw(st.booleans()):
        # columnar comparison over the (often absent) sim attribute
        structural["sim__ge"] = draw(
            st.floats(min_value=0.0, max_value=0.6, allow_nan=False)
        )
    predicates = []
    if draw(st.booleans()):
        # an Or never vectorizes: forces the residual row-test path
        predicates.append(Or(AttrCompare("sim", ">", 0.3), HasAttr("ts")))
    return graph, Condition(structural, predicates=predicates)


class TestLinkResidualVectorization:
    @settings(max_examples=40, deadline=None)
    @given(link_scan_workloads())
    def test_select_links_matches_row_wise_matches(self, workload):
        graph, cond = workload
        view = cut_columnar_view(graph)
        expected = select_matching_links(list(view.links), cond)
        got = VectorCondition(cond).select_links(view)
        assert [l.id for l in got] == [l.id for l in expected]
        for a, b in zip(got, expected):
            if b.score is not None:
                assert a.score == pytest.approx(b.score, abs=TOL)

    @settings(max_examples=25, deadline=None)
    @given(link_scan_workloads())
    def test_survivor_positions_match_predicate_matches(self, workload):
        graph, cond = workload
        view = cut_columnar_view(graph)
        survivors = VectorCondition(cond).select_links(view)
        expected = [link.id for link in view.links
                    if cond.satisfied_by(link)]
        assert [link.id for link in survivors] == expected


# ---------------------------------------------------------------------------
# Top-k pushdown through the session
# ---------------------------------------------------------------------------


class TestTopKPushdown:
    def test_explicit_k_rides_on_the_execution(self):
        session = Session.from_graph(factories.social_site_graph())
        response = session.run(
            SearchRequest(user_id="u0", text="topic0", k=3, explain=True)
        )
        assert response.plan.topk == 3
        assert "top-k=3" in response.plan.text

    def test_page_windows_without_k_keep_the_full_ranking(self):
        # a page without k ranks up to its window's end, no further, and
        # still reports how many items the full ranking holds
        session = Session.from_graph(factories.social_site_graph(
            num_users=6, num_items=12,
        ))
        request = SearchRequest(user_id="u0", text="thing", page_size=2,
                                explain=True)
        first = session.run(request)
        assert first.plan.topk == 2
        second = session.run(dataclasses.replace(
            request, cursor=first.page_info.next_cursor,
        ))
        assert second.plan.topk == 4  # offset 2 + size 2
        third = session.run(dataclasses.replace(request, page=3))
        assert third.plan.topk == 6
        full = session.run(SearchRequest(user_id="u0", text="thing"))
        assert full.plan is None
        assert first.page_info.total_items == len(full.items) > 6
        assert list(first.items + second.items + third.items) == list(
            full.items[:6]
        )

    def test_bounded_pages_equal_unbounded_pages(self):
        graph = factories.social_site_graph(num_users=7, num_items=9)
        session = Session.from_graph(graph)
        bounded = session.run(SearchRequest(user_id="u0", text="thing", k=4))
        unbounded = session.run(SearchRequest(user_id="u0", text="thing"))
        assert list(bounded.items) == list(unbounded.items)[:4]


# ---------------------------------------------------------------------------
# Memory accounting: the ResultMemo byte budget
# ---------------------------------------------------------------------------


class TestMemoryAccounting:
    def test_result_memo_evicts_past_the_byte_budget(self):
        from repro.plan.cache import estimate_graph_bytes

        small = factories.item_graph(4)
        budget = estimate_graph_bytes(small) * 2 + 1
        memo = ResultMemo(max_entries=100, max_bytes=budget)
        memo["a"] = factories.item_graph(4)
        memo["b"] = factories.item_graph(4)
        assert len(memo) == 2 and memo.evictions == 0
        memo["c"] = factories.item_graph(4)
        assert len(memo) == 2 and memo.evictions == 1
        assert "a" not in memo  # LRU order: the oldest entry died
        assert memo.get("b") is not None and memo.get("c") is not None
        assert memo.bytes <= budget

    def test_result_memo_lru_order_respects_gets(self):
        memo = ResultMemo(max_entries=2, max_bytes=1 << 30)
        memo["a"] = factories.item_graph(2)
        memo["b"] = factories.item_graph(2)
        memo.get("a")  # touch: "b" becomes the eviction victim
        memo["c"] = factories.item_graph(2)
        assert "a" in memo and "c" in memo and "b" not in memo


# ---------------------------------------------------------------------------
# The plan-cache-stats management endpoint
# ---------------------------------------------------------------------------


class TestPlanCacheEndpoint:
    def test_gateway_surfaces_cache_counters(self):
        from repro.serve import ServeGateway

        dm = DataManager()
        dm.load_graph(factories.social_site_graph())
        session = Session(dm)
        bystander = Session(dm)  # same site, its own planner and cache
        bystander.run(SearchRequest(user_id="u1", text="topic1"))
        session.run(SearchRequest(user_id="u0", text="topic0"))
        session.run(SearchRequest(user_id="u0", text="topic0"))
        stats = ServeGateway(session).plan_cache_stats()
        assert stats == {
            "hits": 1, "compiles": 1, "evictions": 0, "size": 1,
            "hit_rate": 0.5,
        }


# ---------------------------------------------------------------------------
# The strategy picker and the social estimates read the live statistics
# ---------------------------------------------------------------------------


class TestSocialFeedback:
    """Served requests never move the social stage's expectations: the
    strategy pick and the stage's estimates come from the connection and
    activity histograms alone.  (The class keeps its name
    for its ids; execution actuals once corrected these numbers.)"""

    def test_basis_actuals_correct_the_expected_basis_size(self):
        # every factory user carries 5 connections, but the querying user
        # is a loner: the served bases are empty, and the expectation
        # stays the histogram mean — so the lowered form stays put
        graph = factories.social_site_graph(num_users=8, num_items=8,
                                            friends_per_user=5)
        graph.add_node(Node("lone", type="user", name="loner"))
        discoverer = InformationDiscoverer(graph)
        planner = discoverer.planner
        raw = planner.stats.expected_basis_size()
        assert raw > 2.0
        forms = set()
        for _ in range(6):
            ranked = discoverer.rank(parse_query("lone", ""),
                                     strategy="friends")
            forms.add(ranked.execution.plan.root.describe())
            planner.refresh(planner.graph)  # force recompiles
        assert planner.stats.expected_basis_size() == raw
        assert len(forms) == 1

    def test_endorsement_actuals_feed_the_reach_correction(self):
        graph = factories.social_site_graph(num_users=5, num_items=6)
        discoverer = InformationDiscoverer(graph)
        stats = discoverer.planner.stats
        reach = stats.expected_basis_size() * stats.avg_act_degree()
        assert stats.expected_endorsements() == pytest.approx(reach)
        discoverer.rank(parse_query("u0", ""), strategy="friends")
        assert discoverer.planner.stats.expected_endorsements() == \
            pytest.approx(reach)

    def test_strategy_decision_reads_corrected_numbers(self):
        graph = factories.social_site_graph(num_users=6, num_items=6)
        planner = InformationDiscoverer(graph).planner
        expected = GraphStats.of(graph).expected_basis_size()
        query = parse_query("u0", "")
        for _ in range(3):
            planner.cache.clear()
            execution = planner.discovery_pipeline(query, strategy="auto",
                                                   alpha=0.0)
            decision = execution.plan.strategy_decision
            assert decision is not None
            assert f"avg connection degree {expected:.1f}" in decision.reason
