"""Sharded scans across both backends: parity, lowering, EXPLAIN.

The acceptance contract of the partitioned executor: every query
produces identical results (1e-9 on scores) across {monolithic, 2-shard,
7-shard} stores × {in-process, process-backend} scans, verified here
with the hypothesis workload factory; plus structural tests for the
lowering rule (threshold, pruning, covering), the runtime degrade path,
per-shard EXPLAIN rows, and the session-level wiring.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import factories
from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Condition, Link, Node, input_graph
from repro.discovery import InformationDiscoverer, parse_query
from repro.errors import QueryError
from repro.plan import (
    PARALLEL_MODES,
    CostModel,
    ProcessShardPool,
    QueryPlanner,
    SHARDED,
    ShardedScanOp,
)

TOL = 1e-9

VOCAB = ("topic0", "topic1", "thing", "offkey")


def sharded_planner(graph, shards, parallelism="never",
                    min_nodes=0.0) -> QueryPlanner:
    planner = QueryPlanner(
        graph,
        cost_model=CostModel(shard_scan_min_nodes=min_nodes),
        parallelism=parallelism,
    )
    if shards > 1:
        planner.attach_shards(shards)
    return planner


@pytest.fixture(scope="module")
def shared_workers():
    """One worker set for the whole matrix (a spawn per example is ~0.5 s)."""
    pool = ProcessShardPool(num_workers=2)
    yield pool
    pool.shutdown()


def set_mode(planner: QueryPlanner, mode: str, pool: ProcessShardPool) -> None:
    """Pin *mode*; under ``"processes"`` serve from the shared *pool*.

    Slab residency is keyed by the owning planner's (generation, epoch)
    token, which two planners can share — a borrowed pool must forget
    what the previous borrower shipped.
    """
    planner.parallelism = mode
    if mode == "processes":
        pool._version = None
        planner._process_pool = pool


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


class TestDifferentialParity:
    """{monolithic, 2, 7 shards} × {never, processes} — one ranking."""

    @settings(max_examples=25, deadline=None)
    @given(site_queries())
    def test_every_configuration_ranks_identically(self, shared_workers,
                                                   workload):
        graph, user, text, strategy = workload
        reference = InformationDiscoverer(graph).rank(
            parse_query(user, text), strategy=strategy
        )
        for shards in (1, 2, 7):
            for mode in ("never", "processes"):
                discoverer = InformationDiscoverer(graph)
                discoverer.planner.cost_model = CostModel(
                    shard_scan_min_nodes=0.0
                )
                if shards > 1:
                    discoverer.planner.attach_shards(shards)
                set_mode(discoverer.planner, mode, shared_workers)
                got = discoverer.rank(parse_query(user, text),
                                      strategy=strategy)
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
        assert not shared_workers.broken  # never silently degraded

    @settings(max_examples=15, deadline=None)
    @given(site_queries(), st.sampled_from([2, 7]))
    def test_raw_sharded_scan_matches_monolithic(self, shared_workers,
                                                 workload, shards):
        graph, _user, text, _strategy = workload
        # a covered scan (never ships) and a keyword scan (ships whole)
        for condition in ({"type": "item"},
                          Condition({"type": "item"}, keywords=text)):
            expr = input_graph("G").select_nodes(condition)
            mono = QueryPlanner(graph).execute(expr)
            for mode in ("never", "processes"):
                planner = sharded_planner(graph, shards)
                set_mode(planner, mode, shared_workers)
                execution = planner.execute(expr)
                assert execution.result.same_as(mono.result)
        assert not shared_workers.broken


class TestLowering:
    def test_small_scans_stay_unsharded(self):
        graph = factories.social_site_graph()
        planner = sharded_planner(graph, 4, min_nodes=10_000.0)
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"type": "item"})
        )
        assert not plan.uses_sharded_scan

    def test_large_scans_shard_and_record_the_decision(self):
        graph = factories.social_site_graph()
        planner = sharded_planner(graph, 4)
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"type": "item"})
        )
        assert plan.uses_sharded_scan
        (decision,) = [d for d in plan.decisions if d.chosen == SHARDED]
        assert "4 partitions" in decision.reason
        assert "covered by type 'item'" in decision.reason

    def test_type_pinned_keyword_scan_prunes_but_is_not_covered(self):
        graph = factories.social_site_graph()
        planner = sharded_planner(graph, 3)
        plan, _ = planner.compile(input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        ))
        ops = [op for op in plan._walk(plan.root, set())
               if isinstance(op, ShardedScanOp)]
        assert ops and ops[0].prune_type == "item"
        assert not ops[0].covered

    def test_unpinned_conditions_scan_whole_shards(self):
        graph = factories.social_site_graph()
        planner = sharded_planner(graph, 3)
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"name": "item 1"})
        )
        ops = [op for op in plan._walk(plan.root, set())
               if isinstance(op, ShardedScanOp)]
        assert ops and ops[0].prune_type is None
        execution = planner.execute(
            input_graph("G").select_nodes({"name": "item 1"})
        )
        assert [n.id for n in execution.result.nodes()] == ["i1"]

    def test_derived_input_scans_never_shard(self):
        graph = factories.social_site_graph()
        planner = sharded_planner(graph, 4)
        derived = input_graph("G").select_nodes({"type": "item"}) \
            .select_nodes({"type": "item"})
        plan, _ = planner.compile(derived)
        sharded = [op for op in plan._walk(plan.root, set())
                   if isinstance(op, ShardedScanOp)]
        # only the base-graph selection scatters; the derived one scans
        assert len(sharded) == 1
        assert sharded[0].logical.child.op == "input"


class TestInPlaceWriteInvalidation:
    """Derived planner caches must die on in-place graph mutations.

    The plan cache validates against the graph's mutation epoch; the
    planner-local result-bearing caches (sub-plan memo, shard views)
    must use the same clock, or a recompiled plan silently serves
    pre-write records.
    """

    def test_subplan_memo_sees_in_place_writes(self):
        graph = factories.social_site_graph(num_items=5)
        planner = QueryPlanner(graph)
        expr = input_graph("G").select_nodes({"type": "item"})
        before = planner.execute(expr)
        assert before.result.num_nodes == 5
        graph.add_node(Node("i-live", type="item", name="in-place"))
        after = planner.execute(expr)
        assert after.result.has_node("i-live")
        assert after.result.num_nodes == 6

    def test_shard_views_see_in_place_writes(self):
        graph = factories.social_site_graph(num_items=5)
        planner = sharded_planner(graph, 3)
        expr = input_graph("G").select_nodes({"type": "item"})
        env = {"G": graph}  # memo bypassed: exercises the views directly
        before = planner.execute(expr, env=env)
        assert before.result.num_nodes == 5
        graph.add_node(Node("i-live", type="item", name="in-place"))
        after = planner.execute(expr, env=env)
        assert after.result.has_node("i-live")
        graph.remove_node("i-live")
        assert not planner.execute(expr, env=env).result.has_node("i-live")

    def test_network_index_sees_in_place_writes(self):
        graph = factories.social_site_graph(num_users=4, num_items=4,
                                            with_sim_links=False)
        planner = QueryPlanner(graph)
        from repro.discovery import parse_query

        query = parse_query("u0", "")
        before = planner.discovery_pipeline(query, alpha=0.0, access="index")
        assert not before.result.has_node("i-live")
        graph.add_node(Node("i-live", type="item", name="in-place"))
        graph.add_link(Link("a-live", "u1", "i-live", type="act, visit"))
        after = planner.discovery_pipeline(query, alpha=0.0, access="index")
        assert after.result.has_node("i-live")  # u0 follows u1


class TestRuntimeDegrade:
    def test_foreign_environment_degrades_to_full_scan(self):
        graph = factories.social_site_graph()
        other = factories.social_site_graph(num_items=3)
        planner = sharded_planner(graph, 4)
        expr = input_graph("G").select_nodes({"type": "item"})
        plan, _ = planner.compile(expr)
        assert plan.uses_sharded_scan
        execution = planner.execute(expr, env={"G": other})
        # provider refuses to shard a graph it did not partition
        assert execution.degraded_ops == 1
        assert execution.result.same_as(
            QueryPlanner(other).execute(expr).result
        )

    def test_bare_plan_without_provider_still_runs(self):
        from repro.plan import compile_plan
        from repro.core.stats import GraphStats

        graph = factories.social_site_graph()
        plan = compile_plan(
            input_graph("G").select_nodes({"type": "item"}),
            GraphStats.of(graph),
            cost_model=CostModel(shard_scan_min_nodes=0.0),
            shards=4,
        )
        assert plan.uses_sharded_scan
        execution = plan.execute({"G": graph})
        assert execution.degraded_ops == 1
        assert {n.id for n in execution.result.nodes()} == {
            n.id for n in graph.nodes_of_type("item")
        }


class TestExplainAndProfiles:
    def test_per_shard_rows_with_sequential_executor(self):
        graph = factories.social_site_graph()
        planner = sharded_planner(graph, 3)
        execution = planner.execute(
            input_graph("G").select_nodes({"type": "item"})
        )
        shard_rows = [p for p in execution.profiles if p.shard is not None]
        assert [p.shard for p in shard_rows] == [0, 1, 2]
        assert sum(p.actual.nodes for p in shard_rows) == \
            execution.result.num_nodes
        assert execution.executor == "sequential"
        assert "[sharded×3:item*]" in execution.render()


    def test_execution_errors_propagate(self):
        from repro.errors import ExpressionError

        graph = factories.social_site_graph()
        for mode in ("never", "processes"):
            planner = sharded_planner(graph, 2, parallelism=mode)
            with pytest.raises(ExpressionError):
                planner.execute(input_graph("MISSING").select_nodes({}))
        # the scan would have shipped, so the raising run was retried
        # in-process; a query that fails there too is no backend fault
        assert planner.process_pool.breaker.stats().failures == 0
        assert not planner.process_pool.worker_pids

    def test_process_repeats_hit_the_subplan_memo(self,
                                                         shared_workers):
        # The generation memo is consulted before the scatter — otherwise
        # a hot query would re-ship its program to every worker on every
        # repeat.
        graph = factories.social_site_graph(num_users=7, num_items=9)
        planner = sharded_planner(graph, 3)
        set_mode(planner, "processes", shared_workers)
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        )
        first = planner.execute(expr)
        assert first.process_served
        scans = shared_workers.scans_run
        second = planner.execute(expr)
        assert second.result.same_as(first.result)
        assert not any(p.shard is not None for p in second.profiles)
        assert "(memo)" in second.render()
        assert shared_workers.scans_run == scans
        assert not second.process_served


class TestSessionWiring:
    def test_config_shards_back_the_store_and_the_planner(self):
        session = Session.from_graph(
            factories.social_site_graph(),
            SessionConfig(shards=3),
        )
        assert session.data_manager.num_shards == 3
        assert session.planner.shards == 3

    def test_sharded_parallel_session_serves_identical_pages(self):
        graph = factories.social_site_graph(num_users=7, num_items=9)
        plain = Session.from_graph(graph)
        with Session.from_graph(
            graph, SessionConfig(shards=5, parallelism="processes"),
        ) as fancy:
            fancy.planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
            for request in (
                SearchRequest(user_id="u0", text="topic0"),
                SearchRequest(user_id="u1"),
                SearchRequest(user_id="u2", text="thing",
                              strategy="item_based"),
            ):
                # scan path: the index path never scatters a scan
                request = request.replace(use_index=False)
                assert fancy.run(request).items == plain.run(request).items
            # counted from the shards workers served, not the label: the
            # empty-text request's covered scan never leaves the process
            assert fancy.stats.process_queries == 2
            assert not hasattr(fancy.stats, "parallel_queries")
            response = fancy.run(SearchRequest(
                user_id="u3", text="topic1", use_index=False, explain=True,
            ))
            assert response.plan.executor.startswith("processes(")
            assert response.plan.sharded

    def test_parallelism_is_validated_in_one_place(self):
        assert PARALLEL_MODES == ("auto", "never", "processes")
        graph = factories.social_site_graph()
        for retired in ("force", "threads", "pooled"):
            with pytest.raises(QueryError, match="unknown parallelism"):
                QueryPlanner(graph, parallelism=retired)
            with pytest.raises(QueryError, match="unknown parallelism"):
                Session.from_graph(graph, SessionConfig(parallelism=retired))
        session = Session.from_graph(graph)
        with pytest.raises(QueryError, match="unknown parallelism"):
            session.set_parallelism("force")
        session.set_parallelism("never")
        assert session.planner.parallelism == "never"

    def test_failing_in_process_scan_is_a_typed_failure_not_a_retry(self):
        """No rung below the in-process path: the error reaches the caller."""
        from repro.api import RequestFailure
        from repro.testing import armed_faults, raising

        session = Session.from_graph(
            factories.social_site_graph(), SessionConfig(shards=3),
        )
        session.planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
        request = SearchRequest(user_id="u0", text="topic0", use_index=False)
        with armed_faults({"physical.scan_shard": raising(
            lambda: RuntimeError("shard scan blew up"), times=1
        )}):
            (failed,) = session.run_many([request], isolate_errors=True)
        assert isinstance(failed, RequestFailure)
        assert failed.kind == "RuntimeError"
        (served,) = session.run_many([request], isolate_errors=True)
        assert served.items == Session.from_graph(
            factories.social_site_graph()
        ).run(request).items

    def test_writes_invalidate_shard_views(self):
        session = Session.from_graph(
            factories.social_site_graph(),
            SessionConfig(shards=3),
        )
        session.planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
        before = session.run(SearchRequest(user_id="u0"))
        session.data_manager.add_node(Node(
            "i-new", type="item", name="fresh", keywords="topic0 thing",
        ))
        session.data_manager.add_link(
            Link("a-new", "u1", "i-new", type="act, visit")
        )
        after = session.run(SearchRequest(user_id="u0"))
        assert "i-new" in after.items
        assert before.items != after.items

