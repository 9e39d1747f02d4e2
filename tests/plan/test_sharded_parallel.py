"""Columnar scans over one view: parity, lowering, EXPLAIN, wiring.

The store is one partition and the planner holds one columnar view of
its live graph.  Every query answers identically (1e-9 on scores) on the
row-at-a-time scan and on the columnar scan, verified here with the
hypothesis workload factory; plus structural tests for the lowering rule
(threshold, pruning, covering), the runtime degrade path, the one EXPLAIN
row a columnar scan has, the endorsement merge over columnar candidates,
and the session-level wiring — where ``SessionConfig.shards`` is accepted,
validated and changes nothing.

(The module and its test ids are named for the hash-sharded store this
suite once covered; each test now pins the one-partition behaviour that
replaced it.)
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import factories
from benchmarks.e2e.harness import canonical_response, first_difference
from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Condition, Link, Node, input_graph
from repro.discovery import InformationDiscoverer, parse_query
from repro.errors import FrozenGraphError, QueryError
from repro.management import GraphStore
from repro.plan import (
    COLUMNAR,
    ColumnarScanOp,
    CostModel,
    QueryPlanner,
    ScanOp,
)
from repro.testing import armed_faults

TOL = 1e-9

VOCAB = ("topic0", "topic1", "thing", "offkey")

#: Thresholds no population reaches: every base scan stays on the rows.
ROW_MODEL = CostModel(columnar_scan_min_nodes=math.inf,
                      columnar_scan_min_links=math.inf)
#: Thresholds every population reaches: every base scan runs columnar.
COLUMNAR_MODEL = CostModel(columnar_scan_min_nodes=0.0)


#: σN conditions exercising cover, prune, postings and residual regimes.
NODE_CONDITIONS = (
    Condition({"type": "item"}),
    Condition({"type": "item"}, keywords="topic0"),
    Condition({"type": "user"}),
    Condition({"name": "item 1"}),
    Condition({"type": "item"}, keywords="topic1 thing"),
)


def columnar_planner(graph, min_nodes=0.0) -> QueryPlanner:
    return QueryPlanner(
        graph, cost_model=CostModel(columnar_scan_min_nodes=min_nodes),
    )


def row_planner(graph) -> QueryPlanner:
    return QueryPlanner(graph, cost_model=ROW_MODEL)


def columnar_ops(plan) -> list:
    return [op for op in plan._walk(plan.root, set())
            if isinstance(op, ColumnarScanOp)]


def scan_counter() -> tuple[list, dict]:
    """A ``physical.scan`` handler that counts columnar scans."""
    fired: list = []
    return fired, {"physical.scan": lambda name, **info: fired.append(name)}


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
    """{row scan, columnar scan, a ``shards=2`` session} — one ranking."""

    @settings(max_examples=25, deadline=None)
    @given(site_queries())
    def test_every_configuration_ranks_identically(self, workload):
        graph, user, text, strategy = workload
        rows = InformationDiscoverer(graph)
        rows.planner.cost_model = ROW_MODEL
        reference = rows.rank(parse_query(user, text), strategy=strategy)
        columnar = InformationDiscoverer(graph)
        columnar.planner.cost_model = COLUMNAR_MODEL
        configured = Session.from_graph(graph, SessionConfig(shards=2))
        configured.planner.cost_model = COLUMNAR_MODEL
        for discoverer in (columnar, configured.discoverer):
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

    @settings(max_examples=15, deadline=None)
    @given(site_queries())
    def test_raw_sharded_scan_matches_monolithic(self, workload):
        graph, _user, text, _strategy = workload
        # a covered scan (the bucket is the answer) and a keyword scan
        for condition in ({"type": "item"},
                          Condition({"type": "item"}, keywords=text)):
            expr = input_graph("G").select_nodes(condition)
            rows = row_planner(graph).execute(expr)
            execution = columnar_planner(graph).execute(expr)
            assert columnar_ops(execution.plan)
            assert execution.result.same_as(rows.result)

    def test_scan_matrix_matches_monolithic(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        exprs = [input_graph("G").select_nodes(c) for c in NODE_CONDITIONS]
        rows = row_planner(graph)
        reference = [rows.execute(e).result for e in exprs]
        planner = columnar_planner(graph)
        for expr, ref in zip(exprs, reference):
            execution = planner.execute(expr)
            assert columnar_ops(execution.plan), expr
            assert execution.result.same_as(ref), expr


class TestLowering:
    def test_small_scans_stay_unsharded(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph, min_nodes=10_000.0)
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"type": "item"})
        )
        assert not columnar_ops(plan)
        assert not [d for d in plan.decisions if d.chosen == COLUMNAR]

    def test_large_scans_shard_and_record_the_decision(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph)
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"type": "item"})
        )
        assert columnar_ops(plan)
        (decision,) = [d for d in plan.decisions if d.chosen == COLUMNAR]
        assert "over the columnar view" in decision.reason
        assert "covered by type 'item'" in decision.reason

    def test_type_pinned_keyword_scan_prunes_but_is_not_covered(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph)
        plan, _ = planner.compile(input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        ))
        ops = columnar_ops(plan)
        assert ops and ops[0].prune_type == "item"
        assert not ops[0].covered

    def test_unpinned_conditions_scan_whole_shards(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph)
        plan, _ = planner.compile(
            input_graph("G").select_nodes({"name": "item 1"})
        )
        ops = columnar_ops(plan)
        assert ops and ops[0].prune_type is None
        execution = planner.execute(
            input_graph("G").select_nodes({"name": "item 1"})
        )
        assert [n.id for n in execution.result.nodes()] == ["i1"]

    def test_derived_input_scans_never_shard(self):
        graph = factories.social_site_graph()
        planner = columnar_planner(graph)
        derived = input_graph("G").select_nodes({"type": "item"}) \
            .select_nodes({"type": "item"})
        plan, _ = planner.compile(derived)
        columnar = columnar_ops(plan)
        # only the base-graph selection scans columnar; the derived one
        # scans the rows it was handed
        assert len(columnar) == 1
        assert columnar[0].logical.child.op == "input"


class TestInPlaceWriteInvalidation:
    """Derived planner caches never serve a pre-write graph.

    The planner's live graph is frozen, so an in-place write is refused;
    the same write through the Data Manager refreshes the planner, and
    the result-bearing caches (sub-plan memo, the columnar view, the
    social probe's inputs) must follow it, or a cached plan silently
    serves pre-write records.
    """

    def test_subplan_memo_sees_in_place_writes(self):
        manager, graph = factories.served(
            factories.social_site_graph(num_items=5)
        )
        planner = columnar_planner(graph)
        expr = input_graph("G").select_nodes({"type": "item"})
        before = planner.execute(expr)
        assert before.result.num_nodes == 5
        # same generation: the repeat is served from the memo, no scan
        fired, counting = scan_counter()
        with armed_faults(counting):
            repeat = planner.execute(expr)
        assert "(memo)" in repeat.render()
        assert fired == []
        item = Node("i-live", type="item", name="in-place")
        with pytest.raises(FrozenGraphError):
            graph.add_node(item)
        factories.write_through(manager, planner, lambda dm: dm.add_node(item))
        with armed_faults(counting):
            after = planner.execute(expr)
        assert fired == ["physical.scan"]
        assert "(memo)" not in after.render()
        assert after.result.has_node("i-live")
        assert after.result.num_nodes == 6

    def test_shard_views_see_in_place_writes(self):
        # a covered scan reads the type buckets, a keyword scan the term
        # postings: both are cut with the view and must follow every write
        for condition in (Condition({"type": "item"}),
                          Condition({"type": "item"}, keywords="thing")):
            manager, graph = factories.served(
                factories.social_site_graph(num_items=5)
            )
            planner = columnar_planner(graph)
            expr = input_graph("G").select_nodes(condition)
            # an explicit env bypasses the memo: exercises the view
            before = planner.execute(expr, env={"G": graph})
            assert before.result.num_nodes == 5
            item = Node("i-live", type="item", name="in-place",
                        keywords="topic0 thing")
            with pytest.raises(FrozenGraphError):
                graph.add_node(item)
            live = factories.write_through(
                manager, planner, lambda dm: dm.add_node(item)
            )
            after = planner.execute(expr, env={"G": live})
            assert after.degraded_ops == 0
            assert after.result.has_node("i-live")
            assert after.result.num_nodes == 6
            with pytest.raises(FrozenGraphError):
                live.remove_node("i-live")
            live = factories.write_through(
                manager, planner, lambda dm: dm.delete_node("i-live")
            )
            assert not planner.execute(expr, env={"G": live}).result.has_node(
                "i-live"
            )

    def test_network_index_sees_in_place_writes(self):
        manager, graph = factories.served(factories.social_site_graph(
            num_users=4, num_items=4, with_sim_links=False,
        ))
        planner = QueryPlanner(graph)
        query = parse_query("u0", "")
        # use_index reaches only the keyword stage: the social half is
        # the probe, and it must read the graph the write produced
        before = planner.discovery_pipeline(query, alpha=0.0, access="index")
        assert before.plan.root.form == "probe"
        assert "i-live" not in before.payload.scores
        item = Node("i-live", type="item", name="in-place")
        act = Link("a-live", "u1", "i-live", type="act, visit")
        with pytest.raises(FrozenGraphError):
            graph.add_node(item)

        def write(dm):
            dm.add_node(item)
            dm.add_link(act)

        live = factories.write_through(manager, planner, write)
        after = planner.discovery_pipeline(query, alpha=0.0, access="index")
        assert after.degraded_ops == 0
        assert "i-live" in after.payload.scores  # u0 follows u1
        assert "i-live" in [row[0] for row in after.payload.items]
        fresh = QueryPlanner(live.copy()).discovery_pipeline(
            query, alpha=0.0, access="index"
        )
        assert after.payload == fresh.payload


class TestRuntimeDegrade:
    def test_foreign_environment_degrades_to_full_scan(self):
        graph = factories.social_site_graph()
        other = factories.social_site_graph(num_items=3)
        planner = columnar_planner(graph)
        expr = input_graph("G").select_nodes({"type": "item"})
        plan, _ = planner.compile(expr)
        assert columnar_ops(plan)
        execution = planner.execute(expr, env={"G": other})
        # the provider refuses a graph it did not cut its view from
        assert execution.degraded_ops == 1
        assert execution.result.same_as(
            row_planner(other).execute(expr).result
        )

    def test_bare_plan_without_provider_still_runs(self):
        from repro.plan import compile_plan
        from repro.core.stats import GraphStats

        graph = factories.social_site_graph()
        plan = compile_plan(
            input_graph("G").select_nodes({"type": "item"}),
            GraphStats.of(graph),
            cost_model=COLUMNAR_MODEL,
        )
        assert columnar_ops(plan)
        execution = plan.execute({"G": graph})
        assert execution.degraded_ops == 1
        assert {n.id for n in execution.result.nodes()} == {
            n.id for n in graph.nodes_of_type("item")
        }


class TestExplainAndProfiles:
    def test_per_shard_rows_with_sequential_executor(self):
        # one EXPLAIN row per operator: a columnar scan has no sub-rows
        graph = factories.social_site_graph()
        planner = columnar_planner(graph)
        execution = planner.execute(
            input_graph("G").select_nodes({"type": "item"})
        )
        ops = list(execution.plan._walk(execution.plan.root, set()))
        assert len(execution.profiles) == len(ops)
        (row,) = [p for p in execution.profiles if p.access_path == COLUMNAR]
        assert row.actual.nodes == execution.result.num_nodes
        rendered = execution.render()
        assert "[columnar:item*]" in rendered
        assert "shard" not in rendered

    def test_execution_errors_propagate(self):
        from repro.errors import ExpressionError

        planner = columnar_planner(factories.social_site_graph())
        with pytest.raises(ExpressionError):
            planner.execute(input_graph("MISSING").select_nodes({}))


class TestSessionWiring:
    def test_config_shards_back_the_store_and_the_planner(self):
        # the option is accepted and inert: one store, one view
        graph = factories.social_site_graph()
        session = Session.from_graph(graph, SessionConfig(shards=3))
        assert type(session.data_manager.store) is GraphStore
        assert not hasattr(session.data_manager, "num_shards")
        assert not hasattr(session.planner, "shards")
        request = SearchRequest(user_id="u0", text="topic0")
        assert session.run(request).items == \
            Session.from_graph(graph).run(request).items

    def test_sharded_parallel_session_serves_identical_pages(self):
        """shards=4 answers like the default on the *whole* response, and
        its columnar scan like the row scan."""
        graph = factories.social_site_graph(num_users=7, num_items=9)
        plain = Session.from_graph(graph)
        fancy = Session.from_graph(graph, SessionConfig(shards=4))
        fancy.planner.cost_model = COLUMNAR_MODEL
        for request in (
            SearchRequest(user_id="u0", text="topic0"),
            SearchRequest(user_id="u1"),
            SearchRequest(user_id="u2", text="thing", strategy="item_based"),
            SearchRequest(user_id="u3", text="topic1 thing", page_size=2,
                          grouping="social"),
        ):
            # scan path: the index path reads no columnar view
            request = request.replace(use_index=False, explain=True)
            columnar, single = fancy.run(request), plain.run(request)
            assert "[columnar" in columnar.plan.text
            assert "[columnar" not in single.plan.text
            assert first_difference(
                canonical_response(columnar), canonical_response(single),
                tol=TOL,
            ) is None

    def test_session_config_is_validated_where_it_is_built(self):
        for shards in (0, -3, True, 2.5, "2", None):
            with pytest.raises(QueryError, match="shards must be an int"):
                SessionConfig(shards=shards)
        for retired in ("force", "threads", "pooled", "", None):
            with pytest.raises(QueryError, match="'auto' or 'never'"):
                SessionConfig(parallelism=retired)
        with pytest.raises(QueryError, match="backend was removed"):
            SessionConfig(parallelism="processes")
        for mode in ("auto", "never"):
            assert SessionConfig(shards=3, parallelism=mode).shards == 3

    def test_failing_in_process_scan_is_a_typed_failure_not_a_retry(self):
        """No rung below the in-process path: the error reaches the caller."""
        from repro.testing import raising

        session = Session.from_graph(
            factories.social_site_graph(), SessionConfig(shards=3),
        )
        session.planner.cost_model = COLUMNAR_MODEL
        request = SearchRequest(user_id="u0", text="topic0", use_index=False)
        with armed_faults({"physical.scan": raising(
            lambda: RuntimeError("columnar scan blew up"), times=1
        )}):
            with pytest.raises(RuntimeError, match="columnar scan blew up"):
                session.run(request)
        assert session.run(request).items == Session.from_graph(
            factories.social_site_graph()
        ).run(request).items

    def test_writes_invalidate_shard_views(self):
        session = Session.from_graph(
            factories.social_site_graph(),
            SessionConfig(shards=3),
        )
        session.planner.cost_model = COLUMNAR_MODEL
        before = session.run(SearchRequest(user_id="u0"))
        deltas = session.stats.delta_refreshes
        session.data_manager.add_node(Node(
            "i-new", type="item", name="fresh", keywords="topic0 thing",
        ))
        session.data_manager.add_link(
            Link("a-new", "u1", "i-new", type="act, visit")
        )
        after = session.run(SearchRequest(user_id="u0"))
        assert session.stats.delta_refreshes == deltas + 1
        assert "i-new" in after.items
        assert before.items != after.items


# ---------------------------------------------------------------------------
# Endorsement over columnar candidates
# ---------------------------------------------------------------------------


def _friends_social_expr(user: str = "u0"):
    """An unfused empty-keyword friends SocialScoreE: the probe, lowered
    to the stage's eager compute, whose candidates may arrive from the
    columnar scan."""
    from repro.core.expr import ConnectionBasisE, SocialScoreE

    G = input_graph("G")
    candidates = G.select_nodes({"type": "item"})
    basis = ConnectionBasisE(G, user_id=user, keywords=())
    return SocialScoreE(
        G, candidates, basis, strategy="friends", user_id=user,
        keywords=(), sim_threshold=0.1, act_type="visit",
    )


class TestShardedEndorsementMerge:
    """Each strategy's one social form ranks alike over row and columnar
    candidates, forced onto the keyword index or not."""

    def test_ranking_parity_across_shard_counts_and_strategies(self):
        graph = factories.social_site_graph()
        forms = {"friends": "probe", "similar_users": "group-agg",
                 "item_based": "group-agg"}
        for strategy, form in forms.items():
            for text, access in (("topic0", "auto"), ("", "index")):
                query = parse_query("u0", text)
                rows = InformationDiscoverer(graph)
                rows.planner.cost_model = ROW_MODEL
                reference = rows.rank(query, strategy=strategy)
                discoverer = InformationDiscoverer(graph)
                discoverer.planner.cost_model = COLUMNAR_MODEL
                got = discoverer.rank(query, strategy=strategy, access=access)
                assert got.execution.plan.root.form == form
                assert [s.item_id for s in got.items] == [
                    s.item_id for s in reference.items
                ], (strategy, text)
                assert got.social.scores == pytest.approx(
                    reference.social.scores, abs=TOL
                )
                for item, per_user in reference.social.endorsers.items():
                    assert got.social.endorsers[item] == pytest.approx(
                        per_user, abs=TOL
                    )

    def test_sharded_posting_merge_matches_monolithic(self):
        from oracle import decode_social_result

        graph = factories.social_site_graph()
        expr = _friends_social_expr()
        rows = row_planner(graph).execute(expr, access="index")
        assert not columnar_ops(rows.plan)
        reference = decode_social_result(rows.result)
        assert reference.scores  # the regime is non-degenerate
        execution = columnar_planner(graph).execute(expr, access="index")
        assert columnar_ops(execution.plan)
        for run in (rows, execution):
            assert type(run.plan.root) is ScanOp
            assert run.plan.root.logical.strategy == "friends"
        got = decode_social_result(execution.result)
        assert got.scores == pytest.approx(reference.scores, abs=TOL)
        assert set(got.endorsers) == set(reference.endorsers)
        for item, per_user in reference.endorsers.items():
            assert got.endorsers[item] == pytest.approx(per_user, abs=TOL)
