"""Sharded scans: parity, lowering, EXPLAIN.

The acceptance contract of the partitioned executor: every query
produces identical results (1e-9 on scores) across {monolithic, 2-shard,
7-shard} stores, verified here with the hypothesis workload factory;
plus structural tests for the lowering rule (threshold, pruning,
covering), the runtime degrade path, per-shard EXPLAIN rows, the
endorsement merge over shard-concatenated candidates, and the
session-level wiring.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import factories
from benchmarks.e2e.harness import canonical_response, first_difference
from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Condition, Link, Node, input_graph
from repro.discovery import InformationDiscoverer, parse_query
from repro.errors import FrozenGraphError, QueryError
from repro.plan import (
    CostModel,
    QueryPlanner,
    SHARDED,
    ShardedScanOp,
)

TOL = 1e-9

VOCAB = ("topic0", "topic1", "thing", "offkey")


#: σN conditions exercising cover, prune, postings and residual regimes.
NODE_CONDITIONS = (
    Condition({"type": "item"}),
    Condition({"type": "item"}, keywords="topic0"),
    Condition({"type": "user"}),
    Condition({"name": "item 1"}),
    Condition({"type": "item"}, keywords="topic1 thing"),
)


def sharded_planner(graph, shards, min_nodes=0.0) -> QueryPlanner:
    planner = QueryPlanner(
        graph, cost_model=CostModel(shard_scan_min_nodes=min_nodes),
    )
    if shards > 1:
        planner.attach_shards(shards)
    return planner


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
    """{monolithic, 2, 7 shards} — one ranking."""

    @settings(max_examples=25, deadline=None)
    @given(site_queries())
    def test_every_configuration_ranks_identically(self, workload):
        graph, user, text, strategy = workload
        reference = InformationDiscoverer(graph).rank(
            parse_query(user, text), strategy=strategy
        )
        for shards in (1, 2, 7):
            discoverer = InformationDiscoverer(graph)
            discoverer.planner.cost_model = CostModel(
                shard_scan_min_nodes=0.0
            )
            if shards > 1:
                discoverer.planner.attach_shards(shards)
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
    @given(site_queries(), st.sampled_from([2, 7]))
    def test_raw_sharded_scan_matches_monolithic(self, workload, shards):
        graph, _user, text, _strategy = workload
        # a covered scan (the bucket is the answer) and a keyword scan
        for condition in ({"type": "item"},
                          Condition({"type": "item"}, keywords=text)):
            expr = input_graph("G").select_nodes(condition)
            mono = QueryPlanner(graph).execute(expr)
            execution = sharded_planner(graph, shards).execute(expr)
            assert execution.result.same_as(mono.result)

    def test_scan_matrix_matches_monolithic(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        exprs = [input_graph("G").select_nodes(c) for c in NODE_CONDITIONS]
        mono = QueryPlanner(graph)
        reference = [mono.execute(e).result for e in exprs]
        for shards in (1, 2, 7):
            planner = sharded_planner(graph, shards)
            for expr, ref in zip(exprs, reference):
                assert planner.execute(expr).result.same_as(ref), shards


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
    """Derived planner caches never serve a pre-write graph.

    The planner's live graph is frozen, so an in-place write is refused;
    the same write through the Data Manager refreshes the planner, and
    the result-bearing caches (sub-plan memo, shard views, endorsement
    index) must follow it, or a cached plan silently serves pre-write
    records.
    """

    def test_subplan_memo_sees_in_place_writes(self):
        manager, graph = factories.served(
            factories.social_site_graph(num_items=5)
        )
        planner = sharded_planner(graph, 3)
        expr = input_graph("G").select_nodes({"type": "item"})
        before = planner.execute(expr)
        assert before.result.num_nodes == 5
        # same generation: the repeat is served from the memo, no shard scans
        repeat = planner.execute(expr)
        assert "(memo)" in repeat.render()
        assert not any(p.shard is not None for p in repeat.profiles)
        item = Node("i-live", type="item", name="in-place")
        with pytest.raises(FrozenGraphError):
            graph.add_node(item)
        factories.write_through(manager, planner, lambda dm: dm.add_node(item))
        after = planner.execute(expr)
        assert "(memo)" not in after.render()
        assert after.result.has_node("i-live")
        assert after.result.num_nodes == 6

    def test_shard_views_see_in_place_writes(self):
        # a covered scan reads the type buckets, a keyword scan the term
        # postings: both are cut per view and must follow every write
        for condition in (Condition({"type": "item"}),
                          Condition({"type": "item"}, keywords="thing")):
            manager, graph = factories.served(
                factories.social_site_graph(num_items=5)
            )
            planner = sharded_planner(graph, 3)
            expr = input_graph("G").select_nodes(condition)
            # an explicit env bypasses the memo: exercises the views
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
        from repro.discovery import parse_query

        query = parse_query("u0", "")
        before = planner.discovery_pipeline(query, alpha=0.0, access="index")
        assert before.used_network_index
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
        assert after.used_network_index
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
        rendered = execution.render()
        assert "[sharded×3:item*]" in rendered
        assert rendered.count("shard[") == 3

    def test_execution_errors_propagate(self):
        from repro.errors import ExpressionError

        planner = sharded_planner(factories.social_site_graph(), 2)
        with pytest.raises(ExpressionError):
            planner.execute(input_graph("MISSING").select_nodes({}))


class TestSessionWiring:
    def test_config_shards_back_the_store_and_the_planner(self):
        session = Session.from_graph(
            factories.social_site_graph(),
            SessionConfig(shards=3),
        )
        assert session.data_manager.num_shards == 3
        assert session.planner.shards == 3

    def test_sharded_parallel_session_serves_identical_pages(self):
        """shards=4 answers like shards=1 on the *whole* response."""
        graph = factories.social_site_graph(num_users=7, num_items=9)
        plain = Session.from_graph(graph)
        fancy = Session.from_graph(graph, SessionConfig(shards=4))
        fancy.planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
        for request in (
            SearchRequest(user_id="u0", text="topic0"),
            SearchRequest(user_id="u1"),
            SearchRequest(user_id="u2", text="thing", strategy="item_based"),
            SearchRequest(user_id="u3", text="topic1 thing", page_size=2,
                          grouping="social"),
        ):
            # scan path: the index path never scatters a scan
            request = request.replace(use_index=False, explain=True)
            sharded, single = fancy.run(request), plain.run(request)
            assert sharded.plan.sharded
            assert first_difference(
                canonical_response(sharded), canonical_response(single),
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
        from repro.testing import armed_faults, raising

        session = Session.from_graph(
            factories.social_site_graph(), SessionConfig(shards=3),
        )
        session.planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
        request = SearchRequest(user_id="u0", text="topic0", use_index=False)
        with armed_faults({"physical.scan_shard": raising(
            lambda: RuntimeError("shard scan blew up"), times=1
        )}):
            with pytest.raises(RuntimeError, match="shard scan blew up"):
                session.run(request)
        assert session.run(request).items == Session.from_graph(
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


# ---------------------------------------------------------------------------
# Endorsement merges over sharded candidates
# ---------------------------------------------------------------------------


def _friends_social_expr(user: str = "u0"):
    """A SocialScoreE eligible for the §6.2 endorsement-merge lowering.

    The merge form exists only for the friends strategy on empty-keyword
    queries (the basis-weight correctness boundary), so that is the
    regime the merge must hold parity in when its candidates arrive
    shard-concatenated.
    """
    from repro.core.expr import ConnectionBasisE, SocialScoreE

    G = input_graph("G")
    candidates = G.select_nodes({"type": "item"})
    basis = ConnectionBasisE(G, user_id=user, keywords=())
    return SocialScoreE(
        G, candidates, basis, strategy="friends", user_id=user,
        keywords=(), sim_threshold=0.1, act_type="visit",
    )


class TestShardedEndorsementMerge:
    def test_ranking_parity_across_shard_counts_and_strategies(self):
        graph = factories.social_site_graph()
        for strategy in ("friends", "similar_users", "item_based"):
            for text in ("topic0", ""):
                query = parse_query("u0", text)
                reference = InformationDiscoverer(graph).rank(
                    query, strategy=strategy
                )
                for shards in (2, 7):
                    discoverer = InformationDiscoverer(graph)
                    planner = discoverer.planner
                    planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
                    planner.attach_shards(shards)
                    got = discoverer.rank(query, strategy=strategy)
                    assert [s.item_id for s in got.items] == [
                        s.item_id for s in reference.items
                    ], (strategy, shards, text)
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
        reference = decode_social_result(
            QueryPlanner(graph).execute(expr, access="index").result
        )
        assert reference.scores  # the regime is non-degenerate
        for shards in (2, 7):
            planner = QueryPlanner(
                graph, cost_model=CostModel(shard_scan_min_nodes=0.0)
            )
            planner.attach_shards(shards)
            got = decode_social_result(
                planner.execute(expr, access="index").result
            )
            # candidate order is shard-concatenated; scores compare as a
            # mapping (the ranking-parity test pins the sorted order)
            assert set(got.scores) == set(reference.scores), shards
            for item, score in reference.scores.items():
                assert got.scores[item] == pytest.approx(score, abs=TOL)
            assert set(got.endorsers) == set(reference.endorsers)
            for item, per_user in reference.endorsers.items():
                assert got.endorsers[item] == pytest.approx(
                    per_user, abs=TOL
                )
