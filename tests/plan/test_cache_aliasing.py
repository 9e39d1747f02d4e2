"""Plan cache behavior + the result-aliasing regression (defensive results).

The dangerous corner of caching evaluation machinery: a returned graph
that aliases shared state (the environment graph, a literal, anything a
cached plan would hand out again) lets one caller's mutation poison every
later evaluation.  Both ``Expr.evaluate`` and ``PhysicalPlan.execute``
must return graphs the caller owns outright.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from factories import item_graph, social_site_graph
from repro.core import Link, Node, input_graph, literal
from repro.plan import PlanCache, QueryPlanner
from repro.plan.physical import PhysicalPlan


class TestPlanCache:
    def test_hit_requires_matching_generation(self):
        cache = PlanCache()
        cache.put("k", 1, "plan")  # type: ignore[arg-type]
        assert cache.get("k", 1) == "plan"
        assert cache.get("k", 2) is None  # stale entry dropped on lookup
        assert cache.get("k", 1) is None
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 0, 1)  # type: ignore[arg-type]
        cache.put("b", 0, 2)  # type: ignore[arg-type]
        cache.get("a", 0)     # refresh a; b becomes LRU
        cache.put("c", 0, 3)  # type: ignore[arg-type]
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.stats.evictions == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_planner_refresh_invalidates_compiled_plans(self):
        planner = QueryPlanner(item_graph())
        expr = input_graph("G").select_nodes({"type": "item"})
        _, hit0 = planner.compile(expr)
        _, hit1 = planner.compile(expr)
        assert (hit0, hit1) == (False, True)
        planner.refresh(item_graph())
        _, hit2 = planner.compile(expr)
        assert hit2 is False  # generation bumped: recompiled

    def test_post_write_shapes_compile_once_however_many_writes(self):
        # every write hands the planner a fresh graph object; a plan
        # keyed to the object it was compiled on would strand one entry
        # per write until the cache filled with unreachable plans
        cache = PlanCache(maxsize=4)
        planner = QueryPlanner(item_graph(), cache=cache)
        shapes = [
            input_graph("G").select_nodes({"type": "item"}),
            input_graph("G").select_nodes({"type": "user"}),
        ]
        for _ in range(3 * cache.maxsize):
            planner.refresh(item_graph())
            for expr in shapes:
                planner.compile(expr)
            assert len(cache) <= len(shapes)
        planner.refresh(item_graph())
        hits = [planner.compile(shapes[0])[1] for _ in range(3)]
        assert hits == [False, True, True]
        assert len(cache) == 1  # the unasked shape's stale plan is gone too
        assert cache.stats.evictions == 0

    def test_insert_drops_older_stamps_from_the_cold_end(self):
        # a keyword shape's key embeds its scorer by identity and a write
        # rebuilds the scorer: the old entry is never asked again, and
        # must not pin its plan (and scorer) until maxsize newer arrive
        cache = PlanCache(maxsize=8)
        for write in range(3 * cache.maxsize):
            stamp = (write, 0)
            cache.put(("keyword", write), stamp, "plan")  # type: ignore[arg-type]
            cache.put("recommend", stamp, "plan")  # type: ignore[arg-type]
            assert len(cache) == 2
        assert cache.get("recommend", stamp) == "plan"
        assert cache.stats.evictions == 0

    def test_reassigning_the_cost_model_recompiles(self):
        planner = QueryPlanner(item_graph())
        expr = input_graph("G").select_nodes({"type": "item"})
        default_plan, _ = planner.compile(expr)
        planner.cost_model = replace(
            planner.cost_model, columnar_scan_min_nodes=0.0
        )
        plan, hit = planner.compile(expr)
        assert hit is False and plan is not default_plan
        assert planner.compile(expr) == (plan, True)

    @pytest.mark.parametrize("attach", [
        lambda planner: planner.attach_index("item", lambda: None),
        # the id names the retired partition attach; a full refresh is
        # the other step that stales every resident plan at once
        lambda planner: planner.refresh(planner.graph),
        # re-binding the semantic index to another population
        lambda planner: planner.attach_index(
            "user", lambda: None, scorer_provider=lambda: None
        ),
    ], ids=["attach_index", "attach_shards", "attach_attribute_index"])
    def test_attach_stales_every_resident_plan(self, attach):
        planner = QueryPlanner(item_graph())
        shapes = [
            input_graph("G").select_nodes({"type": "item"}),
            input_graph("G").select_nodes({"type": "user"}),
        ]
        for expr in shapes:
            planner.compile(expr)
        attach(planner)
        assert [planner.compile(expr)[1] for expr in shapes] == [False, False]
        assert len(planner.cache) == len(shapes)

    def test_cached_plan_object_is_reused(self):
        planner = QueryPlanner(item_graph())
        expr = input_graph("G").select_nodes({"type": "item"})
        plan_a, _ = planner.compile(expr)
        plan_b, _ = planner.compile(expr)
        assert plan_a is plan_b
        assert isinstance(plan_a, PhysicalPlan)


class TestEvaluateAliasing:
    def test_identity_plan_result_is_a_defensive_copy(self):
        g = item_graph()
        result = input_graph("G").evaluate({"G": g})
        assert result.same_as(g) and result is not g
        result.add_node(Node("intruder", type="item"))
        assert not g.has_node("intruder")

    def test_literal_root_result_is_defensive(self):
        g = item_graph()
        result = literal(g).evaluate({})
        result.remove_node(0)
        assert g.has_node(0)

    def test_idempotence_rewrite_cannot_leak_the_env_graph(self):
        from repro.core import optimize

        g = item_graph()
        G = input_graph("G")
        optimized, _ = optimize(G.union(G))  # ⇒ G by idempotence
        result = optimized.evaluate({"G": g})
        result.add_node(Node("intruder", type="item"))
        assert not g.has_node("intruder")

    def test_derived_results_unaffected(self):
        # Normal operator outputs are fresh graphs already; the defensive
        # copy must not trigger (no gratuitous O(n) copies on the hot path).
        g = item_graph()
        expr = input_graph("G").select_nodes({"type": "item"})
        cache: dict = {}
        inner = expr._eval({"G": g}, cache)
        assert expr.evaluate({"G": g}).same_as(inner)
        assert inner is not g


class TestSocialPlanGenerations:
    """A resync can never serve a stale compiled social-stage plan.

    The dangerous sequence: compile the full pipeline (social stage
    included), mutate the graph behind the Data Manager, query again.
    Generation stamping must force a recompile *and* the probe must read
    the new graph — otherwise the new social signal is invisible.
    """

    def _pipeline(self, planner, user="u0", access="auto"):
        from repro.discovery import parse_query

        return planner.discovery_pipeline(
            parse_query(user, ""), alpha=0.0, access=access
        )

    def test_planner_refresh_recompiles_the_social_pipeline(self):
        planner = QueryPlanner(social_site_graph())
        first = self._pipeline(planner)
        again = self._pipeline(planner)
        assert first.cache_hit is False and again.cache_hit is True
        planner.refresh(social_site_graph())
        after = self._pipeline(planner)
        assert after.cache_hit is False  # generation bumped: recompiled

    def test_refresh_rebuilds_the_endorsement_index(self):
        # friend endorsement is the probe, so there is no index to
        # rebuild: a forced-index recommendation after a full refresh
        # recompiles and reads u1's new endorsement off the new graph
        graph = social_site_graph(num_users=4, num_items=4)
        planner = QueryPlanner(graph)
        before = self._pipeline(planner, access="index")
        assert before.plan.root.form == "probe"
        assert "i-new" not in before.payload.scores
        grown = graph.copy()
        grown.add_node(Node("i-new", type="item", name="brand new"))
        grown.add_link(id="a-new", src="u1", tgt="i-new", type="act, visit")
        planner.refresh(grown)
        after = self._pipeline(planner, access="index")
        assert after.cache_hit is False
        assert after.degraded_ops == 0
        # the probe sees u1's new endorsement (u0 follows u1)...
        assert "i-new" in after.payload.scores
        assert after.payload.endorsers["i-new"] == {"u1": 1.0}
        # ...and answers what a planner fresh on the grown site does
        fresh = self._pipeline(QueryPlanner(grown), access="index")
        assert after.payload == fresh.payload

    def test_datamanager_resync_cannot_serve_a_stale_social_plan(self):
        from repro.api import SearchRequest, Session

        session = Session.from_graph(social_site_graph(num_users=4,
                                                       num_items=4))
        request = SearchRequest(user_id="u0")
        baseline = session.run(request)
        assert "i-new" not in baseline.items
        compiles = session.stats.plan_compiles
        # a direct Data-Manager write behind the session's back
        session.data_manager.add_node(Node("i-new", type="item",
                                           name="brand new"))
        session.data_manager.add_link(Link("a-new", "u1", "i-new",
                                           type="act, visit"))
        refreshed = session.run(request)
        assert session.stats.plan_compiles == compiles + 1
        assert "i-new" in refreshed.items  # friend endorsement visible


class TestPlanCacheAliasing:
    def test_mutating_one_execution_cannot_poison_a_cache_hit(self):
        planner = QueryPlanner(item_graph())
        expr = input_graph("G").select_nodes({"type": "item"})
        first = planner.execute(expr)
        baseline = first.result.copy()
        # a hostile caller mutates everything it was handed
        first.result.add_node(Node("intruder", type="item, evil"))
        for node_id in list(first.result.node_ids()):
            if node_id != "intruder":
                first.result.remove_node(node_id)
        second = planner.execute(expr)
        assert second.cache_hit is True
        assert second.result.same_as(baseline)
        assert not planner.graph.has_node("intruder")

    def test_identity_physical_plan_returns_a_copy(self):
        from repro.core import optimize

        planner = QueryPlanner(item_graph())
        G = input_graph("G")
        execution = planner.execute(G.union(G))  # optimizer folds to input
        execution.result.add_node(Node("intruder", type="item"))
        assert not planner.graph.has_node("intruder")
        repeat = planner.execute(G.union(G))
        assert not repeat.result.has_node("intruder")
