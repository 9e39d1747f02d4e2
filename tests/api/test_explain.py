"""Session behavior under ``explain=True`` and the serving plan cache.

Covers the satellite contract: responses carry a plan spanning the whole
pipeline (semantic candidates → social scoring → combination), golden
plan *shapes* pin the lowering rules structurally, pagination and cursors
behave exactly as without EXPLAIN, and compiled plans invalidate on
``invalidate()`` and on Data-Manager resync.
"""

from __future__ import annotations

import pytest

import factories
from repro.api import SearchRequest, Session
from repro.core import Node
from repro.discovery import parse_query
from repro.errors import FrozenGraphError
from repro.plan import PlanExplain
from repro.workloads import (
    JOHN,
    TravelSiteConfig,
    WorkloadConfig,
    build_site,
    build_travel_site,
)


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture()
def session(travel):
    return Session.from_graph(travel.graph)


def op_kinds(plan: PlanExplain) -> list[str]:
    """Structural fingerprint: each operator's leading token, pre-order."""
    kinds = []
    for profile in plan.operators:
        op = profile.op
        for sep in ("⟨", " ", "("):
            cut = op.find(sep)
            if cut != -1:
                op = op[:cut]
        kinds.append(op)
    return kinds


class TestExplainResponses:
    def test_plan_absent_by_default(self, session):
        response = session.run(SearchRequest(user_id=JOHN, text="denver"))
        assert response.plan is None

    def test_explain_carries_estimated_vs_actual_per_operator(self, session):
        response = session.run(
            SearchRequest(user_id=JOHN, text="denver", explain=True)
        )
        plan = response.plan
        assert isinstance(plan, PlanExplain)
        assert plan.access_path in ("index", "scan")
        assert len(plan.operators) >= 2  # σN over input(G)
        for profile in plan.operators:
            assert profile.estimated.nodes >= 0
            assert profile.actual is not None and profile.actual.nodes >= 0
        base = plan.operators[-1]
        assert base.op == "input(G)"
        assert base.actual.nodes == session.graph.num_nodes
        assert "input(G)" in plan.text and "est" in plan.text

    def test_explain_reports_the_access_decision(self, session):
        indexed = session.run(
            SearchRequest(user_id=JOHN, text="denver", explain=True)
        )
        scanned = session.run(
            SearchRequest(user_id=JOHN, text="denver", use_index=False,
                          explain=True)
        )
        assert indexed.plan.access_path == "index"
        assert indexed.index_used
        assert scanned.plan.access_path == "scan"
        assert not scanned.index_used
        assert indexed.plan.decisions and indexed.plan.decisions[0].chosen == "index"

    def test_recommendation_explains_as_scan(self, session):
        response = session.run(SearchRequest(user_id=JOHN, explain=True))
        assert response.plan.access_path == "scan"
        # No keyword selection to cost, and friend endorsement has one
        # form (the probe): no access decision is on record.
        assert response.plan.decisions == ()
        assert "[fused-probe]" in response.plan.operators[0].op

    def test_plan_covers_semantic_and_social_stages(self, session):
        response = session.run(
            SearchRequest(user_id=JOHN, text="denver", explain=True)
        )
        kinds = op_kinds(response.plan)
        # the social stage is fused into the combination (one operator)
        assert "combine+social" in kinds and "basis" in kinds
        assert "σN" in kinds and "input" in kinds
        assert response.plan.resolved_strategy == "friends"
        # every stage carries est vs. actual
        for profile in response.plan.operators:
            assert profile.actual is not None

    def test_results_identical_with_and_without_explain(self, session):
        plain = session.run(SearchRequest(user_id=JOHN, text="museum history"))
        explained = session.run(
            SearchRequest(user_id=JOHN, text="museum history", explain=True)
        )
        assert explained.items == plain.items
        assert explained.page_info == plain.page_info

    def test_pagination_and_cursors_unchanged_under_explain(self, session):
        first = session.run(SearchRequest(
            user_id=JOHN, text="denver", page_size=3, explain=True,
        ))
        assert first.page_info.next_cursor is not None
        # continue from an explain response without explain, and vice versa
        second = session.run(SearchRequest(
            user_id=JOHN, text="denver", cursor=first.page_info.next_cursor,
        ))
        second_explained = session.run(SearchRequest(
            user_id=JOHN, text="denver", cursor=first.page_info.next_cursor,
            explain=True,
        ))
        assert second.items == second_explained.items
        assert set(first.items).isdisjoint(second.items)
        assert second.page_info.offset == 3

    def test_builder_explain_toggle(self, session):
        response = session.query(JOHN).text("denver").explain().run()
        assert response.plan is not None
        assert session.query(JOHN).text("denver").build().explain is False


class TestGoldenPlanShapes:
    """Snapshot-style assertions on full-pipeline plan structure.

    A fixed seed graph pins the operator kinds *and* their pre-order
    positions, so a lowering-rule regression (missing stage, wrong child
    order, dropped DAG sharing) fails structurally — not just by score.
    """

    @pytest.fixture()
    def fixed_session(self):
        return Session.from_graph(factories.social_site_graph())

    def test_keyword_friend_pipeline_shape(self, fixed_session):
        response = fixed_session.run(
            SearchRequest(user_id="u0", text="topic0", explain=True)
        )
        # the social stage feeds only the combination, so the compiler
        # fuses the pair into one operator over (graph, candidates, basis)
        assert op_kinds(response.plan) == [
            "combine+social",
            "input",
            "σN", "input",                      # shared candidate stage
            "basis", "input",                   # connection selection
        ]
        assert "[fused-probe]" in response.plan.operators[0].op
        assert response.plan.resolved_strategy == "friends"

    def test_recommendation_pipeline_shape(self, fixed_session):
        response = fixed_session.run(
            SearchRequest(user_id="u0", explain=True)
        )
        assert op_kinds(response.plan) == [
            "combine+social",
            "input",
            "σN", "input",
            "basis", "input",
        ]
        # one friend-endorsement form: nothing to cost, nothing recorded
        assert response.plan.decisions == ()
        assert "[fused-probe]" in response.plan.operators[0].op

    def test_similarity_strategies_lower_to_grouped_aggregation(
        self, fixed_session
    ):
        for strategy in ("similar_users", "cf", "item_based"):
            response = fixed_session.run(SearchRequest(
                user_id="u0", text="topic0", strategy=strategy, explain=True,
            ))
            social_ops = [p.op for p in response.plan.operators
                          if "social" in p.op]
            assert social_ops and all("[fused-group-agg]" in op
                                      for op in social_ops)

    def test_forced_network_index_shape_and_parity(self, fixed_session):
        # use_index steers only the keyword stage: an empty-text friends
        # request forced onto the index runs the probe it always runs
        plain = fixed_session.run(SearchRequest(user_id="u0",
                                                use_index=False))
        forced = fixed_session.run(
            SearchRequest(user_id="u0", use_index=True, explain=True)
        )
        assert forced.items == plain.items
        assert op_kinds(forced.plan) == [
            "combine+social",
            "input",
            "σN", "input",
            "basis", "input",
        ]
        root = forced.plan.operators[0]
        assert "[fused-probe]" in root.op
        assert "(degraded" not in root.op
        assert root.access_path is None
        # and the payload it hands over is the scan plan's, value for value
        from repro.discovery import parse_query

        query = parse_query("u0", "")
        rank = fixed_session.discoverer.rank
        via_index = rank(query, access="index").execution
        via_probe = rank(query, access="scan").execution
        assert via_index.plan.root.form == via_probe.plan.root.form == "probe"
        assert via_index.payload == via_probe.payload

    def test_strategy_auto_records_a_cost_based_decision(self, fixed_session):
        response = fixed_session.run(
            SearchRequest(user_id="u0", strategy="auto", explain=True)
        )
        decision = response.plan.strategy_decision
        assert decision is not None
        assert decision.chosen == "friends"  # connected + active population
        assert decision.considered == ("friends", "similar_users",
                                       "item_based")
        assert response.resolved["social_strategy"] == "friends"

    def test_forced_scan_keeps_whole_pipeline_on_scan_forms(
        self, fixed_session
    ):
        response = fixed_session.run(SearchRequest(
            user_id="u0", text="topic0", use_index=False, explain=True,
        ))
        text = response.plan.text
        assert "[fused-probe]" in text and "[index:" not in text
        assert response.plan.access_path == "scan"

    def test_runtime_degrade_is_visible_in_explain_and_stats(self):
        # A columnar scan whose view provider is gone falls back to the
        # row scan, says so in EXPLAIN, and still answers as a session
        # that lowered the row scan in the first place.
        import dataclasses

        graph = factories.social_site_graph(num_users=4, num_items=4)
        session = Session.from_graph(graph)
        planner = session.planner
        planner.cost_model = dataclasses.replace(
            planner.cost_model, columnar_scan_min_nodes=0.0
        )
        planner.state.columnar_view = lambda graph: None  # provider gone
        response = session.run(
            SearchRequest(user_id="u0", use_index=False, explain=True)
        )
        scan_rows = [p.op for p in response.plan.operators
                     if "[columnar" in p.op]
        assert scan_rows and all(op.endswith("(degraded→row scan)")
                                 for op in scan_rows)
        assert session.stats.scan_queries == 1
        rows = Session.from_graph(graph).run(
            SearchRequest(user_id="u0", use_index=False)
        )
        assert response.items == rows.items

    def test_custom_strategy_still_honors_use_index(self, travel):
        # A record registered under a custom name runs the compiled plan
        # like any other: the request's access preference reaches the
        # semantic stage, and both paths rank alike.
        from repro.discovery import SimilarUserStrategy
        from repro.errors import DiscoveryError

        session = Session.from_graph(travel.graph)
        session.discoverer.strategies["tuned"] = SimilarUserStrategy(
            sim_threshold=0.3
        )
        indexed = session.run(SearchRequest(
            user_id=JOHN, text="denver", strategy="tuned", use_index=True,
        ))
        scanned = session.run(SearchRequest(
            user_id=JOHN, text="denver", strategy="tuned",
            use_index=False,
        ))
        assert indexed.index_used is True
        assert scanned.index_used is False
        assert indexed.items == scanned.items
        # scoring code slipped into the live registry is refused, typed
        session.discoverer.strategies["constant"] = object()
        with pytest.raises(DiscoveryError, match="not a strategy record"):
            session.run(SearchRequest(
                user_id=JOHN, text="denver", strategy="constant",
            ))


class TestServingPlanCache:
    def test_repeated_requests_hit_the_plan_cache(self, session):
        request = SearchRequest(user_id=JOHN, text="Denver attractions")
        session.run(request)
        compiles = session.stats.plan_compiles
        session.run(request)
        session.run(request)
        assert session.stats.plan_cache_hits >= 2
        assert session.stats.plan_compiles == compiles  # no recompilation

    def test_distinct_queries_compile_distinct_plans(self, session):
        session.run(SearchRequest(user_id=JOHN, text="museum"))
        before = session.stats.plan_compiles
        session.run(SearchRequest(user_id=JOHN, text="baseball"))
        assert session.stats.plan_compiles == before + 1

    def test_refresh_and_in_place_write_recompile_once(self, session):
        # Entries carry the planner's plan generation: a full refresh
        # moves it, and so does a node write through the Data Manager;
        # either way the shape recompiles once and then hits again.  The
        # served graph itself refuses the write.
        request = SearchRequest(user_id=JOHN)
        session.run(request)
        session.run(request)
        compiles_before = session.stats.plan_compiles
        session.invalidate()
        session.run(request)
        assert session.stats.plan_compiles == compiles_before + 1
        spot = Node("x:epoch", type="item, destination",
                    name="Epoch Spot", keywords="denver")
        with pytest.raises(FrozenGraphError):
            session.graph.add_node(spot)
        session.data_manager.add_node(spot)
        session.run(request)  # no invalidate(): the node write stales it
        assert session.stats.plan_compiles == compiles_before + 2
        hits_before = session.stats.plan_cache_hits
        session.run(request)
        assert session.stats.plan_compiles == compiles_before + 2
        assert session.stats.plan_cache_hits == hits_before + 1
        assert len(session.planner.cache) == 1

    def test_a_cached_plan_explains_the_same_after_other_requests(self):
        # EXPLAIN is a function of the plan: the statistics a plan was
        # costed on are the live graph's, and serving requests does not
        # move them.  180 requests of other shapes run between the two
        # renders of one cached plan.
        site = build_site(WorkloadConfig(num_users=200, num_items=400,
                                         seed=17))
        session = Session.from_graph(site.graph)
        user = site.user_ids[0]
        request = SearchRequest(user_id=user, text="", k=10, explain=True)
        first = session.run(request)
        ranked = session.discoverer.rank(parse_query(user, ""), limit=10)
        assert ranked.execution.cache_hit
        plan = ranked.execution.plan
        rendered = plan.render()
        for other in site.user_ids[1:16]:
            for category in site.categories[:6]:
                for text in (str(category), ""):
                    session.run(SearchRequest(user_id=other, text=text,
                                              k=10))
        again = session.discoverer.rank(parse_query(user, ""), limit=10)
        assert again.execution.cache_hit and again.execution.plan is plan
        assert plan.render() == rendered
        root = session.run(request).plan.operators[0]
        assert root.op == first.plan.operators[0].op
        assert root.estimated == first.plan.operators[0].estimated

    def test_datamanager_resync_invalidates_plans(self, session):
        request = SearchRequest(user_id=JOHN, text="special")
        session.run(request)
        compiles_before = session.stats.plan_compiles
        session.data_manager.add_node(Node(
            "x:new", type="item, destination", name="Special Spot",
            keywords="special denver",
        ))
        response = session.run(request)
        assert session.stats.plan_compiles == compiles_before + 1
        # and the recompiled plan sees the new item
        assert "x:new" in response.items

    def test_explain_reports_cache_state(self, session):
        request = SearchRequest(user_id=JOHN, text="art galleries", explain=True)
        first = session.run(request)
        second = session.run(request)
        assert first.plan.cache_hit is False
        assert second.plan.cache_hit is True
