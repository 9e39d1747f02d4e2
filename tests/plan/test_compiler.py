"""Logical→physical compilation: lowering, cost-based access paths, parity."""

from __future__ import annotations

import pytest

import oracle
from factories import selectivity_graph
from repro.core import Condition, input_graph
from repro.core.stats import GraphStats
from repro.discovery import parse_query
from repro.errors import QueryError
from repro.indexing import SemanticItemIndex
from repro.workloads import TravelSiteConfig, build_travel_site
from repro.plan import (
    CostModel,
    IndexBinding,
    IndexKeywordScanOp,
    QueryPlanner,
    ScanOp,
    compile_plan,
)


@pytest.fixture()
def bound_planner():
    graph = selectivity_graph()
    index = SemanticItemIndex(graph)
    planner = QueryPlanner(graph)
    planner.attach_index(
        "item", provider=lambda: index, scorer_provider=lambda: index.scorer
    )
    return planner, index


def keyword_expr(text: str, scorer) -> object:
    return input_graph("G").select_nodes(
        Condition({"type": "item"}, keywords=text), scorer
    )


class TestAccessPathChoice:
    def test_rare_keyword_compiles_to_index(self, bound_planner):
        planner, index = bound_planner
        plan, _ = planner.compile(keyword_expr("rare", index.scorer))
        assert isinstance(plan.root, IndexKeywordScanOp)
        (decision,) = plan.decisions
        assert decision.chosen == "index"
        assert decision.index_cost < decision.scan_cost

    def test_common_keyword_compiles_to_scan(self, bound_planner):
        planner, index = bound_planner
        plan, _ = planner.compile(keyword_expr("common", index.scorer))
        assert isinstance(plan.root, ScanOp)
        (decision,) = plan.decisions
        assert decision.chosen == "scan"
        assert decision.index_cost >= decision.scan_cost

    def test_stats_drive_the_switch(self, bound_planner):
        # Same expression, different statistics → different physical plan:
        # the demonstration that the choice is GraphStats-driven, not
        # syntax-driven.
        planner, index = bound_planner
        expr = keyword_expr("common", index.scorer)
        sparse = GraphStats.of(selectivity_graph(), with_terms=True)
        sparse.term_doc_freq["common"] = 1  # pretend the term is rare
        chosen_sparse = compile_plan(
            expr, sparse, index=planner.state.index
        ).root
        chosen_dense = compile_plan(
            expr, planner.stats, index=planner.state.index
        ).root
        assert isinstance(chosen_sparse, IndexKeywordScanOp)
        assert isinstance(chosen_dense, ScanOp)

    def test_forced_modes_override_cost(self, bound_planner):
        planner, index = bound_planner
        forced_index, _ = planner.compile(
            keyword_expr("common", index.scorer), access="index"
        )
        forced_scan, _ = planner.compile(
            keyword_expr("rare", index.scorer), access="scan"
        )
        assert isinstance(forced_index.root, IndexKeywordScanOp)
        assert isinstance(forced_scan.root, ScanOp)

    def test_unknown_access_mode_rejected(self, bound_planner):
        planner, index = bound_planner
        with pytest.raises(QueryError):
            planner.compile(keyword_expr("rare", index.scorer), access="warp")

    def test_crossover_threshold_is_the_cost_ratio(self):
        model = CostModel(scan_cost_per_node=1.0, index_cost_per_posting=2.0)
        assert model.index_cost(49) < model.scan_cost(100)
        assert model.index_cost(51) > model.scan_cost(100)


class TestEligibilityBoundaries:
    """Ineligible selections must scan even when the index is forced."""

    def cases(self, index):
        extra_structural = input_graph("G").select_nodes(
            Condition({"type": "item", "rating__ge": 2}, keywords="rare"),
            index.scorer,
        )
        wrong_type = input_graph("G").select_nodes(
            Condition({"type": "user"}, keywords="rare"), index.scorer
        )
        no_keywords = input_graph("G").select_nodes(
            Condition({"type": "item"}), index.scorer
        )
        derived_input = input_graph("G").select_links({"type": "x"}).select_nodes(
            Condition({"type": "item"}, keywords="rare"), index.scorer
        )
        foreign_scorer = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="rare"),
            lambda element, keywords: 1.0,
        )
        default_scorer = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="rare")
        )
        return [extra_structural, wrong_type, no_keywords, derived_input,
                foreign_scorer, default_scorer]

    def test_everything_ineligible_scans(self, bound_planner):
        planner, index = bound_planner
        for expr in self.cases(index):
            plan, _ = planner.compile(expr, access="index")
            assert plan.uses_index is False, expr.render()


class TestIndexScanParity:
    def test_index_and_scan_results_are_graph_equal(self, bound_planner):
        planner, index = bound_planner
        for text in ("rare", "common", "rare common", "gem everywhere"):
            expr = keyword_expr(text, index.scorer)
            indexed = planner.execute(expr, access="index")
            scanned = planner.execute(expr, access="scan")
            assert indexed.used_index and not scanned.used_index
            assert indexed.result.same_as(scanned.result)
            assert indexed.scores() == scanned.scores()

    def test_missing_provider_degrades_to_scan_compute(self, bound_planner):
        planner, index = bound_planner
        expr = keyword_expr("rare", index.scorer)
        plan, _ = planner.compile(expr, access="index")
        scanned = planner.execute(expr, access="scan")
        execution = plan.execute({"G": planner.graph}, index_provider=lambda: None)
        assert execution.result.same_as(scanned.result)

    def test_discoverer_semantic_stage_parity(self, bound_planner):
        # The query's one-node σN scoping plan through the planner equals
        # the hand-written reference scan, on every path.
        planner, index = bound_planner
        for text in ("rare", "common", ""):
            query = parse_query(1, text)
            reference = oracle.semantic_candidates(
                planner.graph, query, scorer=index.scorer
            ).scores
            expr = input_graph("G").select_nodes(
                query.scope_condition(),
                index.scorer if query.keywords else None,
            )
            for access in ("auto", "index", "scan"):
                execution = planner.execute(expr, access=access)
                assert execution.scores() == reference


class TestProfiles:
    def test_every_operator_reports_estimated_and_actual(self, bound_planner):
        planner, index = bound_planner
        execution = planner.execute(keyword_expr("rare", index.scorer))
        assert len(execution.profiles) == 2  # select over input
        for profile in execution.profiles:
            assert profile.estimated is not None
            assert profile.actual is not None
        select, base = execution.profiles
        assert base.actual.nodes == planner.graph.num_nodes
        assert select.actual.nodes == len(execution.scores())

    def test_render_mentions_access_and_cardinalities(self, bound_planner):
        planner, index = bound_planner
        text = planner.execute(keyword_expr("rare", index.scorer)).render()
        assert "input(G)" in text
        assert "est" in text and "act" in text
        assert "access=index" in text


class TestIndexDegrade:
    def test_an_index_plan_run_without_its_index_says_it_scanned(self):
        """``σN type=item kw=denver`` compiled to the index path, then run
        with no index provider: the row scan answers, and EXPLAIN and
        ``degraded_ops`` say so."""
        graph = build_travel_site(TravelSiteConfig(seed=42)).graph
        index = SemanticItemIndex(graph)
        planner = QueryPlanner(graph)
        planner.attach_index(
            "item", provider=lambda: index,
            scorer_provider=lambda: index.scorer,
        )
        plan, _ = planner.compile(
            keyword_expr("denver", index.scorer), access="index"
        )
        assert isinstance(plan.root, IndexKeywordScanOp)

        scanned = plan.execute({"G": graph})
        assert scanned.degraded_ops == 1
        (row,) = [p.op for p in scanned.profiles if "[index:item]" in p.op]
        assert row.endswith("[index:item] (degraded→row scan)")

        indexed = plan.execute({"G": graph}, index_provider=lambda: index)
        assert indexed.degraded_ops == 0
        assert scanned.result.num_nodes > 0
        assert scanned.result.same_as(indexed.result)
