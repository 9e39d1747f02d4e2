"""Plans are priced from the live statistics alone.

The compiler reads every estimate from the :class:`GraphStats` of the
planner's live graph: collected once per generation, patched on every
delta step, and never corrected by what earlier executions observed.  So
an estimate is a function of the graph — not of the queries served
before — and a repeated query compiles to the same plan with the same
numbers however many times it has run.

(The module keeps its name for the ids its tests have always had; an
earlier design fed execution actuals back into the estimates.)
"""

from __future__ import annotations

import dataclasses

import pytest

import factories
from repro.core import Condition, Link, Node, SocialContentGraph, input_graph
from repro.core.stats import KEYWORD_SELECTIVITY, GraphStats
from repro.plan import QueryPlanner


def correlated_corpus(num_items: int = 120,
                      both_fraction: float = 0.1) -> SocialContentGraph:
    """Items where 'alpha' and 'beta' always co-occur.

    The term histogram prices the pair under independence —
    1-(1-f)(1-f) ≈ 2f — while the true match fraction is f: a built-in
    2x overestimate that no execution corrects.
    """
    g = SocialContentGraph()
    matching = int(num_items * both_fraction)
    for i in range(num_items):
        text = "alpha beta gem" if i < matching else "plain filler words"
        g.add_node(Node(i, type="item", name=f"spot {i}", keywords=text))
    return g


PAIR = Condition({"type": "item"}, keywords="alpha beta")


def pair_estimate(planner: QueryPlanner) -> float:
    """The root estimate of a freshly compiled σN over the term pair."""
    planner.cache.clear()  # evicted plan: the next compile is fresh
    plan, cache_hit = planner.compile(input_graph("G").select_nodes(PAIR))
    assert not cache_hit
    return plan.root.estimate(planner.stats).nodes


class TestCorrectionTable:
    def test_observations_are_smoothed_and_capped(self):
        # executions leave the statistics exactly as collected
        graph = correlated_corpus()
        planner = QueryPlanner(graph)
        collected = GraphStats.of(graph, with_terms=True)
        for _ in range(10):
            planner.cache.clear()
            planner.execute(input_graph("G").select_nodes(PAIR))
        assert planner.stats == collected

    def test_smoothing_damps_single_outliers(self):
        # one badly estimated query does not move the next compile's
        # estimate, in either direction
        planner = QueryPlanner(correlated_corpus())
        before = pair_estimate(planner)
        actual = planner.execute(
            input_graph("G").select_nodes(PAIR)
        ).result.num_nodes
        assert before > 1.5 * actual  # the independence overestimate
        assert pair_estimate(planner) == before

    def test_zero_sides_are_guarded(self):
        # an empty site and an absent term estimate zero, and stay zero
        empty = GraphStats.of(SocialContentGraph(), with_terms=True)
        assert empty.expected_basis_size() == 0.0
        assert empty.expected_endorsements() == 0.0
        assert empty.keyword_match_fraction(("alpha",)) == KEYWORD_SELECTIVITY
        planner = QueryPlanner(correlated_corpus())
        absent = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="zeppelin")
        )
        plan, _ = planner.compile(absent)
        assert plan.root.estimate(planner.stats).nodes == 0.0
        assert planner.execute(absent).result.is_empty()
        planner.cache.clear()
        plan, _ = planner.compile(absent)
        assert plan.root.estimate(planner.stats).nodes == 0.0

    def test_validation(self):
        # the statistics carry no correction table, and the planner and
        # the collector take no option for one
        names = {field.name for field in dataclasses.fields(GraphStats)}
        assert "feedback" not in names
        assert "attr_value_counts" not in names
        with pytest.raises(TypeError):
            QueryPlanner(correlated_corpus(), feedback=None)
        with pytest.raises(TypeError):
            GraphStats.of(correlated_corpus(), indexed_attrs=("name",))


class TestStatsIntegration:
    def test_term_factor_scales_the_match_fraction(self):
        # the match fraction is the independence formula over the term
        # histogram, nothing multiplied in
        stats = GraphStats.of(correlated_corpus(), with_terms=True)
        f = 12 / 120
        assert stats.keyword_match_fraction(("alpha", "beta")) == \
            pytest.approx(1 - (1 - f) * (1 - f))
        assert stats.keyword_match_fraction(("alpha",)) == pytest.approx(f)

    def test_type_factor_scales_structural_selectivity(self):
        # a type pin selects its histogram share, before and after a write
        graph = correlated_corpus()
        graph.add_node(Node("u", type="user", name="u"))
        stats = GraphStats.of(graph)
        item = Condition({"type": "item"})
        assert stats.condition_selectivity(item, of_links=False) == \
            pytest.approx(120 / 121)
        manager, served = factories.served(graph)
        planner = QueryPlanner(served)
        factories.write_through(
            manager, planner,
            lambda dm: dm.add_node(Node("u2", type="user", name="u2")),
        )
        assert planner.stats.condition_selectivity(item, of_links=False) \
            == pytest.approx(120 / 122)


class TestPlannerLoop:
    def _error(self, planner, expr):
        plan, _ = planner.compile(expr)
        estimated = plan.root.estimate(planner.stats).nodes
        actual = planner.execute(expr).result.num_nodes
        return abs(estimated - actual) / max(actual, 1)

    def test_repeated_queries_converge_the_estimate(self):
        # repeats do not "learn": the error stays what the histogram says
        planner = QueryPlanner(correlated_corpus())
        expr = input_graph("G").select_nodes(PAIR)
        initial = self._error(planner, expr)
        assert initial > 0.5  # the independence assumption is badly off
        for _ in range(8):
            planner.cache.clear()
            assert self._error(planner, expr) == initial

    def test_corrections_survive_refresh(self):
        # what survives a refresh is the live statistics, patched: equal
        # to a fresh collection over the new graph
        manager, graph = factories.served(
            factories.social_site_graph(num_users=5, num_items=6)
        )
        planner = QueryPlanner(graph)
        assert planner.stats == GraphStats.of(graph, with_terms=True)
        live = factories.write_through(
            manager, planner,
            lambda dm: dm.add_link(Link("v", "u0", "i5", type="act, visit")),
        )
        assert planner.stats.link_types["act"] == \
            GraphStats.of(graph).link_types["act"] + 1
        assert planner.stats == GraphStats.of(live, with_terms=True)
        planner.refresh(live)  # a full refresh re-collects the same
        assert planner.stats == GraphStats.of(live, with_terms=True)

    def test_observation_rides_on_compiles_not_hits(self):
        # a cache hit and a recompile of one shape price it the same
        planner = QueryPlanner(correlated_corpus())
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="alpha")
        )
        first = planner.execute(expr)
        hit = planner.execute(expr)
        assert hit.cache_hit and hit.plan is first.plan
        planner.cache.clear()
        recompiled = planner.execute(expr)
        assert not recompiled.cache_hit
        assert recompiled.plan.render() == first.plan.render()
        assert [p.estimated for p in recompiled.profiles] == \
            [p.estimated for p in first.profiles]

    def test_correction_magnitude_is_capped(self):
        # nothing accumulates across executions: a planner that served a
        # workload prices like one that served nothing
        graph = correlated_corpus()
        served, fresh = QueryPlanner(graph), QueryPlanner(graph)
        for text in ("alpha beta", "alpha", "gem words", "plain"):
            expr = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords=text)
            )
            for _ in range(3):
                served.cache.clear()
                served.execute(expr)
        assert pair_estimate(served) == pair_estimate(fresh)
        assert served.stats == fresh.stats
