"""Tests for relevance, connection selection, strategies, and the MSG."""

from __future__ import annotations

import time

import pytest

import oracle
from repro.discovery import (
    DEFAULT_STRATEGIES,
    InformationDiscoverer,
    SimilarUserStrategy,
    parse_query,
)
from repro.errors import DeadlineError, DiscoveryError
from repro.plan import PlanExecution
from repro.workloads import (
    ALEXIA,
    JOHN,
    SELMA,
    TravelSiteConfig,
    build_travel_site,
)


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture(scope="module")
def discoverer(travel):
    return InformationDiscoverer(travel.graph)


class TestSemanticRelevance:
    def test_scoping_by_keywords(self, travel):
        result = oracle.semantic_candidates(
            travel.graph, parse_query(JOHN, "Denver baseball")
        )
        assert result.scores
        for item in result.scores:
            text = travel.graph.node(item).text().lower()
            assert "denver" in text or "baseball" in text

    def test_normalisation(self, travel):
        result = oracle.semantic_candidates(
            travel.graph, parse_query(JOHN, "Denver")
        )
        normalized = result.normalized()
        assert max(normalized.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in normalized.values())

    def test_empty_query_returns_all_items_unscored(self, travel):
        result = oracle.semantic_candidates(travel.graph, parse_query(JOHN, ""))
        assert set(result.scores) == {
            n.id for n in travel.graph.nodes_of_type("item")
        }
        assert result.max_score == 0.0


class TestConnectionSelector:
    def test_john_baseball_friends_qualify(self, travel):
        selection = oracle.select_connections(
            travel.graph, JOHN, ("baseball",)
        )
        assert not selection.used_expert_fallback
        assert selection.friends

    def test_selma_family_query_triggers_fallback(self, travel):
        # Most of Selma's friends are musicians; with a strict fit cut the
        # parent friends remain or experts kick in — either way the family
        # signal must come from family-active users.
        selection = oracle.select_connections(
            travel.graph, SELMA, ("family", "babies"),
            min_fit=0.6, min_qualified=8,
        )
        assert selection.used_expert_fallback
        assert selection.experts

    def test_experts_act_on_matching_items(self, travel):
        experts = oracle.find_experts(travel.graph, {"family"}, limit=5)
        assert experts
        for expert in experts:
            acted = [
                travel.graph.node(l.tgt).value("category")
                for l in travel.graph.out_links(expert)
                if l.has_type("act")
            ]
            assert "family" in acted

    def test_no_keywords_keeps_all_friends(self, travel):
        selection = oracle.select_connections(travel.graph, JOHN, ())
        assert selection.friends == oracle.friends_of(travel.graph, JOHN)


class TestStrategies:
    def test_friend_strategy_scores_endorsed_items(self, travel):
        selection = oracle.select_connections(
            travel.graph, JOHN, ("baseball",)
        )
        candidates = {n.id for n in travel.graph.nodes_of_type("item")}
        scores = oracle.score_friends(travel.graph, JOHN, candidates, selection)
        assert scores.scores
        # provenance is recorded for every scored item
        for item in scores.scores:
            assert scores.endorsers.get(item)

    def test_similar_user_strategy_matches_recipe(self, travel):
        from repro.core import (
            example5_collaborative_filtering,
            recommendations_from,
        )

        candidates = {n.id for n in travel.graph.nodes_of_type("item")}
        scores = oracle.score_similar_users(
            travel.graph, JOHN, candidates, None, sim_threshold=0.1
        )
        recipe = dict(
            recommendations_from(
                example5_collaborative_filtering(
                    travel.graph, JOHN, dest_type="item", sim_threshold=0.1
                ),
                JOHN,
            )
        )
        assert scores.scores == pytest.approx(recipe)

    def test_item_based_needs_derived_links(self, travel):
        from repro.analysis import item_similarity_links
        from repro.core import union

        candidates = {n.id for n in travel.graph.nodes_of_type("item")}
        bare = oracle.score_item_based(travel.graph, JOHN, candidates, None)
        assert bare.scores == {}
        enriched = union(
            travel.graph, item_similarity_links(travel.graph, threshold=0.15)
        )
        derived = oracle.score_item_based(enriched, JOHN, candidates, None)
        assert derived.scores
        for item in derived.scores:
            assert derived.supporting_items.get(item)


class TestDiscoverer:
    def test_msg_contains_user_items_endorsers(self, discoverer, travel):
        msg = discoverer.discover(JOHN, "Denver attractions")
        assert msg.graph.has_node(JOHN)
        assert msg.items
        top = msg.items[0]
        assert msg.graph.node(top.item_id).value("score") is not None
        endorsers = msg.endorsers_of(top.item_id)
        assert endorsers  # social provenance present

    def test_john_gets_baseball_first(self, discoverer, travel):
        # Example 1: semantic relevance alone can't rank Denver attractions;
        # John's baseball history must put ballparks on top.
        msg = discoverer.discover(JOHN, "Denver attractions")
        top_categories = [
            travel.graph.node(s.item_id).value("category")
            for s in msg.items[:3]
        ]
        assert "baseball" in top_categories

    def test_empty_query_is_social_only(self, discoverer):
        msg = discoverer.discover(JOHN, "")
        assert msg.items
        for scored in msg.items:
            assert scored.combined == pytest.approx(scored.social)

    def test_k_limits_results(self, discoverer):
        msg = discoverer.discover(JOHN, "attractions", k=3)
        assert len(msg.items) <= 3

    def test_scores_sorted_descending(self, discoverer):
        msg = discoverer.discover(JOHN, "Denver attractions")
        combined = [s.combined for s in msg.items]
        assert combined == sorted(combined, reverse=True)

    def test_unknown_strategy_raises(self, discoverer):
        # the error names everything rank() accepts, "auto" included
        with pytest.raises(DiscoveryError, match="'auto', 'cf', 'friends'"):
            discoverer.discover(JOHN, "x", strategy="tarot")

    def test_non_record_strategy_is_rejected_at_construction(self, travel):
        class Constant:
            name = "constant"

            def score(self, graph, user_id, candidates, basis=None):
                raise AssertionError("a strategy cannot bring scoring code")

        with pytest.raises(DiscoveryError, match="not a strategy record"):
            InformationDiscoverer(
                travel.graph,
                strategies={**DEFAULT_STRATEGIES, "constant": Constant()},
            )

    def test_every_strategy_name_runs_the_compiled_plan(self, travel):
        # One engine whatever the name: a subclassed record under a custom
        # name, the "cf" alias and "auto" all get a PlanExecution, top-k
        # pushdown and the cooperative deadline.
        class Tuned(SimilarUserStrategy):
            pass

        discoverer = InformationDiscoverer(
            travel.graph,
            strategies={**DEFAULT_STRATEGIES, "tuned": Tuned(sim_threshold=0.5)},
        )
        query = parse_query(JOHN, "Denver attractions")
        for name in [*discoverer.strategies, "auto"]:
            ranking = discoverer.rank(query, strategy=name, limit=3)
            assert len(ranking.items) == 3, name
            assert isinstance(ranking.execution, PlanExecution), name
            with pytest.raises(DeadlineError):
                discoverer.rank(query, strategy=name,
                                deadline=time.monotonic() - 1.0)

    def test_selma_family_results_via_experts_or_parents(self, discoverer,
                                                         travel):
        msg = discoverer.discover(SELMA, "Barcelona family trip with babies")
        assert msg.items
        top_ids = [s.item_id for s in msg.items[:5]]
        barcelona_family = [
            i for i in top_ids
            if "barcelona" in str(i) and
            travel.graph.node(i).value("category") == "family"
        ]
        assert barcelona_family, f"expected Barcelona family items in {top_ids}"

    def test_alexia_has_two_endorser_communities(self, discoverer, travel):
        msg = discoverer.discover(ALEXIA, "history")
        endorsers = set()
        for scored in msg.items:
            endorsers |= set(msg.endorsers_of(scored.item_id))
        classmates = {
            l.src for l in travel.graph.in_links("grp:history-class")
            if l.has_type("member")
        } - {ALEXIA}
        assert endorsers & classmates
