"""Tests for grouping mechanisms, meaningfulness, and ranking (§7)."""

from __future__ import annotations

import pytest

from repro.discovery import InformationDiscoverer
from repro.presentation import (
    MeaningfulnessWeights,
    ResultSelector,
    balance_score,
    choose_grouping,
    count_score,
    endorser_group_grouping,
    meaningfulness,
    quality_score,
    social_grouping,
    structural_grouping,
    topical_grouping,
)
from repro.workloads import ALEXIA, JOHN, TravelSiteConfig, build_travel_site


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture(scope="module")
def john_msg(travel):
    return InformationDiscoverer(travel.graph).discover(
        JOHN, "Denver attractions"
    )


@pytest.fixture(scope="module")
def alexia_msg(travel):
    return InformationDiscoverer(travel.graph).discover(ALEXIA, "history")


class TestGroupings:
    def test_social_grouping_partitions(self, john_msg):
        grouping = social_grouping(john_msg, theta=0.3)
        assert grouping.covers(john_msg.item_ids)
        assert grouping.num_groups >= 1

    def test_social_grouping_theta_extremes(self, john_msg):
        ungrouped = social_grouping(john_msg, theta=1.01)
        merged = social_grouping(john_msg, theta=0.0)
        assert ungrouped.num_groups >= merged.num_groups
        assert merged.num_groups == 1

    def test_structural_grouping_by_category(self, john_msg, travel):
        grouping = structural_grouping(john_msg, "category")
        assert grouping.covers(john_msg.item_ids)
        for group in grouping.groups:
            values = {
                str(travel.graph.node(i).value("category", "(none)"))
                for i in group.items
            }
            assert len(values) == 1

    def test_structural_grouping_by_city(self, john_msg):
        grouping = structural_grouping(john_msg, "city")
        assert grouping.covers(john_msg.item_ids)
        assert all(g.label.startswith("city:") for g in grouping.groups)

    def test_topical_grouping_without_topics_is_misc(self, john_msg):
        grouping = topical_grouping(john_msg)
        assert grouping.covers(john_msg.item_ids)
        assert any(g.label == "other topics" for g in grouping.groups)

    def test_endorser_grouping_alexia(self, alexia_msg, travel):
        grouping = endorser_group_grouping(alexia_msg)
        assert alexia_msg.base is travel.graph
        labels = {g.label for g in grouping.groups}
        assert any("history class" in label for label in labels)
        assert grouping.covers(alexia_msg.item_ids)


class TestMeaningfulness:
    def test_count_score_prefers_ideal(self):
        weights = MeaningfulnessWeights(ideal_groups=4, max_groups=8)
        assert count_score(4, weights) == 1.0
        assert count_score(1, weights) == 0.0
        assert count_score(8, weights) < count_score(4, weights)
        assert count_score(20, weights) <= count_score(8, weights)

    def test_balance_prefers_even_groups(self, john_msg):
        even = structural_grouping(john_msg, "category")
        lopsided = social_grouping(john_msg, theta=0.0)  # one big group
        assert balance_score(even) > balance_score(lopsided)

    def test_quality_uses_msg_scores(self, john_msg):
        grouping = structural_grouping(john_msg, "category")
        assert quality_score(grouping, john_msg) > 0

    def test_meaningfulness_in_unit_interval(self, john_msg):
        for grouping in (
            social_grouping(john_msg, 0.3),
            structural_grouping(john_msg, "category"),
        ):
            value = meaningfulness(grouping, john_msg)
            assert 0.0 <= value <= 1.0

    def test_choose_grouping_returns_best(self, john_msg):
        candidates = [
            social_grouping(john_msg, 0.3),
            structural_grouping(john_msg, "category"),
            topical_grouping(john_msg),
        ]
        winner, scores = choose_grouping(candidates, john_msg)
        assert winner.dimension in scores
        assert scores[winner.dimension] == max(scores.values())

    def test_choose_grouping_requires_candidates(self, john_msg):
        with pytest.raises(ValueError):
            choose_grouping([], john_msg)


class TestResultSelector:
    def test_rank_within_descending(self, john_msg):
        grouping = structural_grouping(john_msg, "category")
        selector = ResultSelector()
        ranked = selector.rank_within(grouping.groups[0], john_msg)
        scores = [s for _, s in ranked.items]
        assert scores == sorted(scores, reverse=True)

    def test_rank_groups_by_mean_relevance(self, john_msg):
        grouping = structural_grouping(john_msg, "category")
        ranked = ResultSelector().rank_groups(grouping, john_msg)
        means = [g.group_score for g in ranked]
        assert means == sorted(means, reverse=True)

    def test_interleave_round_robin(self, john_msg):
        grouping = structural_grouping(john_msg, "category")
        selector = ResultSelector()
        ranked = selector.rank_groups(grouping, john_msg)
        flat = selector.interleave(ranked, 6)
        assert len(flat) <= 6
        assert len({i for i, _ in flat}) == len(flat)  # no duplicates
        if len(ranked) >= 2 and len(flat) >= 2:
            # first two entries come from two different groups
            first_group = {i for i, _ in ranked[0].items}
            assert flat[1][0] not in first_group or len(ranked) == 1
