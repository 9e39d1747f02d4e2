"""Tests for explanations, hierarchy, and the Information Organizer."""

from __future__ import annotations

import pytest

from repro.discovery import InformationDiscoverer
from repro.errors import PresentationError
from repro.presentation import (
    COLLABORATIVE,
    InformationOrganizer,
    OrganizerConfig,
    explain_collaborative,
    explain_content_based,
    explain_group,
    item_similarity,
    user_similarity,
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


class TestSimilarities:
    def test_user_similarity_zero_for_unrelated(self, travel):
        # Two users with disjoint activity sets.
        assert user_similarity(travel.graph, JOHN, "grp:soccer-team") == 0.0

    def test_item_similarity_from_taggers(self, tiny_travel_graph):
        # d1 {101,102,103,104} vs d3 {101,102,104} -> 3/4.
        assert item_similarity(tiny_travel_graph, "d1", "d3") == pytest.approx(0.75)

    def test_derived_link_preferred(self, tiny_travel_graph):
        from repro.analysis import item_similarity_links
        from repro.core import union

        enriched = union(
            tiny_travel_graph,
            item_similarity_links(tiny_travel_graph, threshold=0.7),
        )
        assert item_similarity(enriched, "d1", "d3") == pytest.approx(0.75)


class TestItemExplanations:
    def test_cf_explanation_formula(self, tiny_travel_graph):
        # Expl(u,i) = {u' | UserSim(u,u')>0 & i ∈ Items(u')}
        explanation = explain_collaborative(tiny_travel_graph, 101, "d2")
        # d2 was visited by Ann(102) and Bob(103); both share items with John.
        assert set(explanation.supporters) == {102, 103}

    def test_cf_weights_are_sim_times_rating(self, tiny_travel_graph):
        explanation = explain_collaborative(tiny_travel_graph, 101, "d2")
        # Ann: Jaccard(101,102)=2/3, rating default 1.0
        assert explanation.supporters[102] == pytest.approx(2 / 3, abs=1e-4)

    def test_friends_only_aggregate_text(self, tiny_travel_graph):
        explanation = explain_collaborative(
            tiny_travel_graph, 101, "d2", friends_only=True
        )
        # John's friends: Ann, Bob; both endorsed d2 -> 100%.
        assert "100% of your friends" in explanation.aggregate_text

    def test_content_based_explanation(self, tiny_travel_graph):
        explanation = explain_content_based(tiny_travel_graph, 101, "d2")
        # John's items d1, d3 both share taggers with d2.
        assert set(explanation.supporters) == {"d1", "d3"}
        assert "similar to" in explanation.aggregate_text

    def test_top_supporters(self, tiny_travel_graph):
        explanation = explain_collaborative(tiny_travel_graph, 101, "d2")
        top = explanation.top(1)
        assert len(top) == 1 and top[0][0] == 102  # Ann is more similar


class TestGroupExplanations:
    def test_aggregates_over_items(self, tiny_travel_graph):
        result = explain_group(
            tiny_travel_graph, 101, "test group", ["d2", "d4"],
            kind=COLLABORATIVE,
        )
        assert result.coverage == 1.0
        assert result.top_supporters
        assert "strongest endorser" in result.text

    def test_empty_group(self, tiny_travel_graph):
        result = explain_group(tiny_travel_graph, 101, "empty", [])
        assert result.coverage == 0.0


class TestOrganizer:
    def test_page_structure(self, travel, john_msg):
        organizer = InformationOrganizer()
        page = organizer.organize(john_msg)
        assert page.groups
        assert page.chosen_dimension in page.dimension_scores
        assert page.flat
        displayed = set(page.all_items)
        assert displayed == set(john_msg.item_ids)

    def test_entries_have_explanations(self, travel, john_msg):
        organizer = InformationOrganizer()
        page = organizer.organize(john_msg)
        some_entries = [e for g in page.groups for e in g.entries][:5]
        assert all(e.explanation is not None for e in some_entries)

    def test_group_explanations_attached(self, travel, john_msg):
        page = InformationOrganizer().organize(john_msg)
        assert all(g.explanation is not None for g in page.groups)

    def test_empty_msg_yields_empty_page(self, travel):
        msg = InformationDiscoverer(travel.graph).discover(
            JOHN, "zzz qqq nonexistent"
        )
        page = InformationOrganizer().organize(msg)
        assert page.groups == [] and page.flat == []

    def test_alexia_page_groups_by_endorser(self, travel):
        msg = InformationDiscoverer(travel.graph).discover(ALEXIA, "history")
        page = InformationOrganizer().organize(msg)
        assert page.chosen_dimension == "endorser"
        labels = {g.label for g in page.groups}
        assert any("history class" in label for label in labels)

    def test_custom_facets(self, travel, john_msg):
        config = OrganizerConfig(structural_facets=("city",))
        organizer = InformationOrganizer(config)
        page = organizer.organize(john_msg)
        assert "structural:category" not in page.dimension_scores


class TestHierarchy:
    def test_zoom_in_and_out(self, travel, john_msg):
        organizer = InformationOrganizer()
        presenter = organizer.hierarchy(john_msg)
        assert presenter.depth == 1
        root_groups = presenter.groups
        assert root_groups
        target = max(root_groups, key=lambda g: g.size)
        frame = presenter.zoom_in(target.label)
        assert presenter.depth == 2
        zoomed_items = {i for g in frame.grouping.groups for i in g.items}
        assert zoomed_items == set(target.items)
        # the sub-grouping uses a different base dimension than the root
        root_dim = root_groups[0].dimension.split(":")[0]
        sub_dim = frame.grouping.dimension.split(":")[0]
        assert sub_dim != root_dim
        presenter.zoom_out()
        assert presenter.depth == 1

    def test_zoom_unknown_group(self, travel, john_msg):
        presenter = InformationOrganizer().hierarchy(john_msg)
        with pytest.raises(PresentationError):
            presenter.zoom_in("no such group")

    def test_zoom_out_at_root_is_noop(self, travel, john_msg):
        presenter = InformationOrganizer().hierarchy(john_msg)
        presenter.zoom_out()
        assert presenter.depth == 1

    def test_breadcrumbs(self, travel, john_msg):
        presenter = InformationOrganizer().hierarchy(john_msg)
        target = presenter.groups[0]
        presenter.zoom_in(target.label)
        assert presenter.breadcrumbs == ["all results", target.label]
