"""The facade keeps its historical signatures and returns pages identical
to the session API — and to a hand-wired (pre-session) pipeline."""

from __future__ import annotations

import pytest

from repro import SocialScope
from repro.api import SearchRequest, Session
from repro.discovery import InformationDiscoverer
from repro.presentation import InformationOrganizer
from repro.socialscope import SocialScopeConfig
from repro.workloads import ALEXIA, JOHN, SELMA, TravelSiteConfig, build_travel_site


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture(scope="module")
def scope(travel):
    return SocialScope.from_graph(travel.graph)


def assert_pages_identical(a, b):
    assert a.query_text == b.query_text
    assert a.user_id == b.user_id
    assert a.chosen_dimension == b.chosen_dimension
    assert [
        (g.label, g.dimension, [(e.item_id, e.score) for e in g.entries])
        for g in a.groups
    ] == [
        (g.label, g.dimension, [(e.item_id, e.score) for e in g.entries])
        for g in b.groups
    ]
    assert [e.item_id for e in a.flat] == [e.item_id for e in b.flat]


CASES = [
    (JOHN, "Denver attractions", None, None),
    (SELMA, "Barcelona family trip with babies", None, None),
    (ALEXIA, "history", None, None),
    (JOHN, "attractions", "similar_users", None),
    (JOHN, "Denver attractions", None, 5),
    (JOHN, "", None, 5),  # recommendation mode
]


class TestFacadeMatchesSessionAPI:
    @pytest.mark.parametrize("user_id,text,strategy,k", CASES)
    def test_search_equals_structured_run(self, scope, user_id, text,
                                          strategy, k):
        old_style = scope.search(user_id, text, strategy=strategy, k=k)
        response = scope.run(SearchRequest(
            user_id=user_id, text=text, strategy=strategy, k=k,
        ))
        assert_pages_identical(old_style, response.page)

    def test_search_equals_builder_run(self, scope):
        old_style = scope.search(JOHN, "Denver attractions", k=10)
        built = (scope.query(JOHN).text("Denver attractions")
                 .limit(10).run())
        assert_pages_identical(old_style, built.page)

    def test_recommend_is_empty_query(self, scope):
        assert_pages_identical(
            scope.recommend(JOHN, k=5),
            scope.query(JOHN).limit(5).run().page,
        )


class TestFacadeMatchesHandWiredPipeline:
    """The strongest guarantee: identical output to the pre-session path
    (fresh discoverer + organizer, scan-based candidates)."""

    @pytest.mark.parametrize("user_id,text,strategy,k", CASES)
    def test_identical_pages(self, travel, scope, user_id, text, strategy, k):
        discoverer = InformationDiscoverer(scope.graph)
        organizer = InformationOrganizer()
        msg = discoverer.discover(user_id, text, strategy=strategy, k=k)
        expected = organizer.organize(msg)
        actual = scope.search(user_id, text, strategy=strategy, k=k)
        assert_pages_identical(expected, actual)

    def test_discover_still_returns_msg(self, scope, travel):
        discoverer = InformationDiscoverer(scope.graph)
        expected = discoverer.discover(JOHN, "Denver attractions", k=7)
        actual = scope.discover(JOHN, "Denver attractions", k=7)
        assert actual.item_ids == expected.item_ids
        assert [round(s.combined, 9) for s in actual.items] == \
               [round(s.combined, 9) for s in expected.items]

    def test_explore_still_returns_presenter(self, scope):
        presenter = scope.explore(ALEXIA, "history")
        assert presenter.groups


class TestLegacySurface:
    def test_config_alias_and_auto_analyses(self, travel):
        scope = SocialScope.from_graph(
            travel.graph,
            SocialScopeConfig(auto_analyses=("item_similarity",)),
        )
        assert any(l.has_type("sim_item") for l in scope.graph.links())
        page = scope.search(JOHN, "attractions", strategy="item_based")
        assert page is not None

    def test_layer_attributes_still_reachable(self, scope):
        assert scope.discoverer is not None
        assert scope.organizer is not None
        assert scope.analyzer is not None
        assert scope.data_manager is not None

    def test_facade_is_warm_between_calls(self, travel):
        scope = SocialScope.from_graph(travel.graph)
        scope.search(JOHN, "Denver attractions")
        scope.search(JOHN, "museum")
        scope.recommend(JOHN)
        assert scope.session.stats.queries == 3
        assert scope.session.stats.tfidf_builds == 1
