"""Session engine: warm reuse, incremental refresh, overrides, batching,
and index-backed vs. scan-based candidate parity."""

from __future__ import annotations

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.e2e.harness import canonical_response
from repro.analysis import user_similarity_links
from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Link, Node
from repro.discovery import DiscoveryConfig, SimilarUserStrategy
from repro.errors import DiscoveryError, PresentationError, QueryError
from repro.workloads import ALEXIA, JOHN, TravelSiteConfig, build_travel_site


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture()
def session(travel):
    return Session.from_graph(travel.graph)


def pages_equal(a, b) -> bool:
    """Structural equality of two result pages."""
    return (
        a.chosen_dimension == b.chosen_dimension
        and [(g.label, [(e.item_id, e.score) for e in g.entries])
             for g in a.groups]
        == [(g.label, [(e.item_id, e.score) for e in g.entries])
            for g in b.groups]
        and [e.item_id for e in a.flat] == [e.item_id for e in b.flat]
    )


class TestWarmReuse:
    def test_repeated_queries_build_tfidf_once(self, session):
        for text in ("Denver attractions", "museum", "history", "baseball"):
            session.run(SearchRequest(user_id=JOHN, text=text))
        assert session.stats.queries == 4
        assert session.stats.tfidf_builds == 1
        assert session.stats.index_builds == 1
        assert session.stats.refreshes == 0

    def test_semantic_index_cached_across_queries(self, session):
        session.run(SearchRequest(user_id=JOHN, text="Denver attractions"))
        first = session.semantic_index
        session.run(SearchRequest(user_id=JOHN, text="museum"))
        assert session.semantic_index is first


    def test_a_dropped_session_is_freed_without_the_cycle_collector(
        self, travel
    ):
        """The planner's index providers must not hold their session: a
        replaced or restored session — graphs, indexes and all — goes when
        its last reference goes, not at the next full collection."""
        gc.collect()
        gc.disable()
        try:
            session = Session.from_graph(travel.graph)
            session.run(SearchRequest(user_id=JOHN, text="museum",
                                      use_index=True))
            session.run(SearchRequest(user_id=JOHN, text="museum",
                                      use_index=False))
            gone = weakref.ref(session)
            del session
            assert gone() is None
        finally:
            gc.enable()


class TestIncrementalRefresh:
    def test_analyze_invalidates_lazily(self, session):
        session.run(SearchRequest(user_id=JOHN, text="Denver attractions"))
        epoch_before = session.epoch
        session.analyze("user_similarity")
        session.analyze("item_similarity")  # back-to-back: still one refresh
        assert session.epoch == epoch_before  # nothing rebuilt yet
        session.run(SearchRequest(user_id=JOHN, text="Denver attractions"))
        assert session.epoch == epoch_before + 1
        assert session.stats.refreshes == 1
        assert session.stats.tfidf_builds == 2  # rebuilt once, post-refresh

    def test_direct_datamanager_writes_detected(self, session):
        session.run(SearchRequest(user_id=JOHN, text="special"))
        session.data_manager.add_node(Node(
            "x:new", type="item, destination", name="Special Denver Spot",
            keywords="special denver attraction",
        ))
        response = session.run(SearchRequest(user_id=JOHN, text="special"))
        assert session.graph.has_node("x:new")
        assert response.page_info.total_items >= 1
        assert session.stats.refreshes == 1

    def test_analyses_rederived_after_direct_write(self, travel):
        session = Session.from_graph(
            travel.graph, SessionConfig(auto_analyses=("item_similarity",))
        )
        session.run(SearchRequest(user_id=JOHN, text="denver"))
        assert any(l.has_type("sim_item") for l in session.graph.links())
        session.data_manager.add_node(Node(
            "x:extra", type="item, destination", name="Extra Spot",
        ))
        session.run(SearchRequest(user_id=JOHN, text="denver"))
        # the resync re-derived the enrichment instead of dropping it
        assert session.graph.has_node("x:extra")
        assert any(l.has_type("sim_item") for l in session.graph.links())

    def test_discoverer_and_organizer_survive_refresh(self, session):
        discoverer = session.discoverer
        organizer = session.organizer
        session.analyze("user_similarity")
        session.run(SearchRequest(user_id=JOHN, text="Denver"))
        # incremental refresh retargets the same components
        assert session.discoverer is discoverer
        assert session.organizer is organizer
        # the organizer holds no graph: a page reads the served graph its
        # MSG was cut from, which is the session's
        msg = session.discover(SearchRequest(user_id=JOHN, text="Denver"))
        assert msg.base is session.graph is discoverer.generation.graph
        assert any(l.has_type("sim_user") for l in msg.base.links())

    def test_an_analysis_after_a_write_derives_once(self, travel):
        """An analysis asked for after a write no request has followed
        derives over the written site, once: the next run keeps it."""
        derivations = []

        def counted(graph):
            derivations.append(graph)
            return user_similarity_links(graph, basis="items")

        session = Session.from_graph(travel.graph)
        session.analyzer.register("user_similarity", counted)
        request = SearchRequest(user_id=JOHN, text="Denver attractions")
        session.run(request)
        session.data_manager.add_link(
            Link("vote:analyze", ALEXIA, "attr:denver:history:2",
                 type="act, visit")
        )
        session.analyze("user_similarity")
        response = session.run(request)
        assert len(derivations) == 1
        assert derivations[0].has_link("vote:analyze")

        fresh = Session.from_graph(session.data_manager.store.snapshot())
        fresh.analyze("user_similarity")
        assert canonical_response(response) == \
            canonical_response(fresh.run(request))


class TestOneGenerationPerRequest:
    """A request reads the generation it pinned at entry, start to end.

    A write and a second request land in the middle of the first one —
    before its ranking or before its page.  The first response still
    equals a fresh session's from before the write, and its cursor names
    the pinned generation, which the next request refuses as stale."""

    REQUEST = SearchRequest(user_id=101, text="denver", page_size=1)
    WRITES = {
        "vote": lambda dm: dm.add_link(
            Link("w", 103, "d3", type="act, visit")),
        "new-item": lambda dm: dm.add_node(Node(
            "d5", type="item, destination", name="Denver Mint",
            keywords="denver mint")),
    }

    @pytest.mark.parametrize("stage", ["rank", "organize"])
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_request_reads_the_generation_it_pinned(
        self, stage, write, tiny_travel_graph
    ):
        from benchmarks.e2e.harness import canonical_response, first_difference
        from repro.api.request import decode_cursor

        expected = Session.from_graph(tiny_travel_graph.copy()).run(
            self.REQUEST
        )
        session = Session.from_graph(tiny_travel_graph)
        layer = session.discoverer if stage == "rank" else session.organizer
        inner = getattr(layer, stage)
        fired = []

        def interrupted(*args, **kwargs):
            if not fired:
                fired.append(True)
                self.WRITES[write](session.data_manager)
                session.run(SearchRequest(user_id=102, text="denver"))
            return inner(*args, **kwargs)

        setattr(layer, stage, interrupted)
        response = session.run(self.REQUEST)
        assert fired
        assert first_difference(canonical_response(response),
                                canonical_response(expected)) is None
        assert session.epoch == 1  # the inner request published one
        cursor = response.page_info.next_cursor
        assert response.resolved["epoch"] == decode_cursor(cursor)[2] == 0
        with pytest.raises(QueryError, match="stale cursor"):
            session.run(self.REQUEST.replace(cursor=cursor))


class TestRequestOverrides:
    def test_alpha_override_changes_blend(self, session):
        semantic_only = session.run(
            SearchRequest(user_id=JOHN, text="Denver attractions", alpha=1.0)
        )
        social_only = session.run(
            SearchRequest(user_id=JOHN, text="Denver attractions", alpha=0.0)
        )
        assert semantic_only.items != () and social_only.items != ()
        assert semantic_only.resolved["alpha"] == 1.0
        assert social_only.resolved["alpha"] == 0.0
        assert semantic_only.items != social_only.items

    def test_strategy_override_reaches_response(self, session):
        response = session.query(JOHN).text("attractions").strategy("cf").run()
        assert response.resolved["strategy"] == "cf"
        assert response.page.flat

    def test_k_override_bounds_window(self, session):
        response = session.run(
            SearchRequest(user_id=JOHN, text="Denver attractions", k=3)
        )
        assert len(response.items) <= 3
        assert response.page_info.page_size == 3

    def test_grouping_override_forces_dimension(self, session):
        response = session.run(SearchRequest(
            user_id=ALEXIA, text="history", grouping="structural:city",
        ))
        assert response.page.chosen_dimension == "structural:city"
        free = session.run(SearchRequest(user_id=ALEXIA, text="history"))
        assert free.page.chosen_dimension == "endorser"

    def test_unknown_grouping_dimension_raises(self, session):
        with pytest.raises(PresentationError):
            session.run(SearchRequest(
                user_id=JOHN, text="denver", grouping="nope",
            ))

    def test_unknown_grouping_raises_even_on_empty_results(self, session):
        with pytest.raises(PresentationError):
            session.run(SearchRequest(
                user_id=JOHN, text="zzz-no-such-term", grouping="nope",
            ))

    def test_flat_list_covers_explicit_window(self, session):
        response = session.query(JOHN).text("Denver attractions").limit(15).run()
        assert len(response.items) == 15
        assert [e.item_id for e in response.page.flat] == list(response.items)
        # unsized requests keep the configured flat cap (facade behavior)
        default = session.run(SearchRequest(user_id=JOHN, text="Denver attractions"))
        assert len(default.page.flat) == session.config.organizer.flat_k

    def test_config_defaults_apply_when_unset(self, travel):
        config = SessionConfig(
            discovery=DiscoveryConfig(alpha=0.9, max_results=7)
        )
        session = Session.from_graph(travel.graph, config)
        response = session.run(SearchRequest(user_id=JOHN, text="denver"))
        assert response.resolved["alpha"] == 0.9
        assert response.page_info.page_size == 7

    @pytest.mark.parametrize("overrides", [
        {"max_results": 0}, {"max_results": -3}, {"max_results": True},
        {"max_results": 2.5},
        {"alpha": 1.5}, {"alpha": -1}, {"alpha": "x"}, {"alpha": True},
        {"strategy": 7}, {"strategy": "tarot"},
        {"drop_zero": "no"},
    ], ids=lambda o: "{}={!r}".format(*next(iter(o.items()))))
    def test_invalid_discovery_config_fails_at_construction(self, travel,
                                                            overrides):
        # Typed and before the first query — not a ZeroDivisionError from
        # the page arithmetic, a negative slice or a score above 1 later.
        # An unknown strategy *name* is the discoverer's to judge: it owns
        # the registry.
        with pytest.raises((QueryError, DiscoveryError)):
            Session.from_graph(
                travel.graph,
                SessionConfig(discovery=DiscoveryConfig(**overrides)),
            )

    @pytest.mark.parametrize("params", [
        {"sim_threshold": -0.1}, {"sim_threshold": float("nan")},
        {"sim_threshold": "0.1"}, {"sim_threshold": None},
        {"sim_threshold": True},
        {"act_type": ""}, {"act_type": None}, {"act_type": 7},
    ], ids=lambda p: "{}={!r}".format(*next(iter(p.items()))))
    def test_invalid_cf_parameters_fail_at_construction(self, params):
        # Only co-actors can be similar, so a negative threshold has no
        # meaning; NaN compares false against every similarity; an empty
        # act_type matches every link in the recipe's conditions.
        with pytest.raises(QueryError):
            SimilarUserStrategy(**params)

    def test_cf_parameters_are_kept_as_given(self):
        record = SimilarUserStrategy(sim_threshold=0, act_type="act")
        assert (record.sim_threshold, record.act_type) == (0, "act")
        assert SimilarUserStrategy(sim_threshold=1.0).sim_threshold == 1.0


class TestIndexVsScanParity:
    QUERIES = ("Denver attractions", "museum history", "baseball",
               "family trip", "art galleries")

    def test_identical_pages_both_paths(self, session):
        for text in self.QUERIES:
            indexed = session.run(SearchRequest(user_id=JOHN, text=text))
            scanned = session.run(
                SearchRequest(user_id=JOHN, text=text, use_index=False)
            )
            assert indexed.index_used and not scanned.index_used
            assert indexed.items == scanned.items
            assert pages_equal(indexed.page, scanned.page)

    def test_structural_queries_take_scan_path(self, session):
        response = session.run(SearchRequest(
            user_id=JOHN, text="denver",
            structural={"type": "destination"},
        ))
        assert not response.index_used

    def test_recommendations_take_scan_path(self, session):
        response = session.run(SearchRequest(user_id=JOHN))
        assert not response.index_used
        assert response.page.flat


class TestConcurrentRun:
    def requests(self):
        return [
            SearchRequest(user_id=JOHN, text="Denver attractions", k=5),
            SearchRequest(user_id=ALEXIA, text="history"),
            SearchRequest(user_id=JOHN),  # recommendation
            SearchRequest(user_id=JOHN, text="museum", alpha=1.0),
        ]

    def test_concurrent_run_matches_sequential_run(self, session):
        # concurrent Session.run on one warm session is what the gateway does
        sequential = [session.run(r) for r in self.requests()]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(session.run, self.requests()))
        assert [r.items for r in threaded] == [r.items for r in sequential]
        for t, s in zip(threaded, sequential):
            assert pages_equal(t.page, s.page)
