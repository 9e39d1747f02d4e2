"""Whole-``Session`` differential against the hand-executed oracle.

``tests/plan/test_social_parity.py`` holds the compiled *stages* equal to
``tests/oracle``; this suite holds what a caller actually gets — the
windowed item ids of ``Session.run`` and the three scores of every
returned item — equal to ``oracle.rank_reference`` plus plain list
slicing, across strategies × access preference × scan form × window
shapes.  The oracle shares nothing with ``repro.plan``: a disagreement
is a bug in the engine, the session's budgeting/windowing, or both.
"""

from __future__ import annotations

import pytest

import oracle
from repro.api import SearchRequest, Session, SessionConfig
from repro.discovery import parse_query
from repro.plan import CostModel
from repro.workloads import (
    ALEXIA,
    JOHN,
    SELMA,
    TravelSiteConfig,
    build_travel_site,
)

TOL = 1e-9

STRATEGIES = ("friends", "similar_users", "item_based")
QUERIES = (
    (JOHN, "Denver attractions"),
    (SELMA, "Barcelona family trip with babies"),
    (ALEXIA, ""),
)
#: (k, page, page_size): a hard budget, a deep page, and both at once
WINDOWS = ((5, 1, None), (None, 2, 4), (7, 2, 3), (None, 1, None))


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture(scope="module", params=(1, 2), ids=("shards=1", "shards=2"))
def session(request, travel):
    """The default session (row scans), and one configured ``shards=2``
    — an inert option — whose base scans all run columnar."""
    # item_similarity derives the sim_item links item_based scores over
    session = Session.from_graph(
        travel.graph,
        SessionConfig(shards=request.param,
                      auto_analyses=("item_similarity",)),
    )
    if request.param > 1:
        # the travel site sits under the columnar floor: lift it so the
        # scan path really reads the columnar view
        session.planner.cost_model = CostModel(columnar_scan_min_nodes=0.0)
    return session


@pytest.fixture(scope="module")
def reference(session):
    """Memoised oracle rankings over the session's working graph."""
    cache: dict = {}

    def rank(user, text, strategy):
        key = (user, text, strategy)
        if key not in cache:
            cache[key] = oracle.rank_reference(
                session.graph, parse_query(user, text), strategy,
                alpha=session.config.discovery.alpha,
            )
        return cache[key]

    return rank


def reference_window(ranking, k, page, page_size, max_results):
    items = ranking.items if k is None else ranking.items[:k]
    size = page_size or k or max_results
    offset = (page - 1) * size
    return items[offset:offset + size], len(items)


@pytest.mark.parametrize("use_index", (None, True, False))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_session_matches_the_reference_ranking(session, reference, strategy,
                                               use_index):
    max_results = session.config.discovery.max_results
    for user, text in QUERIES:
        ranking = reference(user, text, strategy)
        for k, page, page_size in WINDOWS:
            request = SearchRequest(
                user_id=user, text=text, strategy=strategy,
                use_index=use_index, k=k, page=page, page_size=page_size,
            )
            want, total = reference_window(
                ranking, k, page, page_size, max_results
            )
            response = session.run(request)
            context = (user, text, k, page, page_size)
            assert list(response.items) == [s.item_id for s in want], context
            assert response.page_info.total_items == total, context
            got = session.discover(request).items
            assert [s.item_id for s in got] == list(response.items), context
            for mine, theirs in zip(got, want):
                assert mine.semantic == pytest.approx(theirs.semantic, abs=TOL)
                assert mine.social == pytest.approx(theirs.social, abs=TOL)
                assert mine.combined == pytest.approx(theirs.combined, abs=TOL)
            assert response.page.used_expert_fallback \
                == ranking.used_expert_fallback, context
