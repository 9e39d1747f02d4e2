"""Deterministic pagination: page windows and cursor walks partition the
ranking with no duplicated or dropped items and stable tie-breaks."""

from __future__ import annotations

import pytest

from repro.api import SearchRequest, Session
from repro.workloads import ALEXIA, JOHN, TravelSiteConfig, build_travel_site

PAGE_SIZE = 4


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture(scope="module")
def session(travel):
    return Session.from_graph(travel.graph)


def full_ranking(session, user_id, text):
    """The complete combined ranking for a query, via the discovery layer."""
    ranking = session.discoverer.rank(
        session._parse(SearchRequest(user_id=user_id, text=text)),
        generation=session._fresh(),
    )
    return [s.item_id for s in ranking.items]


class TestPageWindows:
    @pytest.mark.parametrize("user_id,text", [
        (JOHN, "Denver attractions"),
        (ALEXIA, "history"),
        (JOHN, ""),  # recommendation mode paginates too
    ])
    def test_pages_partition_the_ranking(self, session, user_id, text):
        expected = full_ranking(session, user_id, text)
        collected: list = []
        page = 1
        while True:
            response = session.run(SearchRequest(
                user_id=user_id, text=text,
                page=page, page_size=PAGE_SIZE,
            ))
            collected.extend(response.items)
            if not response.page_info.has_next:
                break
            page += 1
        assert collected == expected  # order, no dups, nothing dropped
        assert len(set(collected)) == len(collected)

    def test_rerunning_a_page_is_deterministic(self, session):
        request = SearchRequest(
            user_id=JOHN, text="Denver attractions", page=2, page_size=3,
        )
        first = session.run(request)
        again = session.run(request)
        assert first.items == again.items
        assert [e.item_id for e in first.page.flat] == \
               [e.item_id for e in again.page.flat]

    def test_beyond_end_page_is_empty(self, session):
        total = len(full_ranking(session, JOHN, "Denver attractions"))
        beyond = total // PAGE_SIZE + 2
        response = session.run(SearchRequest(
            user_id=JOHN, text="Denver attractions",
            page=beyond, page_size=PAGE_SIZE,
        ))
        assert response.items == ()
        assert not response.page_info.has_next
        assert response.page_info.returned == 0

    def test_page_info_bookkeeping(self, session):
        response = session.run(SearchRequest(
            user_id=JOHN, text="Denver attractions", page=2, page_size=3,
        ))
        info = response.page_info
        assert info.page == 2
        assert info.offset == 3
        assert info.page_size == 3
        assert info.has_prev
        assert info.total_pages == -(-info.total_items // 3)


class TestCursorWalk:
    def test_cursor_chain_equals_page_walk(self, session):
        by_pages: list = []
        page = 1
        while True:
            response = session.run(SearchRequest(
                user_id=ALEXIA, text="history",
                page=page, page_size=PAGE_SIZE,
            ))
            by_pages.append(response.items)
            if not response.page_info.has_next:
                break
            page += 1

        by_cursor = []
        response = session.run(SearchRequest(
            user_id=ALEXIA, text="history", page_size=PAGE_SIZE,
        ))
        by_cursor.append(response.items)
        while response.page_info.next_cursor:
            response = session.run(SearchRequest(
                user_id=ALEXIA, text="history",
                cursor=response.page_info.next_cursor,
            ))
            by_cursor.append(response.items)
        assert by_cursor == by_pages

    def test_builder_pages_iterator(self, session):
        responses = list(
            session.query(ALEXIA).text("history").page_size(PAGE_SIZE).pages()
        )
        assert len(responses) >= 2
        flattened = [i for r in responses for i in r.items]
        assert flattened == full_ranking(session, ALEXIA, "history")
        assert responses[-1].page_info.next_cursor is None

    def test_pages_iterator_respects_max_pages(self, session):
        responses = list(
            session.query(ALEXIA).text("history")
            .page_size(2).pages(max_pages=2)
        )
        assert len(responses) == 2

    def test_last_page_has_no_cursor(self, session):
        big = session.run(SearchRequest(
            user_id=JOHN, text="Denver attractions", page_size=10_000,
        ))
        assert big.page_info.next_cursor is None
        assert not big.page_info.has_next

    def test_stale_cursor_rejected_after_refresh(self, travel):
        from repro.core import Node
        from repro.errors import QueryError

        session = Session.from_graph(travel.graph)
        first = session.run(SearchRequest(
            user_id=JOHN, text="Denver attractions", page_size=3,
        ))
        cursor = first.page_info.next_cursor
        assert cursor is not None
        session.data_manager.add_node(Node(
            "x:late", type="item, destination",
            name="Late Denver Attraction", keywords="denver attraction",
        ))
        with pytest.raises(QueryError, match="stale cursor"):
            session.run(SearchRequest(
                user_id=JOHN, text="Denver attractions", cursor=cursor,
            ))
        # restarting pagination sees the new ranking
        fresh = session.run(SearchRequest(
            user_id=JOHN, text="Denver attractions", page_size=3,
        ))
        assert fresh.page_info.next_cursor != cursor


class TestKBudget:
    def test_k_caps_pagination(self, session):
        pages = list(
            session.query(JOHN).text("Denver attractions")
            .limit(4).page_size(2).pages()
        )
        assert len(pages) == 2
        assert [len(p.items) for p in pages] == [2, 2]
        assert pages[0].page_info.total_items == 4
        assert pages[0].page_info.total_pages == 2
        assert pages[-1].page_info.next_cursor is None

    def test_k_budget_matches_unpaged_ranking_prefix(self, session):
        whole = session.run(SearchRequest(
            user_id=JOHN, text="Denver attractions", k=4,
        ))
        paged = list(
            session.query(JOHN).text("Denver attractions")
            .limit(4).page_size(2).pages()
        )
        assert [i for p in paged for i in p.items] == list(whole.items)

    def test_discover_respects_budget_with_page_size(self, session):
        msg = session.discover(SearchRequest(
            user_id=JOHN, text="Denver attractions", k=4,
            page_size=2, page=2,
        ))
        assert len(msg.items) == 2  # second (and last) window of the budget
