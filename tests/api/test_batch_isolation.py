"""``RequestFailure`` — one request's failure as a typed value.

The gateway resolves a request whose evaluation raised to a
:class:`~repro.api.RequestFailure` instead of letting the exception take
down the dispatcher (``tests/serve/test_gateway.py`` drives that path).
The deterministic failure used here is a cursor minted at a bogus refresh
epoch, which ``Session._window`` rejects with ``QueryError: stale cursor``.
"""

from __future__ import annotations

import pytest

from repro.api import RequestFailure, SearchRequest, Session, encode_cursor
from repro.errors import QueryError
from repro.workloads import JOHN, TravelSiteConfig, build_travel_site


@pytest.fixture(scope="module")
def session():
    return Session.from_graph(build_travel_site(TravelSiteConfig(seed=42)).graph)


def caught_failure(session: Session) -> RequestFailure:
    """A failure built the way the gateway builds one: from a caught error."""
    request = SearchRequest(
        user_id=JOHN, text="denver", cursor=encode_cursor(0, 5, epoch=999)
    )
    try:
        session.run(request)
    except QueryError as exc:
        return RequestFailure(
            request=request,
            kind=type(exc).__name__,
            message=str(exc),
            error=exc,
        )
    raise AssertionError("a stale cursor must be rejected")


class TestRequestFailureValue:
    def test_raise_without_cause_wraps_as_query_error(self):
        failure = RequestFailure(
            request=SearchRequest(user_id=JOHN),
            kind="ValueError",
            message="boom",
        )
        with pytest.raises(QueryError, match="ValueError: boom"):
            failure.raise_()

    def test_cause_excluded_from_equality(self, session):
        a = caught_failure(session)
        b = caught_failure(session)
        assert a.error is not b.error
        assert a == b  # `error` is compare=False: equality is semantic
        assert (a.ok, a.kind) == (False, "QueryError")
        with pytest.raises(QueryError, match="stale cursor"):
            a.raise_()
