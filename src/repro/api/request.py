"""Structured query requests and responses for the session API.

The paper's Figure 1 is a serving loop — query in, organized result page
out — so the request is a first-class value: a frozen
:class:`SearchRequest` carrying everything one evaluation needs (the user,
the content/structural query, per-request overrides of the discovery
tunables, and a pagination window).  Being frozen and value-like, requests
hash, dedupe, replay and batch cleanly.

Responses pair the organized :class:`~repro.presentation.ResultPage` with
:class:`PageInfo` (deterministic pagination bookkeeping plus an opaque
continuation cursor) and per-query evaluation notes.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping

from repro.core import Condition, Id, as_condition
from repro.errors import QueryError, RestartCursorError
from repro.plan import PlanExplain
from repro.presentation import ResultGroup, ResultPage


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SearchRequest:
    """One structured query against a session.

    Fields beyond ``user_id`` are optional; ``None`` means "use the
    session's configured default".  ``page``/``page_size`` select a window
    of the full deterministic ranking; a ``cursor`` (from a previous
    response's :attr:`PageInfo.next_cursor`) overrides ``page``.
    """

    user_id: Id
    text: str = ""
    structural: Condition | None = None
    #: social strategy name (session default when None)
    strategy: str | None = None
    #: semantic weight α ∈ [0, 1] (session default when None)
    alpha: float | None = None
    #: hard budget on the ranked list: at most k items exist across all
    #: pages; also the default window size (max_results when None)
    k: int | None = None
    #: force a grouping dimension ("social", "topical", "endorser",
    #: "structural:<facet>"); None lets §7.1 meaningfulness choose
    grouping: str | None = None
    #: 1-based page number over windows of ``page_size``
    page: int = 1
    #: window size (defaults to ``k`` or the discovery max_results)
    page_size: int | None = None
    #: opaque continuation token; takes precedence over ``page``
    cursor: str | None = None
    #: route keyword scoping through the semantic index (None = auto: the
    #: compiler's cost model chooses; True forces the index where eligible;
    #: False refuses it).  Only the keyword stage has an index: the social
    #: stage runs one form per strategy either way
    use_index: bool | None = None
    #: attach the executed physical plan (per-operator estimated vs. actual
    #: cardinalities, rewrites, access path) to the response
    explain: bool = False

    def __post_init__(self) -> None:
        if self.user_id is None:
            raise QueryError("a search request needs a requesting user")
        try:
            hash(self.user_id)
        except TypeError:
            raise QueryError(
                f"user_id must be hashable, got {self.user_id!r}"
            ) from None
        if not isinstance(self.text, str):
            raise QueryError(f"text must be a str, got {self.text!r}")
        if isinstance(self.structural, Mapping):
            object.__setattr__(self, "structural", as_condition(self.structural))
        for name in ("strategy", "grouping", "cursor"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise QueryError(f"{name} must be a str or None, got {value!r}")
        # a truthy non-bool ("no") would silently force the index
        if self.use_index is not None and not isinstance(self.use_index, bool):
            raise QueryError(
                f"use_index must be a bool or None, got {self.use_index!r}"
            )
        if not isinstance(self.explain, bool):
            raise QueryError(f"explain must be a bool, got {self.explain!r}")
        if self.alpha is not None and not (
            (_is_int(self.alpha) or isinstance(self.alpha, float))
            and 0.0 <= self.alpha <= 1.0
        ):
            raise QueryError(
                f"alpha must be a number in [0, 1], got {self.alpha!r}"
            )
        # window fields slice the ranking: a float (or a bool, which
        # *is* an int) must be refused here, not after the plan has run
        if self.k is not None and not (_is_int(self.k) and self.k > 0):
            raise QueryError(f"k must be a positive int, got {self.k!r}")
        if not (_is_int(self.page) and self.page >= 1):
            raise QueryError(f"page is a 1-based int, got {self.page!r}")
        if self.page_size is not None and not (
            _is_int(self.page_size) and self.page_size > 0
        ):
            raise QueryError(
                f"page_size must be a positive int, got {self.page_size!r}"
            )

    # -- derivation ----------------------------------------------------------

    def replace(self, **changes: Any) -> "SearchRequest":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)

    def next_page(self) -> "SearchRequest":
        """The request for the following page (cursor cleared)."""
        return self.replace(page=self.page + 1, cursor=None)

    @property
    def is_recommendation(self) -> bool:
        """True for the empty query (§4's pure-social mode)."""
        return not self.text and self.structural is None


@dataclass(frozen=True)
class PageInfo:
    """Deterministic pagination bookkeeping for one response."""

    page: int
    page_size: int
    offset: int
    returned: int
    total_items: int
    next_cursor: str | None = None

    @property
    def total_pages(self) -> int:
        """Number of non-empty pages in the full ranking."""
        if self.total_items == 0:
            return 0
        return -(-self.total_items // self.page_size)

    @property
    def has_next(self) -> bool:
        """True when a later window still holds items."""
        return self.offset + self.returned < self.total_items

    @property
    def has_prev(self) -> bool:
        return self.offset > 0


@dataclass(frozen=True)
class SearchResponse:
    """The organized answer to one :class:`SearchRequest`."""

    request: SearchRequest
    page: ResultPage
    page_info: PageInfo
    #: ranked item ids of this window (the pre-grouping order)
    items: tuple[Id, ...] = ()
    #: True when candidates came from the semantic index, not a scan
    index_used: bool = False
    #: resolved evaluation parameters (strategy, alpha, window)
    resolved: Mapping[str, Any] = field(default_factory=dict)
    #: the executed physical plan (only under ``request.explain=True``)
    plan: PlanExplain | None = None

    def __iter__(self) -> Iterator:
        """Iterate the window's ranked flat entries."""
        return iter(self.page.flat)

    @property
    def ok(self) -> bool:
        """True — the outcome discriminator (see RequestFailure)."""
        return True

    @property
    def groups(self) -> list[ResultGroup]:
        """The page's ranked result groups."""
        return self.page.groups


@dataclass(frozen=True)
class RequestFailure:
    """One request's failure, as a value instead of a raised exception.

    The gateway resolves a request's future to one of these in place of
    the :class:`SearchResponse` whose evaluation raised, so a single
    malformed request (stale cursor, unknown strategy) cannot take down
    a dispatcher it shares with unrelated tenants.  ``kind``/``message`` are
    the stable, serialisable identity of the failure; the original
    exception rides along for callers that re-raise (excluded from
    equality — two failures match when the same request failed the same
    way).
    """

    request: SearchRequest
    #: exception class name, e.g. ``"QueryError"``
    kind: str
    message: str
    error: Exception | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """False — the outcome discriminator (responses are truthy)."""
        return False

    def raise_(self) -> None:
        """Re-raise the original exception (or a reconstructed one)."""
        if self.error is not None:
            raise self.error
        raise QueryError(f"{self.kind}: {self.message}")


# ---------------------------------------------------------------------------
# Cursors: opaque, stateless continuation tokens
# ---------------------------------------------------------------------------


def encode_cursor(offset: int, page_size: int, epoch: int,
                  boot: int = 0) -> str:
    """Pack a continuation point into an opaque url-safe token.

    The *epoch* records the session's refresh generation at response time;
    the engine rejects cursors minted under an earlier generation (the
    ranking they point into no longer exists).  The *boot* token records
    the site incarnation (bumped on every restore from a snapshot): epoch
    counters restart across a crash, so without it a pre-crash cursor
    could alias a fresh epoch and silently page through a different
    ranking.  Boot 0 (a never-restored site) is omitted from the payload,
    keeping those tokens byte-identical to the pre-durability format.
    """
    payload_map: dict[str, int] = {"o": offset, "s": page_size, "e": epoch}
    if boot:
        payload_map["b"] = boot
    payload = json.dumps(payload_map, separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode()).decode().rstrip("=")


def decode_cursor(cursor: str,
                  expected_boot: int | None = None) -> tuple[int, int, int]:
    """Unpack (offset, page_size, epoch); raises QueryError on junk.

    When *expected_boot* is given, a token minted by a different site
    incarnation raises :class:`~repro.errors.RestartCursorError` — the
    typed signal that the client must re-issue the query, not just
    re-page (plain epoch staleness stays a generic
    :class:`~repro.errors.QueryError`).
    """
    try:
        padded = cursor + "=" * (-len(cursor) % 4)
        payload = json.loads(base64.urlsafe_b64decode(padded.encode()))
        offset, size, epoch = payload["o"], payload["s"], payload["e"]
        boot = payload.get("b", 0)
    except Exception as exc:
        raise QueryError(f"malformed cursor {cursor!r}") from exc
    # a JSON ``true`` is an int to isinstance; it is not a window bound
    if not all(map(_is_int, (offset, size, epoch, boot))) \
            or offset < 0 or size <= 0:
        raise QueryError(f"malformed cursor {cursor!r}")
    if expected_boot is not None and boot != expected_boot:
        raise RestartCursorError(
            f"cursor was minted by site incarnation {boot}, but this is "
            f"incarnation {expected_boot} — the ranking it pages through "
            f"did not survive the restart; re-issue the query"
        )
    return offset, size, epoch


__all__ = [
    "SearchRequest",
    "SearchResponse",
    "RequestFailure",
    "PageInfo",
    "encode_cursor",
    "decode_cursor",
]
