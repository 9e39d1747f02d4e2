"""The session-based query API — SocialScope as a serving stack.

Three pieces:

* :class:`SearchRequest` / :class:`SearchResponse` — frozen, value-like
  query descriptions with per-request overrides (``alpha``, ``strategy``,
  ``k``, grouping dimension) and deterministic ``page``/``cursor``
  pagination;
* :class:`QueryBuilder` — fluent construction
  (``session.query(u).text("...").limit(10).run()``);
* :class:`Session` — the warm engine owning the wired layers, with
  incremental refresh, lazy index-backed candidate generation, and batch
  execution.

The old :class:`repro.socialscope.SocialScope` facade remains as a thin
shim over this package.
"""

from repro.api.builder import QueryBuilder
from repro.api.request import (
    PageInfo,
    RequestFailure,
    SearchRequest,
    SearchResponse,
    decode_cursor,
    encode_cursor,
)
from repro.api.session import Session, SessionConfig, SessionStats

__all__ = [
    "SearchRequest",
    "SearchResponse",
    "RequestFailure",
    "PageInfo",
    "QueryBuilder",
    "Session",
    "SessionConfig",
    "SessionStats",
    "encode_cursor",
    "decode_cursor",
]
