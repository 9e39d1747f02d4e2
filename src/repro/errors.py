"""Exception hierarchy for the SocialScope reproduction.

Every error raised by :mod:`repro` derives from :class:`SocialScopeError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate between graph-model misuse, algebra misuse,
and layer-specific failures.
"""

from __future__ import annotations


class SocialScopeError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(SocialScopeError):
    """Structural misuse of a social content graph (dangling links, dup ids)."""


class UnknownNodeError(GraphError):
    """A node id was referenced that is not present in the graph."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


class UnknownLinkError(GraphError):
    """A link id was referenced that is not present in the graph."""

    def __init__(self, link_id: object) -> None:
        super().__init__(f"unknown link id: {link_id!r}")
        self.link_id = link_id


class DuplicateIdError(GraphError):
    """An id was added twice with conflicting payloads."""


class DanglingLinkError(GraphError):
    """A link references an endpoint node that the graph does not contain."""

    def __init__(self, link_id: object, node_id: object) -> None:
        super().__init__(
            f"link {link_id!r} references missing endpoint node {node_id!r}"
        )
        self.link_id = link_id
        self.node_id = node_id


class FrozenGraphError(GraphError):
    """A served graph was written to in place; write through the Data
    Manager instead, and the next graph it serves carries the change."""

    def __init__(self, operation: str) -> None:
        super().__init__(f"{operation}() on a frozen graph; write through "
                         f"the Data Manager instead")
        self.operation = operation


class ConditionError(SocialScopeError):
    """A selection/aggregation condition is malformed."""


class AlgebraError(SocialScopeError):
    """An algebra operator was applied with invalid parameters."""


class CompositionError(AlgebraError):
    """Composition function or directional condition misuse."""


class AggregationError(AlgebraError):
    """Aggregation function or parameter misuse."""


class PatternError(AlgebraError):
    """A graph pattern is malformed or cannot be evaluated."""


class ExpressionError(AlgebraError):
    """An algebra expression tree is malformed."""


class QueryError(SocialScopeError):
    """A user query is malformed or cannot be interpreted."""


class RestartCursorError(QueryError):
    """A pagination cursor was minted by a previous site incarnation.

    Cursors embed the refresh epoch *and* a boot token (the store's
    restart generation).  After recovery the epoch counters continue from
    the persisted values, but a cursor minted before the restart points
    into a ranking computed by a process that no longer exists — it is
    rejected with this typed error so clients can distinguish "re-page
    from the start" (here) from a mid-session refresh
    (``QueryError: stale cursor``)."""


class DiscoveryError(SocialScopeError):
    """The Information Discovery layer could not produce an MSG."""


class ManagementError(SocialScopeError):
    """Content Management layer failure (storage, integration, sync)."""


class PersistenceError(ManagementError):
    """Durable-storage failure: unreadable snapshot, bad manifest, version
    or checksum mismatch."""


class WalCorruptedError(PersistenceError):
    """A write-ahead-log segment holds a corrupt record *before* valid
    ones — not a torn tail (torn tails truncate cleanly on recovery),
    but mid-file damage recovery must not paper over."""


class PermissionDeniedError(ManagementError):
    """A remote site rejected an access for lack of user permission."""

    def __init__(self, site: str, user_id: object, scope: str) -> None:
        super().__init__(
            f"site {site!r} denied access to {scope!r} data of user {user_id!r}"
        )
        self.site = site
        self.user_id = user_id
        self.scope = scope


class ServeError(SocialScopeError):
    """Serving-gateway misuse (bad configuration, submit while stopped).

    Note the *overload* outcome is not an exception: shedding is an
    expected, typed response (:class:`repro.serve.admission.Overloaded`)
    the gateway returns, because under heavy traffic overload is part of
    normal operation, not a failure of the caller's code.
    """


class DeadlineError(SocialScopeError):
    """A cooperative deadline check fired inside plan execution.

    Raised between physical operators when the request's deadline has
    passed; the serving layer catches it
    and converts to the typed ``DeadlineExceeded`` shed value (the
    *outcome* is a value, like ``Overloaded`` — the exception exists
    only to unwind the executing plan promptly).
    """

    def __init__(self, stage: str, elapsed_s: float) -> None:
        super().__init__(
            f"deadline exceeded at {stage!r} after {elapsed_s:.3f}s"
        )
        self.stage = stage
        self.elapsed_s = elapsed_s


class IndexError_(SocialScopeError):
    """Indexing layer failure (the trailing underscore avoids shadowing
    the builtin :class:`IndexError`)."""


class PresentationError(SocialScopeError):
    """Information Presentation layer failure."""
