"""The asyncio serving gateway: admission → priority queue → execution.

:class:`ServeGateway` is the concurrent front door of one warm
:class:`~repro.api.Session`.  Many logical tenants submit
:class:`~repro.api.SearchRequest`\\ s concurrently; the gateway

1. runs **admission control** (:mod:`repro.serve.admission`): per-tenant
   spend budgets plus a global in-flight depth cap, shedding with a typed
   :class:`~repro.serve.admission.Overloaded` outcome instead of queueing
   unboundedly;
2. queues each admitted request on a priority heap — (tenant priority
   class, arrival order) — so interactive traffic goes first when the
   workers are contended;
3. runs one request per worker slot on a bounded thread pool
   (``Session.run``) with **per-request error isolation**: one tenant's
   stale cursor returns that tenant a
   :class:`~repro.api.RequestFailure`, and the gateway stays up.

A discovery answer is a function of who asks (the connection basis and
the social score embed the user), so one admitted request is the unit of
work: nothing waits for company and nothing is coalesced.

**Deadlines.**  Each admitted request carries an end-to-end deadline
(the tenant's :attr:`~repro.serve.admission.TenantPolicy.deadline_s`,
falling back to :attr:`GatewayConfig.default_deadline_s`; ``None``
disables).  The deadline is enforced twice: a loop-side timer resolves
the future with a typed
:class:`~repro.serve.admission.DeadlineExceeded` the moment the clock
runs out (``stage="queued"`` or ``"executing"`` — a submission can
*never* wedge, whatever the worker threads are doing), and the same
absolute monotonic deadline rides into
``Session.run(request, deadline=...)`` where the plan executor's
cooperative :meth:`~repro.plan.physical.ExecContext.check_deadline`
stops the plan between operators so a doomed request stops burning
pool time.  Requests already expired when their turn comes are skipped
at dispatch.

The deadline is the one bound on a request, and a typed outcome the one
answer to a failure: each admitted request executes exactly once, and
an execution that raises — wherever in the stack — resolves its caller's
future as a :class:`~repro.api.RequestFailure`.  Nothing re-runs a slow
request (a second run would repeat the same CPU-bound ``Session.run``
under the same interpreter lock) and nothing switches an access path
off after faults (the in-memory paths below have no transient failure
to wait out).

Concurrency model: ``submit`` must be called from the event loop the
gateway was started on (the load harness and the quickstart both drive it
with ``asyncio``; threads integrate via
``asyncio.run_coroutine_threadsafe``).  All loop-side state (the ready
heap, entry bookkeeping, counters) is therefore single-threaded by
construction; the pieces shared with worker threads — the admission
controller and the session itself — carry their own locks.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import RequestFailure, SearchRequest, SearchResponse, Session
from repro.core.faults import fault_point
from repro.errors import DeadlineError, ServeError
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionStats,
    Admitted,
    DeadlineExceeded,
    Overloaded,
)

#: What one submission resolves to.
ServeOutcome = (
    SearchResponse | RequestFailure | Overloaded | DeadlineExceeded
)


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tunables: execution width, admission, deadlines, drain bound."""

    #: worker threads — requests executing concurrently (an ``int`` >= 1)
    max_workers: int = 4
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: end-to-end deadline applied to tenants whose policy does not set
    #: one; ``None`` (the default) leaves such requests unbounded
    default_deadline_s: float | None = None
    #: how long ``stop()`` waits for in-flight work before failing the
    #: stragglers with a typed ``DeadlineExceeded(stage="shutdown")``;
    #: also bounds the ``checkpoint()`` quiesce (finite and > 0)
    drain_timeout_s: float = 5.0


@dataclass(frozen=True)
class GatewayStats:
    """One snapshot of the gateway's serving counters."""

    submitted: int
    completed: int
    failed: int
    shed: int
    admission: AdmissionStats
    #: requests resolved with a typed ``DeadlineExceeded`` (any stage)
    deadline_expired: int = 0

    # Constants kept only for the frozen benchmarks/e2e/gateway.py reader
    # (one execution per request); they go with its next revision.
    @property
    def mean_batch_size(self) -> float:
        return 1.0

    @property
    def hedged_batches(self) -> int:
        return 0

    def hot_keys(self, n: int = 5) -> list[Any]:
        return []


class _Entry:
    """One admitted submission's loop-side bookkeeping.

    Holds the future, the admission ticket, and the deadline machinery;
    orders on the ready heap by (tenant priority class, arrival).
    Resolution (:meth:`ServeGateway._resolve`) is idempotent: whichever
    of the deadline timer, the executing worker, or the shutdown drain
    gets there first sets the result, cancels the timer, and releases
    the ticket — the losers find ``future.done()`` / ``released`` and
    do nothing.
    """

    __slots__ = (
        "request",
        "future",
        "ticket",
        "seq",
        "deadline",
        "deadline_s",
        "submitted",
        "timer",
        "released",
        "dispatched",
    )

    def __init__(
        self,
        request: SearchRequest,
        future: "asyncio.Future[ServeOutcome]",
        ticket: Admitted,
        seq: int,
        deadline_s: float | None,
    ) -> None:
        self.request = request
        self.future = future
        self.ticket = ticket
        self.seq = seq
        self.deadline_s = deadline_s
        self.submitted = time.monotonic()
        #: absolute monotonic expiry (rides into the plan executor)
        self.deadline: float | None = (
            self.submitted + deadline_s if deadline_s is not None else None
        )
        self.timer: asyncio.TimerHandle | None = None
        self.released = False
        self.dispatched = False

    def __lt__(self, other: "_Entry") -> bool:
        return (self.ticket.priority, self.seq) < (
            other.ticket.priority, other.seq
        )


class ServeGateway:
    """The async serving front of one warm session (see module doc)."""

    def __init__(self, session: Session, config: GatewayConfig | None = None):
        self.session = session
        config = config if config is not None else GatewayConfig()
        self.config = config
        workers = config.max_workers
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 1:
            raise ServeError(
                f"max_workers must be an int >= 1, got {workers!r}"
            )
        if not (
            math.isfinite(config.drain_timeout_s)
            and config.drain_timeout_s > 0.0
        ):
            raise ServeError(
                "drain_timeout_s must be finite and > 0, got "
                f"{config.drain_timeout_s!r}"
            )
        policy = config.admission
        for deadline_s in (
            config.default_deadline_s,
            policy.default.deadline_s,
            *(tenant.deadline_s for tenant in policy.tenants.values()),
        ):
            if deadline_s is not None and not (
                math.isfinite(deadline_s) and deadline_s > 0.0
            ):
                raise ServeError(
                    "a deadline must be finite and > 0 (or None), got "
                    f"{deadline_s!r}"
                )
        self.admission = AdmissionController(config.admission)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task[None] | None = None
        self._ready: list[_Entry] = []
        self._ready_event: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._entries: set[_Entry] = set()
        self._running_tasks: set[asyncio.Task[None]] = set()
        self._open = 0
        self._drained: asyncio.Event | None = None
        self._running = False
        # counters (event-loop thread only)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._deadline_expired = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the dispatcher."""
        if self._running:
            raise ServeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="serve-worker",
        )
        self._ready_event = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.max_workers)
        self._drained = asyncio.Event()
        self._drained.set()
        self._running = True
        self._dispatcher = self._loop.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work *boundedly*, release the pool.

        The drain waits at most :attr:`GatewayConfig.drain_timeout_s`
        for queued and executing requests alike.  Requests still
        unresolved past that bound (a wedged worker thread, a hung
        fault) are failed with a typed
        ``DeadlineExceeded(stage="shutdown")`` — shutdown never hangs
        and never strands a future — and the pool is torn down without
        joining the wedged thread.
        """
        if not self._running:
            return
        self._running = False
        drain_clean = True
        if self._drained is not None:
            try:
                await asyncio.wait_for(
                    self._drained.wait(), self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                drain_clean = False
                now = time.monotonic()
                for entry in list(self._entries):
                    self._resolve(
                        entry,
                        DeadlineExceeded(
                            tenant=entry.ticket.tenant,
                            stage="shutdown",
                            elapsed_s=now - entry.submitted,
                            deadline_s=(
                                entry.deadline_s
                                if entry.deadline_s is not None
                                else self.config.drain_timeout_s
                            ),
                        ),
                    )
                # resolved futures still need a loop tick for their
                # awaiting submit() coroutines to run finally blocks
                try:
                    await asyncio.wait_for(self._drained.wait(), 1.0)
                except asyncio.TimeoutError:
                    pass
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._executor is not None:
            # a dirty drain means a pool thread may never return — don't
            # join it, orphan it (daemon threads die with the process)
            self._executor.shutdown(
                wait=drain_clean, cancel_futures=not drain_clean
            )
            self._executor = None

    async def __aenter__(self) -> "ServeGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- serving --------------------------------------------------------------

    async def submit(
        self, tenant: str, request: SearchRequest
    ) -> ServeOutcome:
        """One tenant's request: admitted, queued and executed — or shed.

        Returns a :class:`SearchResponse` on success, a
        :class:`RequestFailure` when this request's own evaluation raised,
        a typed :class:`Overloaded` when admission shed it, or a typed
        :class:`DeadlineExceeded` when its end-to-end deadline expired.
        Never raises for per-request conditions — callers fan out
        thousands of these concurrently and pattern-match the outcome.
        """
        if not self._running or self._loop is None:
            raise ServeError("gateway is not running (use `async with`)")
        assert self._ready_event is not None
        self._submitted += 1
        verdict = self.admission.admit(tenant)
        if isinstance(verdict, Overloaded):
            self._shed += 1
            return verdict
        policy = self.config.admission.for_tenant(tenant)
        deadline_s = (
            policy.deadline_s
            if policy.deadline_s is not None
            else self.config.default_deadline_s
        )
        future: "asyncio.Future[ServeOutcome]" = self._loop.create_future()
        # the submission count doubles as the arrival number
        entry = _Entry(request, future, verdict, self._submitted, deadline_s)
        if deadline_s is not None:
            entry.timer = self._loop.call_later(
                deadline_s, self._expire, entry
            )
        self._entries.add(entry)
        self._track_open(+1)
        heapq.heappush(self._ready, entry)
        self._ready_event.set()
        try:
            return await future
        finally:
            self._track_open(-1)

    # -- durability -----------------------------------------------------------

    async def checkpoint(self, directory: str | Path) -> dict[str, Any]:
        """Drain, then snapshot the serving site into *directory*.

        Quiesce protocol: all worker slots are acquired — no request is
        executing and none can start — and the session checkpoints
        (:meth:`~repro.api.Session.save`) on the loop's *default*
        executor (our own pool is deliberately full).  Slots release in
        dispatch order afterwards, so serving resumes exactly where it
        paused; submissions arriving mid-checkpoint simply queue behind
        the held slots.  The quiesce is bounded by
        :attr:`GatewayConfig.drain_timeout_s`: a wedged worker raises a
        :class:`~repro.errors.ServeError` instead of hanging the
        checkpoint forever.  Returns the snapshot manifest.
        """
        if not self._running or self._loop is None or self._slots is None:
            raise ServeError("gateway is not running (use `async with`)")
        width = self.config.max_workers
        acquired = 0
        try:
            for _ in range(width):
                try:
                    await asyncio.wait_for(
                        self._slots.acquire(), self.config.drain_timeout_s
                    )
                except asyncio.TimeoutError:
                    raise ServeError(
                        "checkpoint quiesce timed out after "
                        f"{self.config.drain_timeout_s}s "
                        f"({acquired}/{width} slots; a worker is wedged)"
                    ) from None
                acquired += 1
            return await self._loop.run_in_executor(
                None, lambda: self.session.save(directory)
            )
        finally:
            for _ in range(acquired):
                self._slots.release()

    # -- dispatch internals ---------------------------------------------------

    def _track_open(self, delta: int) -> None:
        self._open += delta
        if self._drained is None:
            return
        if self._open <= 0:
            self._drained.set()
        else:
            self._drained.clear()

    def _resolve(self, entry: _Entry, outcome: ServeOutcome) -> None:
        """Resolve one entry exactly once (timer/worker/shutdown race-safe).

        Cancels the deadline timer, releases the admission ticket, and
        sets the future — each at most once, in that order, so whichever
        path loses the race is a no-op.  All counters are incremented
        here and only here.
        """
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        if not entry.released:
            entry.released = True
            self.admission.release(entry.ticket)
        self._entries.discard(entry)
        if entry.future.done():
            return
        entry.future.set_result(outcome)
        if isinstance(outcome, DeadlineExceeded):
            self._deadline_expired += 1
        elif isinstance(outcome, RequestFailure):
            self._failed += 1
        elif isinstance(outcome, Overloaded):  # pragma: no cover - defensive
            self._shed += 1
        else:
            self._completed += 1

    def _expire(self, entry: _Entry) -> None:
        """Deadline timer fired (loop thread): fail the future, typed.

        The entry may simultaneously be executing on a pool thread; the
        worker's eventual result is discarded by :meth:`_resolve`'s
        ``future.done()`` guard.  Expiry releases the admission ticket —
        the caller is no longer waiting, so the depth slot is free even
        though a doomed computation may still be burning a pool thread
        (the plan-side cooperative check will stop it shortly).
        """
        if entry.future.done():
            return
        assert entry.deadline_s is not None
        self._resolve(
            entry,
            DeadlineExceeded(
                tenant=entry.ticket.tenant,
                stage="executing" if entry.dispatched else "queued",
                elapsed_s=time.monotonic() - entry.submitted,
                deadline_s=entry.deadline_s,
            ),
        )

    async def _dispatch_loop(self) -> None:
        """Drain queued entries into worker slots, best priority first."""
        assert self._ready_event is not None and self._slots is not None
        assert self._loop is not None
        while True:
            # set exactly while the heap is non-empty: submit pushes and
            # sets, and this loop — the only consumer — clears on empty
            await self._ready_event.wait()
            # take a slot first: higher-priority entries may arrive while
            # we wait — the pop below happens at dispatch time.
            await self._slots.acquire()
            entry = heapq.heappop(self._ready)
            if not self._ready:
                self._ready_event.clear()
            if entry.future.done():
                # its deadline fired while queued: no point spending a
                # worker on an answer nobody waits for
                self._slots.release()
                continue
            # set on the loop thread before the worker starts, so an
            # expiry from here on reports stage="executing"
            entry.dispatched = True
            task = self._loop.create_task(self._run_entry(entry))
            self._running_tasks.add(task)
            task.add_done_callback(self._running_tasks.discard)

    async def _run_entry(self, entry: _Entry) -> None:
        """Execute one entry on a worker; resolve its future."""
        assert self._slots is not None and self._loop is not None

        def work() -> SearchResponse:
            fault_point("serve.batch")
            return self.session.run(entry.request, deadline=entry.deadline)

        outcome: ServeOutcome
        try:
            outcome = await self._loop.run_in_executor(self._executor, work)
        except DeadlineError as exc:
            # the plan executor's cooperative stop surfaces as the same
            # typed outcome the loop-side timer produces
            outcome = DeadlineExceeded(
                tenant=entry.ticket.tenant,
                stage=exc.stage,
                elapsed_s=time.monotonic() - entry.submitted,
                deadline_s=(
                    entry.deadline_s if entry.deadline_s is not None else 0.0
                ),
            )
        except Exception as exc:
            # this request's own failure (a stale cursor, a refresh that
            # blew up): its caller gets a typed failure, the gateway
            # itself stays up
            outcome = RequestFailure(
                request=entry.request,
                kind=type(exc).__name__,
                message=str(exc),
                error=exc,
            )
        finally:
            self._slots.release()
        self._resolve(entry, outcome)

    # -- introspection --------------------------------------------------------

    def stats(self) -> GatewayStats:
        """A snapshot of the serving counters (loop thread)."""
        return GatewayStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            shed=self._shed,
            admission=self.admission.stats(),
            deadline_expired=self._deadline_expired,
        )

    def plan_cache_stats(self) -> dict[str, object]:
        """The served session's plan-cache counters (management endpoint).

        Queries served from already-compiled plans (``hits``),
        compilations paid (``compiles`` — each miss triggers one), LRU
        ``evictions`` and the resident entry count.
        """
        stats = self.session.planner.cache.stats
        return {
            "hits": stats.hits,
            "compiles": stats.misses,
            "evictions": stats.evictions,
            "size": stats.size,
            "hit_rate": stats.hit_rate,
        }


__all__ = [
    "GatewayConfig",
    "GatewayStats",
    "ServeGateway",
    "ServeOutcome",
]
