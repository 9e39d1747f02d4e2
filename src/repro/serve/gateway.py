"""The asyncio serving gateway: admission → dynamic batching → execution.

:class:`ServeGateway` is the concurrent front door of one warm
:class:`~repro.api.Session`.  Many logical tenants submit
:class:`~repro.api.SearchRequest`\\ s concurrently; the gateway

1. runs **admission control** (:mod:`repro.serve.admission`): per-tenant
   spend budgets plus a global in-flight depth cap, shedding with a typed
   :class:`~repro.serve.admission.Overloaded` outcome instead of queueing
   unboundedly;
2. performs **dynamic batching**: admitted requests sharing a plan key
   (:func:`repro.serve.batching.batch_key`) within a short batching
   window coalesce into a single ``Session.run_many`` call — the shared
   plan cache compiles once and every other batch member is a cache hit
   over already-primed warm state;
3. executes batches on a bounded thread pool with **per-request error
   isolation** (``run_many(isolate_errors=True)``): one tenant's stale
   cursor returns that tenant a
   :class:`~repro.api.RequestFailure`, never aborting batch-mates.

Ready batches drain through a priority heap — (tenant priority class,
arrival order) — so interactive traffic goes first when the pool is
contended, and a batch keeps accumulating joiners while it waits for a
pool slot.

**Deadlines.**  Each admitted request carries an end-to-end deadline
(the tenant's :attr:`~repro.serve.admission.TenantPolicy.deadline_s`,
falling back to :attr:`GatewayConfig.default_deadline_s`; ``None``
disables).  The deadline is enforced twice: a loop-side timer resolves
the future with a typed
:class:`~repro.serve.admission.DeadlineExceeded` the moment the clock
runs out (``stage="queued"`` or ``"executing"`` — a submission can
*never* wedge, whatever the executor threads are doing), and the same
absolute monotonic deadline rides into
``Session.run_many(deadlines=...)`` where the plan executor's
cooperative :meth:`~repro.plan.physical.ExecContext.check_deadline`
stops shard scans between operators so a doomed request stops burning
pool time.  Requests already expired at dispatch are dropped from the
batch before execution.

**Hedging.**  The gateway tracks batch-execution latencies
(:class:`~repro.serve.resilience.HedgeTracker`); a dispatched batch
that exceeds the tracked quantile is re-dispatched on a dedicated hedge
thread and the first completion wins — batch execution is deterministic
and read-only, so the duplicate is wasted heat, not a correctness
hazard, and one wedged executor thread no longer wedges its batch.

Concurrency model: ``submit`` must be called from the event loop the
gateway was started on (the load harness and the quickstart both drive it
with ``asyncio``; threads integrate via
``asyncio.run_coroutine_threadsafe``).  All loop-side state (pending
batches, the ready heap, entry bookkeeping, counters) is therefore
single-threaded by construction; the pieces shared with worker threads —
the admission controller and the session itself — carry their own locks.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.api import RequestFailure, SearchRequest, SearchResponse, Session
from repro.core.faults import fault_point
from repro.core.resilience import BreakerStats
from repro.errors import DeadlineError, ServeError
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionStats,
    Admitted,
    DeadlineExceeded,
    Overloaded,
)
from repro.serve.batching import batch_key, describe_key
from repro.serve.metrics import histogram_mean
from repro.serve.resilience import HedgeTracker, breaker_snapshot

#: What one submission resolves to.
ServeOutcome = (
    SearchResponse | RequestFailure | Overloaded | DeadlineExceeded
)

_BatchResult = list[SearchResponse | RequestFailure]


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tunables: batching shape, execution width, admission.

    The plan-executor mode is the session's own
    (``SessionConfig.parallelism``): the gateway serves the session its
    caller built and re-pins nothing on it.
    """

    #: how long the first request of a plan key waits for batch-mates
    batch_window_s: float = 0.004
    #: flush a batch early once it reaches this size
    max_batch: int = 16
    #: worker threads — concurrent ``run_many`` batches in flight
    max_concurrent_batches: int = 4
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: end-to-end deadline applied to tenants whose policy does not set
    #: one; ``None`` (the default) keeps the pre-resilience behavior
    default_deadline_s: float | None = None
    #: how long ``stop()`` waits for in-flight work before failing the
    #: stragglers with a typed ``DeadlineExceeded(stage="shutdown")``;
    #: also bounds the ``checkpoint()`` quiesce
    drain_timeout_s: float = 5.0
    #: hedge batches whose execution exceeds the tracked latency
    #: quantile (False disables the hedge thread entirely)
    hedge: bool = True
    #: latency quantile (0..1) that arms a hedge
    hedge_quantile: float = 0.95
    #: hedge fires at quantile × multiplier
    hedge_multiplier: float = 2.0
    #: executions observed before hedging activates
    hedge_min_samples: int = 16


@dataclass(frozen=True)
class KeyStats:
    """Per-plan-key batching accounting (hot-key reporting)."""

    label: str
    requests: int
    batches: int

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


@dataclass(frozen=True)
class GatewayStats:
    """One snapshot of the gateway's serving counters."""

    submitted: int
    completed: int
    failed: int
    shed: int
    batches: int
    #: batch size -> number of batches executed at that size
    batch_size_histogram: Mapping[int, int]
    #: per plan key: requests and batches (hot-key mean batch sizes)
    keys: Mapping[str, KeyStats]
    admission: AdmissionStats
    #: requests resolved with a typed ``DeadlineExceeded`` (any stage)
    deadline_expired: int = 0
    #: batches re-dispatched because their slot exceeded the hedge cut
    hedged_batches: int = 0
    #: every breaker the serving session carries, by name
    breakers: Mapping[str, BreakerStats] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return histogram_mean(self.batch_size_histogram)

    def hot_keys(self, n: int = 5) -> list[KeyStats]:
        """The *n* most-requested plan keys, busiest first."""
        ranked = sorted(
            self.keys.values(), key=lambda ks: (-ks.requests, ks.label)
        )
        return ranked[:n]


class _Entry:
    """One admitted submission's loop-side bookkeeping.

    Holds the future, the admission ticket, and the deadline machinery.
    Resolution (:meth:`ServeGateway._resolve`) is idempotent: whichever
    of the deadline timer, the executing batch, or the shutdown drain
    gets there first sets the result, cancels the timer, and releases
    the ticket — the losers find ``future.done()`` / ``released`` and
    do nothing.
    """

    __slots__ = (
        "request",
        "future",
        "ticket",
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
        deadline_s: float | None,
    ) -> None:
        self.request = request
        self.future = future
        self.ticket = ticket
        self.deadline_s = deadline_s
        self.submitted = time.monotonic()
        #: absolute monotonic expiry (rides into the plan executor)
        self.deadline: float | None = (
            self.submitted + deadline_s if deadline_s is not None else None
        )
        self.timer: asyncio.TimerHandle | None = None
        self.released = False
        self.dispatched = False


class _PendingBatch:
    """Requests accumulating under one plan key until flush."""

    __slots__ = ("key", "seq", "priority", "entries", "timer", "ready")

    def __init__(self, key: SearchRequest, seq: int, priority: int):
        self.key = key
        self.seq = seq
        self.priority = priority
        self.entries: list[_Entry] = []
        self.timer: asyncio.TimerHandle | None = None
        self.ready = False

    def __lt__(self, other: "_PendingBatch") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class ServeGateway:
    """The async serving front of one warm session (see module doc)."""

    def __init__(self, session: Session, config: GatewayConfig | None = None):
        self.session = session
        self.config = config if config is not None else GatewayConfig()
        if self.config.max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1, got {self.config.max_batch!r}"
            )
        if self.config.max_concurrent_batches < 1:
            raise ServeError(
                "max_concurrent_batches must be >= 1, got "
                f"{self.config.max_concurrent_batches!r}"
            )
        if self.config.drain_timeout_s <= 0.0:
            raise ServeError(
                "drain_timeout_s must be positive, got "
                f"{self.config.drain_timeout_s!r}"
            )
        self.admission = AdmissionController(self.config.admission)
        self._hedge = HedgeTracker(
            quantile=self.config.hedge_quantile,
            multiplier=self.config.hedge_multiplier,
            min_samples=self.config.hedge_min_samples,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._hedge_executor: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task[None] | None = None
        self._pending: dict[SearchRequest, _PendingBatch] = {}
        self._ready: list[_PendingBatch] = []
        self._ready_event: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._entries: set[_Entry] = set()
        self._open = 0
        self._drained: asyncio.Event | None = None
        self._seq = 0
        self._running = False
        # counters (event-loop thread only)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._deadline_expired = 0
        self._hedged_batches = 0
        self._batches = 0
        self._batch_sizes: dict[int, int] = {}
        self._key_requests: dict[str, int] = {}
        self._key_batches: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the dispatcher."""
        if self._running:
            raise ServeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent_batches,
            thread_name_prefix="serve-batch",
        )
        if self.config.hedge:
            # one spare thread, deliberately outside the slot-bounded
            # pool: a hedge exists to route around a wedged pool thread,
            # so it must not queue behind the very threads it rescues
            self._hedge_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-hedge"
            )
        self._ready_event = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.max_concurrent_batches)
        self._drained = asyncio.Event()
        self._drained.set()
        self._running = True
        self._dispatcher = self._loop.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work *boundedly*, release the pool.

        The drain waits at most :attr:`GatewayConfig.drain_timeout_s`.
        Requests still unresolved past that bound (a wedged executor
        thread, a hung fault) are failed with a typed
        ``DeadlineExceeded(stage="shutdown")`` — shutdown never hangs
        and never strands a future — and the pool is torn down without
        joining the wedged thread.
        """
        if not self._running:
            return
        self._running = False
        # flush every accumulating batch now — nothing new can join
        for batch in list(self._pending.values()):
            self._flush(batch)
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
        if self._hedge_executor is not None:
            self._hedge_executor.shutdown(
                wait=drain_clean, cancel_futures=not drain_clean
            )
            self._hedge_executor = None

    async def __aenter__(self) -> "ServeGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- serving --------------------------------------------------------------

    async def submit(
        self, tenant: str, request: SearchRequest
    ) -> ServeOutcome:
        """One tenant's request: admitted+batched+executed, or shed.

        Returns a :class:`SearchResponse` on success, a
        :class:`RequestFailure` when this request's own evaluation raised,
        a typed :class:`Overloaded` when admission shed it, or a typed
        :class:`DeadlineExceeded` when its end-to-end deadline expired.
        Never raises for per-request conditions — callers fan out
        thousands of these concurrently and pattern-match the outcome.
        """
        if not self._running or self._loop is None:
            raise ServeError("gateway is not running (use `async with`)")
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
        entry = _Entry(request, future, verdict, deadline_s)
        if deadline_s is not None:
            entry.timer = self._loop.call_later(
                deadline_s, self._expire, entry
            )
        self._entries.add(entry)
        self._track_open(+1)
        key = batch_key(request)
        batch = self._pending.get(key)
        if batch is None:
            self._seq += 1
            batch = _PendingBatch(key, self._seq, verdict.priority)
            self._pending[key] = batch
            batch.timer = self._loop.call_later(
                self.config.batch_window_s, self._flush, batch
            )
        batch.entries.append(entry)
        if not batch.ready:
            # heap ordering key — frozen once the batch is in the heap
            batch.priority = min(batch.priority, verdict.priority)
        if len(batch.entries) >= self.config.max_batch:
            self._flush(batch)
            self._retire(batch)
        try:
            return await future
        finally:
            self._track_open(-1)

    # -- durability -----------------------------------------------------------

    async def checkpoint(self, directory: str | Path) -> dict[str, Any]:
        """Drain, then snapshot the serving site into *directory*.

        Quiesce protocol: every accumulating batch is flushed, then all
        pool slots are acquired — no batch is executing and none can
        start — and the session checkpoints
        (:meth:`~repro.api.Session.save`) on the loop's *default*
        executor (our own pool is deliberately full).  Slots release in
        dispatch order afterwards, so serving resumes exactly where it
        paused; submissions arriving mid-checkpoint simply queue behind
        the held slots.  The quiesce is bounded by
        :attr:`GatewayConfig.drain_timeout_s`: a wedged batch raises a
        :class:`~repro.errors.ServeError` instead of hanging the
        checkpoint forever.  Returns the snapshot manifest.
        """
        if not self._running or self._loop is None or self._slots is None:
            raise ServeError("gateway is not running (use `async with`)")
        for batch in list(self._pending.values()):
            self._flush(batch)
        width = self.config.max_concurrent_batches
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
                        f"({acquired}/{width} slots; a batch is wedged)"
                    ) from None
                acquired += 1
            return await self._loop.run_in_executor(
                None, lambda: self.session.save(directory)
            )
        finally:
            for _ in range(acquired):
                self._slots.release()

    # -- batching internals ---------------------------------------------------

    def _track_open(self, delta: int) -> None:
        self._open += delta
        if self._drained is None:
            return
        if self._open <= 0:
            self._drained.set()
        else:
            self._drained.clear()

    def _resolve(self, entry: _Entry, outcome: ServeOutcome) -> None:
        """Resolve one entry exactly once (timer/batch/shutdown race-safe).

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
        executor's eventual result is discarded by :meth:`_resolve`'s
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

    def _flush(self, batch: _PendingBatch) -> None:
        """Hand *batch* to the dispatcher (idempotent).

        The batch stays *joinable* — it remains in the pending map, so
        same-key arrivals keep coalescing into it while it waits for a
        pool slot (that wait dominates the batching window under load).
        It stops accepting joiners only when full (:meth:`_retire` at
        ``max_batch``) or actually dispatched.
        """
        if batch.ready:
            return
        batch.ready = True
        if batch.timer is not None:
            batch.timer.cancel()
        heapq.heappush(self._ready, batch)
        if self._ready_event is not None:
            self._ready_event.set()

    def _retire(self, batch: _PendingBatch) -> None:
        """Stop *batch* from accepting joiners (full or dispatching)."""
        if self._pending.get(batch.key) is batch:
            del self._pending[batch.key]

    async def _dispatch_loop(self) -> None:
        """Drain ready batches into pool slots, best priority first."""
        assert self._ready_event is not None and self._slots is not None
        while True:
            await self._ready_event.wait()
            if not self._ready:
                self._ready_event.clear()
                continue
            # take a slot first: while we wait, joiners keep accumulating
            # in *pending* batches and higher-priority batches may become
            # ready — the pop below happens at dispatch time.
            await self._slots.acquire()
            if not self._ready:
                self._slots.release()
                self._ready_event.clear()
                continue
            batch = heapq.heappop(self._ready)
            # close the joining window *now*, on the loop thread, before
            # the executing task snapshots the entry list
            self._retire(batch)
            if not self._ready:
                self._ready_event.clear()
            assert self._loop is not None
            self._loop.create_task(self._run_batch(batch))

    async def _run_batch(self, batch: _PendingBatch) -> None:
        """Execute one sealed batch on the pool; resolve its futures."""
        assert self._loop is not None and self._slots is not None
        # requests whose deadline already fired while queued are dropped
        # here — no point spending a pool slot on an answer nobody waits
        # for (their futures were resolved by the timer)
        live = [e for e in batch.entries if not e.future.done()]
        if not live:
            self._slots.release()
            return
        for entry in live:
            entry.dispatched = True
        requests = [entry.request for entry in live]
        deadlines = [entry.deadline for entry in live]
        label = describe_key(batch.key)
        session = self.session

        def work() -> _BatchResult:
            fault_point("serve.batch", key=label, size=len(requests))
            return session.run_many(
                requests, isolate_errors=True, deadlines=deadlines
            )

        started = time.monotonic()
        try:
            outcomes = await self._execute_hedged(work)
        except Exception as exc:
            # batch-level failure (e.g. refresh blew up): every member
            # gets a failure outcome — the gateway itself stays up.
            outcomes = [
                RequestFailure(
                    request=request,
                    kind=type(exc).__name__,
                    message=str(exc),
                    error=exc,
                )
                for request in requests
            ]
        finally:
            self._slots.release()
        self._hedge.observe(time.monotonic() - started)
        self._record_batch(live, batch)
        now = time.monotonic()
        for entry, outcome in zip(live, outcomes):
            self._resolve(entry, self._map_outcome(entry, outcome, now))

    def _map_outcome(
        self,
        entry: _Entry,
        outcome: SearchResponse | RequestFailure,
        now: float,
    ) -> ServeOutcome:
        """Plan-side deadline expiry surfaces as the same typed outcome.

        The executor reports a cooperative deadline stop as a
        ``RequestFailure`` wrapping a :class:`~repro.errors.DeadlineError`
        (that is ``run_many``'s uniform isolation envelope); the gateway
        unwraps it so callers see one ``DeadlineExceeded`` type whether
        the clock ran out on the loop or between two shard scans.
        """
        if isinstance(outcome, RequestFailure) and isinstance(
            outcome.error, DeadlineError
        ):
            return DeadlineExceeded(
                tenant=entry.ticket.tenant,
                stage=outcome.error.stage,
                elapsed_s=now - entry.submitted,
                deadline_s=(
                    entry.deadline_s if entry.deadline_s is not None else 0.0
                ),
            )
        return outcome

    async def _execute_hedged(
        self, work: Callable[[], _BatchResult]
    ) -> _BatchResult:
        """Run *work* on the pool; hedge it if it outlives the quantile.

        The hedge re-runs the same closure on the dedicated hedge thread
        and the first completion wins.  Batch execution is deterministic
        and side-effect-free over warm state, so the loser's result (or
        exception) is simply discarded.
        """
        assert self._loop is not None
        primary = self._loop.run_in_executor(self._executor, work)
        delay = (
            self._hedge.hedge_delay()
            if self._hedge_executor is not None
            else None
        )
        if delay is None:
            return await primary
        done, _ = await asyncio.wait({primary}, timeout=delay)
        if done:
            return primary.result()
        self._hedged_batches += 1
        secondary = self._loop.run_in_executor(self._hedge_executor, work)
        done, pending = await asyncio.wait(
            {primary, secondary}, return_when=asyncio.FIRST_COMPLETED
        )
        for loser in pending:
            # keep the loser from logging "exception never retrieved"
            loser.add_done_callback(lambda f: f.exception())
        for winner in done:
            if winner.exception() is None:
                return winner.result()
        if pending:
            # every finished attempt raised; the straggler may still win
            return await next(iter(pending))
        return done.pop().result()  # re-raises the (only) exception

    def _record_batch(
        self, live: list[_Entry], batch: _PendingBatch
    ) -> None:
        size = len(live)
        self._batches += 1
        self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
        label = describe_key(batch.key)
        self._key_requests[label] = self._key_requests.get(label, 0) + size
        self._key_batches[label] = self._key_batches.get(label, 0) + 1

    # -- introspection --------------------------------------------------------

    def stats(self) -> GatewayStats:
        """A snapshot of the serving counters (loop thread)."""
        keys = {
            label: KeyStats(
                label=label,
                requests=requests,
                batches=self._key_batches.get(label, 0),
            )
            for label, requests in self._key_requests.items()
        }
        return GatewayStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            shed=self._shed,
            batches=self._batches,
            batch_size_histogram=dict(self._batch_sizes),
            keys=keys,
            admission=self.admission.stats(),
            deadline_expired=self._deadline_expired,
            hedged_batches=self._hedged_batches,
            breakers=breaker_snapshot(self.session),
        )

    def plan_cache_stats(self) -> dict[str, object]:
        """The site-wide shared plan-cache counters (management endpoint)."""
        return self.session.data_manager.plan_cache_stats()


__all__ = [
    "GatewayConfig",
    "GatewayStats",
    "KeyStats",
    "ServeGateway",
    "ServeOutcome",
]
