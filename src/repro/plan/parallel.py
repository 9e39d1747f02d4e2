"""The process backend: shared-memory shard workers and their scatter.

A plan runs by the sequential recursion (``PhysicalOp.execute``); the
one other way a *scan* can run is here.  Scatter operators whose
condition ships whole hand their :class:`~repro.plan.columnar.ScanProgram`
to spawned worker processes that hold the shard views resident, and
gather the survivors from their own identically-ordered views.

Three pieces:

* :class:`ProcessShardPool` — spawned worker processes each hold their
  shards' :class:`ColumnarShardView` resident, with the position indexes
  (type buckets, term postings, link buckets) attached zero-copy from a
  ``multiprocessing.shared_memory`` slab.  Only picklable program
  descriptors travel to workers and compact position sets travel back,
  so on GIL builds the per-row work actually runs on other cores.
* the two-phase exchange (:meth:`ProcessShardPool.scatter`) — one
  message per worker carrying all of that worker's shards, then one
  reply per worker: the workers overlap each other without any
  coordinator-side threads.
* :class:`ProcessBackend` — the per-execution adapter scatter operators
  call: lazily ships the current slab version on first use, then
  scatters each operator's program.

This module is the *only* place in the tree allowed to touch
``multiprocessing`` (archcheck rule L004): process lifecycle, pipe
protocol and shared-memory ownership stay in one reviewable file.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.faults import fault_point
from repro.core.partition import SLAB_ITEMSIZE, pack_sections, unpack_sections
from repro.core.resilience import OPEN, CircuitBreaker
from repro.plan.columnar import (
    ColumnarShardView,
    ScanProgram,
    run_scan_program,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.plan.physical import ExecContext

try:
    import numpy as _np
except ImportError:  # pragma: no cover - toolchain always bakes numpy in
    _np = None

#: Default process-worker count: one per core, bounded so a serving box
#: is not oversubscribed by plan execution alone (request-level
#: parallelism exists too); a single-core box still gets one worker (the
#: parity and protocol machinery must work there even though it cannot
#: win).
DEFAULT_PROCESS_WORKERS = max(1, min(8, os.cpu_count() or 1))

#: Seconds a coordinator waits on a worker pipe before declaring the
#: worker poisoned (and degrading the execution to the in-process path).
PROCESS_REPLY_TIMEOUT_S = float(os.environ.get("REPRO_PROCESS_TIMEOUT_S", 60))

#: how long a tripped process pool stays open before the breaker lets a
#: recovery probe through (chaos/bench runs shrink this to demonstrate
#: self-healing; the generous default keeps degraded serving stable)
POOL_BREAKER_COOLDOWN_S = float(
    os.environ.get("REPRO_POOL_BREAKER_COOLDOWN_S", 5.0)
)


class ProcessPoolError(RuntimeError):
    """A process worker failed (died, timed out, or errored).

    Scatter operators catch exactly this and degrade the execution to
    the in-process path — a poisoned worker must never fail a query.
    """


def _attach_segment(name: str) -> Any:
    """Attach to an existing shared-memory segment, without tracking.

    The *coordinator* owns unlinking; workers only map.  Python ≥ 3.13
    has ``track=False`` for exactly this.  On earlier interpreters the
    attach spuriously re-registers the name — harmless here, because
    spawned workers share the parent's resource-tracker process and its
    per-type ledger is a *set*: the re-registration is idempotent and
    the coordinator's eventual ``unlink`` balances it.  (An explicit
    worker-side unregister would instead over-drain the shared ledger
    and make the tracker raise ``KeyError`` on the coordinator's turn.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on interpreter minor
        return shared_memory.SharedMemory(name=name)


def _close_segment(segment: Any) -> None:
    """Unmap a worker-resident segment once its views are dropped.

    The position indexes are zero-copy views over the segment's buffer,
    so the mmap cannot close while any survive; a ``gc.collect`` frees
    the just-dropped view dict's arrays first.  If an export somehow
    still pins the buffer, leaking one mapping beats crashing the
    worker — the coordinator's unlink reclaims the backing file either
    way.
    """
    if segment is None:
        return
    import gc

    gc.collect()
    try:
        segment.close()
    except BufferError:  # pragma: no cover - defensive
        pass


def _rebuild_views(payload: dict, buffer: Any) -> dict[int, ColumnarShardView]:
    """Worker-side: shard payloads + slab buffer → resident views.

    Node and link records come from the pickled payload (object graphs
    cannot live in a byte slab); every position index — type buckets,
    term postings, link-type buckets — is a zero-copy view over the
    shared slab, so repeated scans never rebuild or copy them.
    """
    wrap = (lambda mv: _np.asarray(mv)) if _np is not None else None
    views: dict[int, ColumnarShardView] = {}
    for shard, entry in payload["shards"].items():
        view = ColumnarShardView(entry["nodes"], entry["links"])
        sections = unpack_sections(entry["directory"], buffer, wrap=wrap)
        view.adopt_precomputed(
            type_buckets=sections.get("type_buckets"),
            term_postings=sections.get("term_postings"),
            link_type_buckets=sections.get("link_type_buckets"),
        )
        views[shard] = view
    return views


def _process_worker_main(conn: Any) -> None:
    """The worker loop: hold shard views resident, serve shipped scans.

    Protocol (coordinator → worker):

    * ``("slabs", version, payload_bytes, segment_name)`` — drop any
      resident views, attach the named slab segment (``None`` = inline
      buffer in the payload), rebuild this worker's shard views, ack
      with ``("ok", pid)``.
    * ``("scan", version, shards, program_bytes)`` — run the program over
      each listed resident view; reply ``("ok", [(positions, scan_s),
      …], pid)`` aligned with *shards*.  A version mismatch is an error:
      the coordinator always ships before scanning, so a mismatch means
      a protocol bug, not a race.
    * ``("stop",)`` — exit.

    Any per-message failure is reported as ``("err", repr)`` and the
    loop continues — one bad program must not kill the resident views.
    """
    views: dict[int, ColumnarShardView] = {}
    version: Any = None
    segment: Any = None
    pid = os.getpid()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "slabs":
                _, new_version, payload_bytes, segment_name = message
                payload = pickle.loads(payload_bytes)
                views = {}
                old_segment, segment = segment, None
                _close_segment(old_segment)
                if segment_name is not None:
                    segment = _attach_segment(segment_name)
                    buffer = segment.buf
                else:
                    buffer = payload["slab"]
                views = _rebuild_views(payload, buffer)
                version = new_version
                conn.send(("ok", pid))
            elif kind == "scan":
                _, want_version, shards, program_bytes = message
                if want_version != version:
                    raise ProcessPoolError(
                        f"scan for slab version {want_version!r} but "
                        f"worker holds {version!r}"
                    )
                program: ScanProgram = pickle.loads(program_bytes)
                scans = []
                for shard in shards:
                    start = time.perf_counter()
                    rows = run_scan_program(views[shard], program)
                    scans.append((rows, time.perf_counter() - start))
                conn.send(("ok", scans, pid))
            else:
                raise ProcessPoolError(f"unknown message kind {kind!r}")
        except BaseException as error:
            try:
                conn.send(("err", repr(error)))
            except (BrokenPipeError, OSError):
                break
    views = {}
    _close_segment(segment)
    conn.close()


class _ProcessWorker:
    """Coordinator-side handle: one spawned process + its pipe + lock.

    The pipe carries at most one in-flight message: :attr:`owed` counts
    replies the worker still has to deliver (non-zero between the two
    phases of an exchange, and after a gather abandoned at a request
    deadline), and the next exchange drains them before it sends — a
    worker blocked writing a large reply must never face a coordinator
    blocked writing the next request.  Callers hold :attr:`lock` around
    :meth:`send`/:meth:`receive`.
    """

    __slots__ = ("process", "conn", "lock", "owed")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        #: serialises exchanges — gateway threads execute plans
        #: concurrently over one pool
        self.lock = threading.Lock()
        self.owed = 0

    def send(self, message: tuple) -> None:
        """Write one message; raises ProcessPoolError on a dead pipe."""
        fault_point("parallel.worker_request", worker=self)
        try:
            self.conn.send(message)
        except OSError as error:
            raise ProcessPoolError(
                f"worker pid={self.process.pid} pipe failed: {error!r}"
            ) from error
        self.owed += 1

    def receive(self, timeout: float) -> tuple | None:
        """The oldest owed reply, or ``None`` if none came in *timeout*."""
        try:
            if not self.conn.poll(timeout):
                return None
            reply = self.conn.recv()
        except (EOFError, OSError) as error:
            raise ProcessPoolError(
                f"worker pid={self.process.pid} pipe failed: {error!r}"
            ) from error
        self.owed -= 1
        return reply


class ProcessShardPool:
    """Spawned worker processes holding shard views in shared memory.

    The multicore backend behind ``parallelism="processes"`` (and
    ``"auto"`` past the row floor): each worker owns the shards that hash
    to it (``shard % num_workers``) and keeps their columnar views
    *resident* across executions, so a scan ships only a
    :class:`~repro.plan.columnar.ScanProgram` and receives only
    surviving row positions.  Shard slabs — every position index of
    every shard, packed int64 — live in one shared-memory segment per
    version: workers attach, never copy.

    **Versioning**: :meth:`ensure_version` stamps each shipped slab with
    the planner's ``(generation, mutation_epoch)`` token.  A graph write
    changes the token, so the next execution re-ships fresh views and
    the old segment is unlinked — a worker can never scan pre-mutation
    columns (the invalidation contract the in-process paths get from
    lazy view re-cutting).

    **Start method**: always ``spawn``.  Fork would clone the
    coordinator's heap (locks, pools, cached views) into workers; spawn
    keeps workers minimal and makes the picklability contract explicit.

    **Failure**: any worker error trips the pool's circuit breaker
    *open*; executions degrade to the in-process path (see the degrade
    ladder in ``docs/ARCHITECTURE.md``).  After ``breaker_cooldown_s``
    the breaker goes half-open and the planner sends one probe
    execution through; a successful probe re-ships fresh views (dead
    workers are reaped and respawned first) and re-closes the circuit —
    the pool self-heals without a manual :meth:`reset`.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        breaker_cooldown_s: float | None = None,
    ):
        self.num_workers = (
            num_workers if num_workers is not None else DEFAULT_PROCESS_WORKERS
        )
        if self.num_workers <= 0:
            raise ValueError(
                f"num_workers must be positive, got {self.num_workers!r}"
            )
        self._workers: list[_ProcessWorker] = []
        self._lock = threading.Lock()
        self._version: Any = None
        self._segment: Any = None
        #: the ladder's processes→sequential step: open = skip the backend.
        #: Worker faults are structural (a dead process stays dead), so
        #: failures force the circuit open rather than being rate-graded
        self.breaker = CircuitBreaker(
            "process_pool",
            cooldown_s=(
                breaker_cooldown_s
                if breaker_cooldown_s is not None
                else POOL_BREAKER_COOLDOWN_S
            ),
        )
        #: scans served by workers (the bench/EXPLAIN accounting)
        self.scans_run = 0
        #: slab ships performed (one per adopted version)
        self.ships_run = 0

    @property
    def broken(self) -> bool:
        """True while the circuit is open (cooldown not yet elapsed)."""
        return self.breaker.state == OPEN

    # -- lifecycle ------------------------------------------------------------

    def _ensure_workers_locked(self) -> None:
        if self._workers:
            return
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        try:
            for _ in range(self.num_workers):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_process_worker_main, args=(child_conn,),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers.append(_ProcessWorker(process, parent_conn))
        except Exception as error:
            # e.g. spawn refused while the main module is still importing
            # (an unguarded script __main__) — degrade, don't crash
            raise ProcessPoolError(
                f"could not spawn workers: {error!r}"
            ) from error

    def shutdown(self) -> None:
        """Stop workers and unlink the resident segment."""
        with self._lock:
            workers, self._workers = self._workers, []
            segment, self._segment = self._segment, None
            self._version = None
        self._teardown(workers, segment)

    @staticmethod
    def _teardown(workers: list[_ProcessWorker], segment: Any) -> None:
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            worker.conn.close()
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.kill()
                worker.process.join(timeout=5)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - defensive
                pass

    def _reap_dead_locked(self) -> bool:
        """Tear down the worker set if any process died; True if reaped.

        Caller holds ``_lock``.  The recovery probe path: a half-open
        ship finds the corpses, clears the resident version, and the
        normal ship flow respawns a fresh set.
        """
        if not self._workers:
            return False
        if all(w.process.is_alive() for w in self._workers):
            return False
        workers, self._workers = self._workers, []
        segment, self._segment = self._segment, None
        self._version = None
        self._teardown(workers, segment)
        return True

    def reset(self) -> None:
        """Recover immediately: fresh workers on next use, circuit closed."""
        self.shutdown()
        self.breaker.reset()

    # -- slab shipping --------------------------------------------------------

    def _pack_views(
        self, views: Sequence[ColumnarShardView]
    ) -> tuple[list[dict], bytearray]:
        """Pack every view's position indexes into one flat slab.

        Returns per-shard directories (offsets into the shared slab) and
        the slab bytes.  Term postings ship only when the coordinator
        view already built them — an unbuilt posting table means no
        keyword query has run this generation, and workers build their
        own lazily if one arrives.
        """
        directories: list[dict] = []
        chunks: list[bytearray] = []
        base = 0
        for view in views:
            groups: dict[str, Any] = {
                "type_buckets": view.type_buckets(),
                "link_type_buckets": view.link_type_buckets(),
            }
            if view._term_postings is not None:
                groups["term_postings"] = view.term_postings()
            directory, chunk = pack_sections(groups)
            directories.append({
                group: {
                    key: (offset + base, count)
                    for key, (offset, count) in sections.items()
                }
                for group, sections in directory.items()
            })
            chunks.append(chunk)
            base += len(chunk) // SLAB_ITEMSIZE
        slab = bytearray()
        for chunk in chunks:
            slab.extend(chunk)
        return directories, slab

    def ensure_version(
        self, token: Any, views: Sequence[ColumnarShardView]
    ) -> float:
        """Make *views* resident in every worker under *token*.

        Returns the shipping wall-time (0.0 when the version is already
        resident — the common case on every execution after the first of
        a generation).  Old segments are unlinked only after every
        worker has acked the new version, so no in-flight scan can lose
        its mapping.
        """
        with self._lock:
            if self.breaker.state == OPEN:
                raise ProcessPoolError("process pool circuit open")
            reaped = self._reap_dead_locked()
            if self._version == token and self._workers and not reaped:
                return 0.0
            start = time.perf_counter()
            segment = None
            try:
                fault_point("parallel.ship_slabs", token=token)
                self._ensure_workers_locked()
                directories, slab = self._pack_views(views)
                segment_name = None
                if len(slab) > 0:
                    from multiprocessing import shared_memory

                    segment = shared_memory.SharedMemory(
                        create=True, size=max(len(slab), 1)
                    )
                    segment.buf[: len(slab)] = slab
                    segment_name = segment.name

                def slab_message(index: int) -> tuple:
                    shards = {
                        shard: {
                            "nodes": view.nodes,
                            "links": view.links,
                            "directory": directories[shard],
                        }
                        for shard, view in enumerate(views)
                        if shard % self.num_workers == index
                    }
                    payload: dict[str, Any] = {"shards": shards}
                    if segment_name is None:
                        payload["slab"] = bytes(slab)
                    return (
                        "slabs",
                        token,
                        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                        segment_name,
                    )

                # lazily: each payload is pickled just before its send
                messages = map(slab_message, range(len(self._workers)))
                self._exchange(self._workers, messages)
            except Exception as error:
                # any ship failure — spawn refusal, an unpicklable record
                # attribute, a dead pipe — trips the circuit; callers
                # degrade to the in-process path until the cooldown
                self.breaker.force_open()
                if segment is not None:
                    segment.close()
                    segment.unlink()
                if isinstance(error, ProcessPoolError):
                    raise
                raise ProcessPoolError(
                    f"slab ship failed: {error!r}"
                ) from error
            old_segment, self._segment = self._segment, segment
            self._version = token
            self.ships_run += 1
            self.breaker.record_success()
            if old_segment is not None:
                old_segment.close()
                try:
                    old_segment.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
            return time.perf_counter() - start

    # -- scans ----------------------------------------------------------------

    @staticmethod
    def _exchange(
        workers: Sequence[_ProcessWorker],
        messages: Iterable[tuple],
        ctx: "ExecContext | None" = None,
    ) -> list[tuple]:
        """One message to each worker, then one reply from each.

        The two phases are what overlap the workers: every worker is
        busy before the coordinator waits on any of them.  *workers*
        must be in pool (index) order — their locks are taken in that
        order, so concurrent exchanges from gateway threads cannot
        deadlock — and each pipe carries one in-flight message: replies
        still owed from an abandoned gather are drained before the send.

        The wait for a reply is bounded by ``PROCESS_REPLY_TIMEOUT_S``
        and by *ctx*'s deadline.  Running out of the request's budget
        raises :class:`~repro.errors.DeadlineError` — expiry is not a
        worker fault and must not trip the breaker; a silent worker
        otherwise raises :class:`ProcessPoolError`, as do dead pipes
        and ``("err", …)`` replies.
        """
        deadline = ctx.deadline if ctx is not None else None

        def reply_of(worker: _ProcessWorker) -> tuple:
            wait = PROCESS_REPLY_TIMEOUT_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            reply = worker.receive(wait)
            if reply is None:
                if ctx is not None:
                    ctx.check_deadline(
                        lambda: f"process worker pid={worker.process.pid}"
                    )
                raise ProcessPoolError(
                    f"worker pid={worker.process.pid} did not reply "
                    f"within {wait:.0f}s"
                )
            return reply

        with ExitStack() as held:
            for worker in workers:
                held.enter_context(worker.lock)
            for worker, message in zip(workers, messages):
                while worker.owed:
                    reply_of(worker)
                worker.send(message)
            replies = [reply_of(worker) for worker in workers]
        for worker, reply in zip(workers, replies):
            if reply[0] == "err":
                raise ProcessPoolError(
                    f"worker pid={worker.process.pid} errored: {reply[1]}"
                )
        return replies

    def scatter(
        self,
        num_shards: int,
        program: ScanProgram,
        ctx: "ExecContext",
    ) -> list[tuple[list[int], float, int]]:
        """Run *program* on shards ``0..num_shards-1``, each on its worker.

        Returns one ``(positions, worker_scan_seconds, worker_pid)`` per
        shard.  Each worker that owns a shard gets exactly one message
        carrying all of its shards.  Any worker failure trips the
        circuit open and raises :class:`ProcessPoolError` — the caller
        degrades to the in-process path; a request deadline running out
        mid-gather raises ``DeadlineError`` and leaves the circuit alone.
        """
        if self.breaker.state == OPEN:
            raise ProcessPoolError("process pool circuit open")
        with self._lock:
            if not self._workers:
                raise ProcessPoolError("no slab version shipped yet")
            # worker i owns shards i, i+W, …: only the first num_shards
            # workers own any
            workers = self._workers[:num_shards]
            version = self._version
        program_bytes = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        owned = [
            list(range(index, num_shards, self.num_workers))
            for index in range(len(workers))
        ]
        try:
            replies = self._exchange(
                workers,
                [("scan", version, shards, program_bytes) for shards in owned],
                ctx,
            )
        except ProcessPoolError:
            self.breaker.force_open()
            raise
        with self._lock:
            self.scans_run += num_shards
        self.breaker.record_success()
        results: list[Any] = [None] * num_shards
        for shards, (_, scans, pid) in zip(owned, replies):
            for shard, (rows, scan_s) in zip(shards, scans):
                results[shard] = (rows, scan_s, pid)
        return results

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (the CI smoke asserts these ≠ main)."""
        with self._lock:
            return [w.process.pid for w in self._workers if w.process.pid]

    def __repr__(self) -> str:
        return (
            f"ProcessShardPool(num_workers={self.num_workers}, "
            f"started={bool(self._workers)}, broken={self.broken}, "
            f"scans_run={self.scans_run})"
        )


class ProcessBackend:
    """Per-execution adapter binding a pool to one slab version.

    Scatter operators see one method: :meth:`scatter`.  The first
    scatter of an execution ships the planner's current views under its
    ``(generation, mutation_epoch)`` token (a no-op when resident);
    shipping cost is amortised evenly over the execution's shards so the
    EXPLAIN ship/scan split sums to the true wall cost.
    """

    def __init__(self, pool: ProcessShardPool, token: Any,
                 views: Sequence[ColumnarShardView]):
        self.pool = pool
        self.token = token
        self.views = views
        self._ship_s: float | None = None

    @property
    def workers(self) -> int:
        return self.pool.num_workers

    def scatter(
        self, program: ScanProgram, ctx: "ExecContext"
    ) -> list[tuple[list[int], float, float, int]]:
        """Ship-if-needed, then scan every shard: one
        ``(rows, ship_s, scan_s, pid)`` per shard."""
        if self._ship_s is None:
            self._ship_s = self.pool.ensure_version(self.token, self.views)
        ship_share = self._ship_s / max(len(self.views), 1)
        return [
            (rows, ship_share, scan_s, pid)
            for rows, scan_s, pid in self.pool.scatter(
                len(self.views), program, ctx
            )
        ]
