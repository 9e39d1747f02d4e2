"""Arming API for the named fault points in :mod:`repro.core.faults`.

Production code declares *where* failures happen (``fault_point(name,
**info)`` calls); this module decides *whether and how* they fire.  It
keeps its own registry and mirrors it into the core hook, so arming and
disarming compose: two tests (or two phases of a chaos schedule) can
arm disjoint fault sets without clobbering each other.

The canned handler factories cover the failure modes the deadlines and
typed outcomes must answer:

* :func:`raising` — the site's natural exception (a scan error, WAL
  fsync ``OSError``, …);
* :func:`sleeping` — slow scans, hung executor slots;
* :func:`file_corruptor` — flips bytes in a just-written snapshot so
  the read-side CRC verify fails honestly.

Registered fault-point names (the contract with production modules):

======================  ====================================================
``physical.scan``        before each columnar scan
``wal.fsync``            before a WAL file fsync (``path=``)
``persist.snapshot``     after an atomic snapshot write (``path=``)
``serve.batch``          inside a gateway worker slot, before the
                         request runs
``management.serve``     inside ``DataManager.graph()``, after the next
                         graph is cut and before it is stamped served
======================  ====================================================
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.core import faults as core_faults
from repro.core.faults import FaultHandler

#: Every name production code is allowed to pass to ``fault_point`` —
#: tests assert arming an unknown name is a typo, not a silent no-op.
KNOWN_FAULT_POINTS = (
    "physical.scan",
    "wal.fsync",
    "persist.snapshot",
    "serve.batch",
    "management.serve",
)

_registry_lock = threading.Lock()
_registry: dict[str, FaultHandler] = {}


def _mirror_locked() -> None:
    core_faults.install(dict(_registry) if _registry else None)


def arm(handlers: Mapping[str, FaultHandler]) -> None:
    """Arm (or re-arm) the given fault points; others stay as they are."""
    for name in handlers:
        if name not in KNOWN_FAULT_POINTS:
            raise ValueError(f"unknown fault point: {name!r}")
    with _registry_lock:
        _registry.update(handlers)
        _mirror_locked()


def disarm(*names: str) -> None:
    """Disarm specific fault points (missing names are fine)."""
    with _registry_lock:
        for name in names:
            _registry.pop(name, None)
        _mirror_locked()


def disarm_all() -> None:
    """Return the process to the zero-cost unarmed state."""
    with _registry_lock:
        _registry.clear()
        _mirror_locked()


@contextmanager
def armed_faults(handlers: Mapping[str, FaultHandler]) -> Iterator[None]:
    """Arm *handlers* for the duration of the block, then disarm them."""
    arm(handlers)
    try:
        yield
    finally:
        disarm(*handlers)


# ---------------------------------------------------------------- handlers


def _budgeted(action: Callable[..., None], times: int | None) -> FaultHandler:
    """Wrap *action* so it fires at most *times* times (None = always)."""
    if times is None:
        return action
    lock = threading.Lock()
    remaining = [times]

    def handler(name: str, **info: Any) -> None:
        with lock:
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
        action(name, **info)

    return handler


def raising(
    make_exc: Callable[[], BaseException], times: int | None = None
) -> FaultHandler:
    """A handler that raises a fresh exception from *make_exc*."""

    def action(name: str, **info: Any) -> None:
        raise make_exc()

    return _budgeted(action, times)


def sleeping(seconds: float, times: int | None = None) -> FaultHandler:
    """A handler that stalls the calling thread (slow scan, hung slot)."""

    def action(name: str, **info: Any) -> None:
        time.sleep(seconds)

    return _budgeted(action, times)


def file_corruptor(times: int | None = None) -> FaultHandler:
    """Flip the last byte of the file at ``path=`` (CRC must catch it)."""

    def action(name: str, **info: Any) -> None:
        path = Path(info["path"])
        size = path.stat().st_size
        if size == 0:
            return
        with open(path, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
            handle.flush()
            os.fsync(handle.fileno())

    return _budgeted(action, times)


# ---------------------------------------------------------------- schedule


@dataclass
class FaultPhase:
    """Arm *handlers* while the driver's request index is in [start, stop)."""

    start: int
    stop: int
    handlers: dict[str, FaultHandler] = field(default_factory=dict)
    _armed: bool = field(default=False, repr=False)
    _done: bool = field(default=False, repr=False)


class FaultSchedule:
    """Deterministic mid-run arming, keyed on submitted-request index.

    The chaos harness calls :meth:`poll` with its running request
    counter; phases arm and disarm themselves as the counter crosses
    their bounds.  Index-keyed (not wall-clock) so a seeded run arms the
    same faults at the same requests every time.
    """

    def __init__(self, phases: list[FaultPhase]) -> None:
        self.phases = sorted(phases, key=lambda p: (p.start, p.stop))

    def poll(self, index: int) -> None:
        for phase in self.phases:
            if phase._done:
                continue
            if not phase._armed and phase.start <= index < phase.stop:
                arm(phase.handlers)
                phase._armed = True
            elif index >= phase.stop:
                if phase._armed:
                    disarm(*phase.handlers)
                    phase._armed = False
                phase._done = True

    def finish(self) -> None:
        """Disarm everything this schedule armed (call in ``finally``)."""
        for phase in self.phases:
            if phase._armed:
                disarm(*phase.handlers)
                phase._armed = False
            phase._done = True

    @property
    def active(self) -> tuple[str, ...]:
        names: set[str] = set()
        for phase in self.phases:
            if phase._armed:
                names.update(phase.handlers)
        return tuple(sorted(names))
