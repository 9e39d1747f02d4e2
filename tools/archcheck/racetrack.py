"""Eraser-style dynamic lockset race detection for the thread-storm tests.

Static lock-discipline linting (rule family C) proves what it can see;
this module checks the rest *at runtime*: wrap the locks a subsystem
creates, watch every field access on the objects under test, and keep
the classic Eraser lockset state machine per field —

    VIRGIN → EXCLUSIVE (one thread) → SHARED (second thread reads)
                                    → SHARED_MODIFIED (second thread writes)

In the shared states the candidate lockset is intersected with the
locks the accessing thread holds; if a SHARED_MODIFIED field's lockset
goes empty, no single lock consistently protected it — a data race,
regardless of whether this particular interleaving corrupted anything.

Usage (see ``tests/archcheck/test_racetrack.py``)::

    tracker = RaceTracker()
    with tracker.trace(repro.plan.cache):
        cache = PlanCache(maxsize=8)        # gets TracedLock transparently
        tracker.monitor(cache)
        ...spawn the thread storm...
    tracker.assert_race_free()

A field that *publishes* frozen values — one reference, replaced whole
under a lock and read without one — is named to :meth:`RaceTracker.monitor`
as ``published``: its reads are one load of a reference whose target
never changes, so they do not narrow its lockset; its writes still must
all hold one lock.

``trace`` rebinds the name ``threading`` *inside the given modules only*
to a shim whose ``Lock()`` returns a :class:`TracedLock`; the rest of
the process keeps real locks.  Objects must be constructed inside the
``trace`` block for their locks to be traced.  Lock-valued fields,
dunders, and accesses after the block exits are excluded by design
(post-join assertions on the test thread would otherwise empty every
lockset).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable

VIRGIN = "virgin"
EXCLUSIVE = "exclusive"
SHARED = "shared"
SHARED_MODIFIED = "shared-modified"


class RaceError(AssertionError):
    """Raised by :meth:`RaceTracker.assert_race_free` when races were seen."""


class TracedLock:
    """A ``threading.Lock`` stand-in that reports holds to its tracker."""

    def __init__(self, tracker: "RaceTracker"):
        self._real = threading.Lock()
        self._tracker = tracker

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._real.acquire(blocking, timeout)
        if got:
            self._tracker._push(self)
        return got

    def release(self) -> None:
        self._tracker._pop(self)
        self._real.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class _ThreadingShim:
    """Module-scoped ``threading`` replacement: traced Lock, rest real."""

    def __init__(self, tracker: "RaceTracker"):
        self._tracker = tracker

    def Lock(self) -> TracedLock:  # noqa: N802 — mirrors threading.Lock
        return TracedLock(self._tracker)

    def __getattr__(self, name: str):
        return getattr(threading, name)


@dataclass
class _FieldState:
    label: str
    state: str = VIRGIN
    owner: int | None = None
    #: locks every checked shared access held (None: none checked yet)
    lockset: frozenset[int] | None = None
    reported: bool = False


@dataclass
class Race:
    label: str
    kind: str       #: "read" or "write" — the access that emptied the set
    thread: int

    def render(self) -> str:
        return (
            f"{self.label}: lockset went empty on a {self.kind} by thread "
            f"{self.thread} after the field was written by multiple "
            f"threads — no single lock consistently protects it"
        )


class RaceTracker:
    """Per-test lockset bookkeeping; one instance per traced scenario."""

    def __init__(self):
        self.active = False
        self.races: list[Race] = []
        self._fields: dict[tuple[int, str], _FieldState] = {}
        self._tls = threading.local()
        self._state_lock = threading.Lock()  # guards _fields/races
        self._traced_classes: dict[type, type] = {}
        #: id(monitored object) → its published fields
        self._published: dict[int, frozenset[str]] = {}

    # ---------------------------------------------------------- held locks
    def _held(self) -> set[int]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = set()
            self._tls.held = held
        return held

    def _push(self, lock: TracedLock) -> None:
        self._held().add(id(lock))

    def _pop(self, lock: TracedLock) -> None:
        self._held().discard(id(lock))

    # ------------------------------------------------------------- tracing
    @contextmanager
    def trace(self, *modules):
        """Trace lock creation in *modules* and record accesses until exit."""
        shim = _ThreadingShim(self)
        saved = []
        for module in modules:
            saved.append((module, getattr(module, "threading", None)))
            module.threading = shim
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for module, original in saved:
                if original is not None:
                    module.threading = original
                else:
                    del module.threading

    def monitor(self, obj, published: Iterable[str] = ()) -> None:
        """Swap *obj*'s class for a traced subclass recording every access.

        *published* names fields whose unlocked reads are safe (see the
        module docstring); only their writes are checked.
        """
        self._published[id(obj)] = frozenset(published)
        cls = type(obj)
        traced = self._traced_classes.get(cls)
        if traced is None:
            traced = _make_traced_class(cls, self)
            self._traced_classes[cls] = traced
        obj.__class__ = traced

    # ----------------------------------------------------- the state machine
    def record(self, obj, name: str, write: bool) -> None:
        if not self.active:
            return
        thread = threading.get_ident()
        locks = frozenset(self._held())
        key = (id(obj), name)
        checked = write or name not in self._published.get(id(obj), ())
        with self._state_lock:
            fs = self._fields.get(key)
            if fs is None:
                fs = _FieldState(label=f"{type(obj).__name__}.{name}")
                self._fields[key] = fs
            if fs.state == VIRGIN:
                fs.state = EXCLUSIVE
                fs.owner = thread
                return
            if fs.state == EXCLUSIVE:
                if thread == fs.owner:
                    return
                fs.state = SHARED_MODIFIED if write else SHARED
            elif write and fs.state == SHARED:
                fs.state = SHARED_MODIFIED
            if checked:
                fs.lockset = locks if fs.lockset is None \
                    else fs.lockset & locks
            if (
                fs.state == SHARED_MODIFIED
                and fs.lockset is not None
                and not fs.lockset
                and not fs.reported
            ):
                fs.reported = True
                self.races.append(Race(
                    label=fs.label,
                    kind="write" if write else "read",
                    thread=thread,
                ))

    # ------------------------------------------------------------- verdicts
    def assert_race_free(self) -> None:
        if self.races:
            raise RaceError(
                "lockset race(s) detected:\n  "
                + "\n  ".join(race.render() for race in self.races)
            )

    def field_states(self) -> dict[str, str]:
        """label → state, for test introspection."""
        return {fs.label: fs.state for fs in self._fields.values()}


def _is_tracked_field(obj, name: str, value) -> bool:
    """Instance data fields only: no dunders, no locks, no callables."""
    if name.startswith("__"):
        return False
    if name.endswith("_lock") or name == "_tracker":
        return False
    if isinstance(value, TracedLock):
        return False
    if callable(value) and not isinstance(value, (list, dict, set, tuple)):
        # bound methods / stored callables are read-only plumbing
        return False
    try:
        instance_dict = object.__getattribute__(obj, "__dict__")
    except AttributeError:
        return False
    return name in instance_dict


def _make_traced_class(cls: type, tracker: RaceTracker) -> type:
    """Subclass of *cls* whose attribute protocol reports to *tracker*."""

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if tracker.active and _is_tracked_field(self, name, value):
            tracker.record(self, name, write=False)
        return value

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if tracker.active and _is_tracked_field(self, name, value):
            tracker.record(self, name, write=True)

    # keep the original class name: field labels and reprs should read
    # as the object under test, not as detector plumbing
    return type(
        cls.__name__,
        (cls,),
        {
            "__getattribute__": __getattribute__,
            "__setattr__": __setattr__,
            "__module__": cls.__module__,
        },
    )
