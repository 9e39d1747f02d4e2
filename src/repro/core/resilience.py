"""A failure-rate circuit breaker with half-open recovery probes.

The standard three-state machine:

* **closed** — calls flow; outcomes land in a sliding window.
* **open** — tripped: either too many *consecutive* failures or the
  window's failure rate crossed the threshold.  Calls are refused until
  ``cooldown_s`` has elapsed on the injected monotonic clock.
* **half-open** — after the cooldown, up to ``probe_budget`` calls are
  let through as recovery probes.  ``probe_successes`` successful probes
  re-close the circuit (self-healing); any probe failure re-opens it and
  restarts the cooldown.

Every method is safe under concurrent callers: one internal lock guards
all state, and the optional transition callback fires *outside* the
lock so observers may take their own locks freely.  The clock is
injectable (tests drive it by hand); the default is ``time.monotonic``,
which the determinism gate permits in strict modules.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

TransitionCallback = Callable[[str, str, str], None]


@dataclass(frozen=True)
class BreakerStats:
    """A consistent snapshot of one breaker's counters."""

    name: str
    state: str
    failures: int
    successes: int
    consecutive_failures: int
    trips: int
    probes: int
    recoveries: int


class CircuitBreaker:
    """Thread-safe closed → open → half-open → closed failure tracker."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        window: int = 16,
        failure_rate: float = 0.5,
        min_calls: int = 4,
        cooldown_s: float = 0.25,
        probe_budget: int = 1,
        probe_successes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: TransitionCallback | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0.0:
            raise ValueError("cooldown_s must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.failure_rate = failure_rate
        self.min_calls = min_calls
        self.cooldown_s = cooldown_s
        self.probe_budget = probe_budget
        self.probe_successes = probe_successes
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._window: Deque[bool] = deque(maxlen=max(window, failure_threshold))
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_at = 0.0
        self._probes_in_flight = 0
        self._probe_wins = 0
        self._failures = 0
        self._successes = 0
        self._trips = 0
        self._probes = 0
        self._recoveries = 0

    # ------------------------------------------------------------- state

    @property
    def state(self) -> str:
        """Current state, promoting open → half-open if the cooldown ran out."""
        events: list[tuple[str, str, str]] = []
        with self._lock:
            state = self._state_locked(events)
        self._fire(events)
        return state

    def _state_locked(self, events: list[tuple[str, str, str]]) -> str:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._transition_locked(HALF_OPEN, events)
        return self._state

    def _transition_locked(
        self, new_state: str, events: list[tuple[str, str, str]]
    ) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if new_state == OPEN:
            self._opened_at = self._clock()
            self._trips += 1
        elif new_state == HALF_OPEN:
            self._probes_in_flight = 0
            self._probe_wins = 0
            self._half_open_at = self._clock()
        elif new_state == CLOSED:
            self._window.clear()
            self._consecutive_failures = 0
        events.append((self.name, old, new_state))

    def _fire(self, events: list[tuple[str, str, str]]) -> None:
        # delivered outside the lock so observers may take their own
        callback = self._on_transition
        if callback is not None:
            for event in events:
                callback(*event)

    # ------------------------------------------------------------- calls

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open calls count as probes."""
        events: list[tuple[str, str, str]] = []
        with self._lock:
            state = self._state_locked(events)
            if state == CLOSED:
                decision = True
            elif state == OPEN:
                decision = False
            else:  # HALF_OPEN: meter the probes
                if self._probes_in_flight >= self.probe_budget and (
                    self._clock() - self._half_open_at >= self.cooldown_s
                ):
                    # a granted probe never reported back (caller bailed
                    # before exercising the resource) — don't stay
                    # wedged half-open, free the budget after a cooldown
                    self._probes_in_flight = 0
                    self._half_open_at = self._clock()
                if self._probes_in_flight < self.probe_budget:
                    self._probes_in_flight += 1
                    self._probes += 1
                    decision = True
                else:
                    decision = False
        self._fire(events)
        return decision

    def record_success(self) -> None:
        events: list[tuple[str, str, str]] = []
        with self._lock:
            self._successes += 1
            state = self._state_locked(events)
            if state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_wins += 1
                if self._probe_wins >= self.probe_successes:
                    self._recoveries += 1
                    self._transition_locked(CLOSED, events)
            else:
                self._window.append(True)
                self._consecutive_failures = 0
        self._fire(events)

    def record_failure(self) -> None:
        events: list[tuple[str, str, str]] = []
        with self._lock:
            self._failures += 1
            state = self._state_locked(events)
            if state == HALF_OPEN:
                # a failed probe re-opens and restarts the cooldown
                self._transition_locked(OPEN, events)
            elif state == CLOSED:
                self._window.append(False)
                self._consecutive_failures += 1
                if self._tripped_locked():
                    self._transition_locked(OPEN, events)
            # failures while OPEN (in-flight stragglers) just count
        self._fire(events)

    def _tripped_locked(self) -> bool:
        if self._consecutive_failures >= self.failure_threshold:
            return True
        if len(self._window) >= self.min_calls:
            rate = self._window.count(False) / len(self._window)
            return rate >= self.failure_rate
        return False

    # --------------------------------------------------------- overrides

    def force_open(self) -> None:
        """Trip immediately (e.g. an unrecoverable setup failure)."""
        events: list[tuple[str, str, str]] = []
        with self._lock:
            self._transition_locked(OPEN, events)
        self._fire(events)

    def reset(self) -> None:
        """Manually re-close, clearing history."""
        events: list[tuple[str, str, str]] = []
        with self._lock:
            self._transition_locked(CLOSED, events)
        self._fire(events)

    # ------------------------------------------------------------- stats

    def stats(self) -> BreakerStats:
        events: list[tuple[str, str, str]] = []
        with self._lock:
            state = self._state_locked(events)
            snapshot = BreakerStats(
                name=self.name,
                state=state,
                failures=self._failures,
                successes=self._successes,
                consecutive_failures=self._consecutive_failures,
                trips=self._trips,
                probes=self._probes,
                recoveries=self._recoveries,
            )
        self._fire(events)
        return snapshot
