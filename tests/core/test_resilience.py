"""CircuitBreaker: state machine, probes, and the 8-thread lockset storm.

The breaker is the shared substrate of the degradation ladder
(attr-index→scan), so its transitions are
pinned here with a hand-driven clock — no sleeps, no flakiness — and its
locking discipline is checked by the dynamic lockset detector under a
genuine trip/probe/recover thread storm.
"""

from __future__ import annotations

import threading

import pytest

import repro.core.resilience as resilience_module
from repro.core.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from tools.archcheck.racetrack import RaceTracker, TracedLock


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(**kwargs) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    defaults = dict(
        failure_threshold=3, window=8, failure_rate=0.5, min_calls=4,
        cooldown_s=1.0, probe_budget=1, probe_successes=1, clock=clock,
    )
    defaults.update(kwargs)
    return CircuitBreaker("test", **defaults), clock


class TestTrip:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_consecutive_failures_trip(self):
        breaker, _ = make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.stats().trips == 1

    def test_window_failure_rate_trips(self):
        # alternating outcomes never hit 3 consecutive, but the window
        # rate crosses 0.5 once min_calls have landed
        breaker, _ = make_breaker(
            failure_threshold=10, window=8, failure_rate=0.5, min_calls=4
        )
        for _ in range(2):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED  # rate 0.5 but judged on failures
        breaker.record_failure()        # window rate now 3/5
        assert breaker.state == OPEN

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = make_breaker(failure_threshold=3, min_calls=100)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_force_open_trips_immediately(self):
        breaker, _ = make_breaker()
        breaker.force_open()
        assert breaker.state == OPEN
        assert not breaker.allow()


class TestRecovery:
    def test_cooldown_promotes_to_half_open(self):
        breaker, clock = make_breaker(cooldown_s=1.0)
        breaker.force_open()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert breaker.state == OPEN
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN

    def test_probe_budget_is_metered(self):
        breaker, clock = make_breaker(probe_budget=1)
        breaker.force_open()
        clock.advance(1.1)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # budget spent

    def test_probe_success_closes(self):
        breaker, clock = make_breaker()
        breaker.force_open()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        stats = breaker.stats()
        assert stats.recoveries == 1 and stats.probes == 1

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = make_breaker()
        breaker.force_open()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert not breaker.allow()   # new cooldown, not the old one
        clock.advance(0.6)
        assert breaker.allow()

    def test_stalled_probe_budget_is_reclaimed(self):
        # a granted probe whose caller never reports back must not wedge
        # the breaker half-open forever
        breaker, clock = make_breaker(probe_budget=1)
        breaker.force_open()
        clock.advance(1.1)
        assert breaker.allow()        # probe granted, never reported
        assert not breaker.allow()
        clock.advance(1.1)
        assert breaker.allow()        # budget reclaimed after a cooldown

    def test_reset_recloses_and_clears_history(self):
        breaker, _ = make_breaker(failure_threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        breaker.reset()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == CLOSED  # old window did not survive reset


class TestObservers:
    def test_transitions_fire_the_callback_in_order(self):
        events: list[tuple[str, str, str]] = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            "observed", failure_threshold=1, cooldown_s=1.0,
            clock=clock, on_transition=lambda *e: events.append(e),
        )
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_success()
        assert events == [
            ("observed", CLOSED, OPEN),
            ("observed", OPEN, HALF_OPEN),
            ("observed", HALF_OPEN, CLOSED),
        ]

    def test_callback_may_reenter_the_breaker(self):
        # fired outside the lock: an observer reading stats() must not
        # deadlock
        seen: list[str] = []
        breaker = CircuitBreaker(
            "reentrant", failure_threshold=1,
            on_transition=lambda name, old, new: seen.append(
                breaker.stats().state
            ),
        )
        breaker.record_failure()
        assert seen == [OPEN]

    def test_stats_snapshot_counts(self):
        breaker, _ = make_breaker(failure_threshold=2, min_calls=100)
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        stats = breaker.stats()
        assert stats.state == OPEN
        assert stats.successes == 1
        assert stats.failures == 2
        assert stats.trips == 1


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker("bad", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("bad", cooldown_s=0.0)


class TestLocksetStorm:
    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_trip_probe_recover_storm_is_race_free(self):
        """8 threads hammer every mutator through full state cycles."""
        tracker = RaceTracker()
        with tracker.trace(resilience_module):
            breaker = CircuitBreaker(
                "storm", failure_threshold=2, window=8, min_calls=4,
                cooldown_s=0.001, probe_budget=2, probe_successes=2,
            )
            assert isinstance(breaker._lock, TracedLock)
            tracker.monitor(breaker)
            errors: list[BaseException] = []

            def worker(seed: int) -> None:
                try:
                    for i in range(400):
                        if breaker.allow():
                            # deterministic per-thread outcome pattern:
                            # enough failures to trip, enough successes
                            # to recover, repeatedly
                            if (seed + i) % 3 == 0:
                                breaker.record_failure()
                            else:
                                breaker.record_success()
                        if i % 97 == 0:
                            breaker.force_open()
                        if i % 131 == 0:
                            breaker.reset()
                        if i % 53 == 0:
                            breaker.stats()
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        tracker.assert_race_free()
        # the storm must actually have contended on breaker internals
        assert any(
            state == "shared-modified"
            for state in tracker.field_states().values()
        ), tracker.field_states()
        # and must have exercised real transitions, not just one state
        stats = breaker.stats()
        assert stats.trips > 0 and stats.probes > 0
