"""Dynamic lockset race detection over the real plan-cache thread storm.

Two directions, both required: the detector must stay silent on the
correctly locked ``PlanCache`` under genuine thread pressure, and
it must fire on a deliberately unlocked shared counter even when the
interleaving happens to be benign — that is the entire point of lockset
analysis over crash-hoping stress tests.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.plan.cache as cache_module
from repro.plan import PlanCache
from tools.archcheck.racetrack import RaceError, RaceTracker, TracedLock

THIS_MODULE = sys.modules[__name__]


class TestDetectorFires:
    def test_unlocked_shared_counter_is_a_race(self):
        tracker = RaceTracker()

        class Racy:
            def __init__(self):
                self.count = 0

        with tracker.trace():
            box = Racy()
            tracker.monitor(box)

            def bump():
                box.count += 1

            worker = threading.Thread(target=bump)
            worker.start()
            worker.join()
            box.count += 1  # second thread, no lock: lockset goes empty

        with pytest.raises(RaceError, match="Racy.count"):
            tracker.assert_race_free()

    def test_read_only_sharing_is_not_a_race(self):
        tracker = RaceTracker()

        class Frozen:
            def __init__(self):
                self.value = 7

        with tracker.trace():
            box = Frozen()
            tracker.monitor(box)
            seen = []
            reader = threading.Thread(target=lambda: seen.append(box.value))
            reader.start()
            reader.join()
            seen.append(box.value)

        tracker.assert_race_free()
        assert tracker.field_states()["Frozen.value"] == "shared"


    def test_an_unlocked_write_to_a_published_field_is_a_race(self):
        """Reads of a published field are not checked; its writes are."""
        tracker = RaceTracker()

        class Slot:
            def __init__(self):
                self.value = (0,)

        with tracker.trace():
            box = Slot()
            tracker.monitor(box, published=("value",))
            worker = threading.Thread(target=lambda: setattr(box, "value", (1,)))
            worker.start()
            worker.join()
            box.value = (2,)  # a second writer, no lock

        with pytest.raises(RaceError, match="Slot.value"):
            tracker.assert_race_free()


class TestDetectorStaysSilent:
    def test_consistently_locked_counter_is_race_free(self):
        tracker = RaceTracker()
        with tracker.trace(THIS_MODULE):

            class Guarded:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

            box = Guarded()
            assert isinstance(box._lock, TracedLock)  # shim took effect
            tracker.monitor(box)
            # all four alive at once: a thread that finished before the
            # next started would hand it its ident, and the detector
            # would see one writer
            together = threading.Barrier(4)
            threads = [
                threading.Thread(
                    target=lambda: [together.wait()]
                    + [box.bump() for _ in range(200)]
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with box._lock:
                total = box.count

        tracker.assert_race_free()
        assert total == 800
        assert tracker.field_states()["Guarded.count"] == "shared-modified"

    def test_a_published_field_read_without_the_lock_is_race_free(self):
        """One reference replaced whole under a lock and read without one
        (the session's generation slot) is safe publication."""
        tracker = RaceTracker()
        with tracker.trace(THIS_MODULE):

            class Published:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.current = (0,)

                def publish(self):
                    with self._lock:
                        self.current = (self.current[0] + 1,)

            box = Published()
            tracker.monitor(box, published=("current",))
            together = threading.Barrier(4)
            seen: list[int] = []

            def reader():
                together.wait()
                seen.extend(box.current[0] for _ in range(200))

            def writer():
                together.wait()
                for _ in range(200):
                    box.publish()

            threads = [threading.Thread(target=reader) for _ in range(2)] \
                + [threading.Thread(target=writer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        tracker.assert_race_free()
        assert box.current == (400,)
        assert tracker.field_states()["Published.current"] == \
            "shared-modified"

    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_shared_plan_cache_storm_is_race_free(self):
        tracker = RaceTracker()
        with tracker.trace(cache_module):
            cache = PlanCache(maxsize=32)
            assert isinstance(cache._lock, TracedLock)
            tracker.monitor(cache)
            errors: list[BaseException] = []
            together = threading.Barrier(8)  # distinct live idents, as above

            def worker(seed: int) -> None:
                try:
                    together.wait()
                    for i in range(200):
                        key = ("k", (seed * 7 + i) % 48)
                        stamp = i % 3
                        got = cache.get(key, stamp)
                        if got is None:
                            cache.put(
                                key, stamp, f"plan-{key}",  # type: ignore[arg-type]
                            )
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
        # the storm must actually have contended on the cache internals —
        # a detector that watched nothing would also report "race free"
        assert any(
            state in ("shared", "shared-modified")
            for state in tracker.field_states().values()
        ), tracker.field_states()

    def test_shim_is_restored_after_trace(self):
        tracker = RaceTracker()
        with tracker.trace(cache_module):
            assert cache_module.threading is not threading
        assert cache_module.threading is threading
        assert isinstance(cache_module.threading.Lock(), type(threading.Lock()))
