"""Fixture: a clean plan module exercising every rule's *negative* path.

Downward import (layering OK), ``perf_counter`` profiling in a strict
module (determinism OK), a correctly disciplined lock: guarded writes
under ``with self._lock``, the ``*_locked`` helper called only with the
lock held (concurrency OK), and every def fully annotated (annotations
OK).
"""

import threading
import time

from app.core import fold


def profile(values: list[int]) -> tuple[int, float]:
    start = time.perf_counter()
    total = fold(values)
    return total, time.perf_counter() - start


class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def _note_locked(self) -> None:
        self.count += 1

    def bump(self) -> None:
        with self._lock:
            self._note_locked()

    def bump_twice(self) -> None:
        with self._lock:
            self._note_locked()
            self._note_locked()
