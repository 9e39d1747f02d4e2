"""Gateway-side resilience: hedge pacing.

The plan layer owns the degradation ladder's one breaker (attr-index→scan
on the :class:`~repro.plan.planner.QueryPlanner`, reported as-is by
``ServeGateway.stats()``); this module holds the piece the *gateway*
adds on top:

* :class:`HedgeTracker` — an online latency profile of dispatches
  deciding when a worker slot has been held suspiciously long.  A
  dispatch whose execution exceeds the tracked quantile (times a
  multiplier) is re-run on a separate thread: execution is deterministic
  and read-only, so first-completion-wins is safe, and a wedged slot
  costs one duplicated request instead of a wedged one.
"""

from __future__ import annotations

from repro.serve.metrics import percentile


class HedgeTracker:
    """Online quantile of dispatch-execution latencies → the hedge delay.

    Keeps the last *max_samples* execution times (loop-thread only, no
    lock); :meth:`hedge_delay` is ``None`` until *min_samples* have been
    observed — hedging on no evidence would just double early load —
    and then ``quantile × multiplier``, floored at *min_delay_s* so
    sub-millisecond requests don't hedge on scheduler noise.
    """

    def __init__(
        self,
        quantile: float = 0.95,
        multiplier: float = 2.0,
        min_samples: int = 16,
        max_samples: int = 256,
        min_delay_s: float = 0.010,
    ) -> None:
        self.quantile = quantile
        self.multiplier = multiplier
        self.min_samples = min_samples
        self.max_samples = max_samples
        self.min_delay_s = min_delay_s
        self._samples: list[float] = []
        self._next = 0
        self.hedges = 0

    def observe(self, elapsed_s: float) -> None:
        """Record one dispatch's wall time (ring-buffered)."""
        if len(self._samples) < self.max_samples:
            self._samples.append(elapsed_s)
        else:
            self._samples[self._next] = elapsed_s
            self._next = (self._next + 1) % self.max_samples

    def hedge_delay(self) -> float | None:
        """Seconds to wait before hedging, or ``None`` (not enough data)."""
        if len(self._samples) < self.min_samples:
            return None
        cut = percentile(self._samples, self.quantile * 100.0)
        return max(cut * self.multiplier, self.min_delay_s)


__all__ = ["HedgeTracker"]
