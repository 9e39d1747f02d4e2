"""Serving metrics: latency percentiles and process memory high-water.

The load harness and the bench gate both consume these, so the math lives
in one place: percentiles are computed with linear interpolation over the
sorted sample (the common "type 7" estimator), and peak RSS comes from
``resource.getrusage`` — the kernel's high-water mark for the whole
process, which is exactly the "did serving blow the memory budget"
number a closed-loop run wants to report.
"""

from __future__ import annotations

import resource
import sys
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *samples*, linearly interpolated.

    An empty sample set yields 0.0 — the harness reports "no latency
    observed" rather than raising mid-run.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def latency_summary(samples_ms: Sequence[float]) -> dict[str, float]:
    """The p50/p95/p99 + mean/max digest every serving report carries."""
    if not samples_ms:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": percentile(samples_ms, 50.0),
        "p95": percentile(samples_ms, 95.0),
        "p99": percentile(samples_ms, 99.0),
        "mean": sum(samples_ms) / len(samples_ms),
        "max": max(samples_ms),
    }


def peak_rss_mb() -> float:
    """The process's peak resident set size in MiB.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalise so
    the bench baselines are comparable across both.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


__all__ = [
    "percentile",
    "latency_summary",
    "peak_rss_mb",
]
