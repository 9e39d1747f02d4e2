"""Measurement helpers of the whole-request benchmark.

Nothing here imports ``repro``: percentiles that refuse thin samples,
the in-memory span recorder, seeded arrival schedules, and the canonical
form of a response are plain functions over plain values, so
``test_harness.py`` checks them without building a site.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Sequence

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
#: floats of a canonical form are compared and hashed at this precision
DECIMALS = 9


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too thin to support it."""


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND,
    behind: int | None = None,
) -> float:
    """The *q*-th percentile (0..100), linearly interpolated.

    Raises :class:`TooFewSamples` unless at least *min_beyond* timed
    samples lie on the thinner side of the cut: p95 needs 200, p50 20.
    *behind* is how many timed samples stand behind *samples* when each
    of them already condenses several repeats (see :func:`steady`).
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile q must be in (0, 100), got {q!r}")
    count = len(samples) if behind is None else behind
    beyond = count * min(q, 100.0 - q) / 100.0
    if not samples or beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} over {count} samples leaves {beyond:.1f} beyond "
            f"it; {min_beyond} are needed"
        )
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def steady(repeats: Sequence[float]) -> float:
    """The lower quartile of repeated timings of the same work.

    Every timed pass replays the same requests, so each is timed several
    times.  Other tenants of the machine only ever add time, in bursts
    that last seconds; the quarter of the repeats they disturbed least
    says what the program costs, and moves far less from run to run than
    the mean or the median of all repeats does.
    """
    return percentile(repeats, 25.0, min_beyond=0)


def steady_columns(passes: Sequence[Sequence[float]]) -> list[float]:
    """:func:`steady` per position over passes of equal length."""
    return [steady(column) for column in zip(*passes)]


def poisson_arrivals(rate_per_s: float, count: int, seed: int) -> list[float]:
    """Due times (seconds from phase start) of *count* Poisson arrivals."""
    rng = random.Random(seed)
    due, schedule = 0.0, []
    for _ in range(count):
        due += rng.expovariate(rate_per_s)
        schedule.append(due)
    return schedule


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the causing span in ``Tracer.spans`` (None for a root)
    parent: int | None
    request_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts of one traced run, kept in memory until the end."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, start: float, end: float,
            parent: int | None, request_id: str) -> int:
        self.spans.append(Span(name, start, end, parent, request_id))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request_id: str,
             parent: int | None = None) -> Iterator[int]:
        """Time the block; yields the span's index for its children."""
        index = self.add(name, perf_counter(), 0.0, parent, request_id)
        try:
            yield index
        finally:
            self.spans[index].end = perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(index, ()),
                                key=lambda s: s.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(span.duration - covered)
        return result

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request_id, "self_s": selfs[index],
                }) + "\n")
            out.write(json.dumps({"counts": self.counts}) + "\n")


# ---------------------------------------------------------------------------
# canonical responses
# ---------------------------------------------------------------------------


def _weights(mapping: Any) -> list[list[Any]]:
    return sorted([repr(key), float(weight)] for key, weight in mapping.items())


def _entry(entry: Any) -> dict[str, Any]:
    explanation = entry.explanation
    return {
        "item": repr(entry.item_id),
        "score": float(entry.score),
        "kind": explanation.kind,
        "supporters": _weights(explanation.supporters),
        "text": explanation.aggregate_text,
    }


def canonical_response(response: Any) -> dict[str, Any]:
    """The whole response as plain values, independent of dict order.

    Covers what a user is shown: ranked item ids, scores, group labels
    and members, explanation supporters and weights, aggregate texts and
    the pagination bookkeeping.  The continuation cursor is left out: it
    embeds the refresh epoch and boot token, which differ between a
    session and its restored or single-shard twin by design.
    """
    page, info = response.page, response.page_info
    groups = []
    for group in page.groups:
        explanation = group.explanation
        groups.append({
            "label": str(group.label),
            "dimension": group.dimension,
            "score": float(group.group_score),
            "entries": [_entry(e) for e in group.entries],
            "supporters": [] if explanation is None else [
                [repr(k), float(w)] for k, w in explanation.top_supporters
            ],
            "coverage": 0.0 if explanation is None else explanation.coverage,
            "text": "" if explanation is None else explanation.text,
        })
    return {
        "items": [repr(i) for i in response.items],
        "dimension": page.chosen_dimension,
        "dimension_scores": _weights(page.dimension_scores),
        "groups": groups,
        "flat": [_entry(e) for e in page.flat],
        "expert_fallback": bool(page.used_expert_fallback),
        "page_info": {
            "page": info.page, "page_size": info.page_size,
            "offset": info.offset, "returned": info.returned,
            "total_items": info.total_items, "has_next": info.has_next,
        },
    }


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, DECIMALS)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def digest(canonical: Any) -> str:
    """SHA-256 of a canonical form (floats rounded, keys sorted)."""
    text = json.dumps(_rounded(canonical), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def first_difference(a: Any, b: Any, tol: float = 10.0 ** -DECIMALS,
                     path: str = "$") -> str | None:
    """Where two canonical forms first differ (None when equal at *tol*)."""
    if isinstance(a, float) and isinstance(b, float):
        return None if abs(a - b) <= tol else f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for key in a:
            found = first_difference(a[key], b[key], tol, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, tol, f"{path}[{index}]")
            if found:
                return found
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"
