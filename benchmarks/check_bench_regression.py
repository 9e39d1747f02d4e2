#!/usr/bin/env python
"""Bench regression gate: fresh BENCH_plan.json vs. committed baselines.

Wall-clock milliseconds do not transfer between machines, so the gate
mostly tracks *ratios* — the CF kernel over the Example 5 recipe, the rows a deep page ranks over the
rows its window needs, a read right after a write over a warm read, warm
first request over cold after recovery.
The serve bench additionally gates its latency percentiles (p95/p99) and
peak RSS directly: regime-matched baselines plus the multiplicative
budget absorb runner variance there.  Each tracked metric must not
regress past ``baseline * tolerance`` (plus a small absolute slack,
because a ratio of 0.03 jittering to 0.05 on a busy shared runner is
noise, not a regression).

Baselines live in ``benchmarks/bench_baselines.json``, keyed by regime —
``full`` for the real corpus sizes, ``quick`` for the CI smoke workloads
(tiny populations skew the ratios, so the regimes never share numbers).
The fresh results file records which regime produced it (the ``quick``
flag ``bench_plan_compile`` emits).

Exit status: 0 when every tracked metric holds, 1 on any regression or
missing input.  Update the baselines by copying the printed fresh ratios
after an intentional performance change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = ROOT / "BENCH_plan.json"
DEFAULT_BASELINES = Path(__file__).resolve().parent / "bench_baselines.json"

#: Multiplicative regression budget on every tracked ratio.
DEFAULT_TOLERANCE = 1.3
#: Absolute slack in ratio points, shielding near-zero ratios from noise.
ABS_SLACK = 0.05


def tracked_metrics(results: dict) -> dict[str, float]:
    """The metrics the gate watches.

    Mostly machine-independent ratios; the serve section additionally
    tracks its latency percentiles and peak RSS directly — those are the
    serving gateway's acceptance surface, and the multiplicative budget
    plus regime-matched baselines absorb runner variance.

    Each section is optional: benches can run (and be gated) standalone —
    a baseline with no fresh counterpart still fails, so a section
    silently missing from a full run cannot slip through.
    """
    metrics: dict[str, float] = {}

    if "cf" in results:
        # the plan's similar_users kernel / the Example 5 recipe it is
        # held equal to: ~0.02 while the stage probes the requester's
        # neighbourhood, ~1 if it is routed back through the interpreter
        metrics["cf.kernel_over_recipe"] = results["cf"]["kernel_over_recipe"]

    if "rank" in results:
        # rows ranked for a deep page without k / rows ranked for the k
        # that ends on the same row: 1 while the session pushes the
        # window into the ranking, matched / 40 if deep pages go back to
        # ranking every survivor
        metrics["rank.deep_page_over_topk"] = (
            results["rank"]["deep_page_over_topk"]
        )

    if "refresh" in results:
        # a read right after one vote / the warm read of the same
        # request: ~2.2 while a vote advances the session by its delta,
        # ~14 if it is routed back through the full resync
        metrics["refresh.read_after_write_over_warm"] = (
            results["refresh"]["read_after_write_over_warm"]
        )

    if "serve" in results:
        serve = results["serve"]
        metrics["serve.p95_ms"] = serve["latency_ms"]["p95"]
        metrics["serve.p99_ms"] = serve["latency_ms"]["p99"]
        metrics["serve.peak_rss_mb"] = serve["peak_rss_mb"]
        # deadlined run / undeadlined run on the same stream, no
        # expiries: the no-fault cost of the deadline machinery (target
        # <3%, i.e. a ratio hugging 1.0)
        metrics["serve.deadline_overhead"] = serve["deadline_overhead"]

    if "recovery" in results:
        recovery = results["recovery"]
        # warm first-request latency / cold first-request latency: drifts
        # toward 1.0 when plan-cache warming stops paying for itself
        metrics["recovery.warm_first_over_cold_first"] = (
            recovery["warm_first_over_cold_first"]
        )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help="fresh BENCH_plan.json (default: repo root)")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES,
                        help="committed baseline ratios")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="multiplicative regression budget (default 1.3)")
    args = parser.parse_args(argv)

    if not args.results.exists():
        print(f"regression gate: missing results file {args.results}")
        return 1
    results = json.loads(args.results.read_text())
    baselines_by_regime = json.loads(args.baselines.read_text())
    regime = "quick" if results.get("quick") else "full"
    baselines = baselines_by_regime.get(regime)
    if baselines is None:
        print(f"regression gate: no '{regime}' baselines in {args.baselines}")
        return 1

    fresh = tracked_metrics(results)
    failures = []
    print(f"bench regression gate ({regime} regime, "
          f"tolerance {args.tolerance:g}x + {ABS_SLACK:g} slack)")
    for name, baseline in sorted(baselines.items()):
        got = fresh.get(name)
        if got is None:
            failures.append(f"{name}: missing from fresh results")
            continue
        budget = baseline * args.tolerance + ABS_SLACK
        verdict = "ok" if got <= budget else "REGRESSED"
        print(f"  {name:<44} baseline {baseline:7.4f}  "
              f"fresh {got:7.4f}  budget {budget:7.4f}  {verdict}")
        if got > budget:
            failures.append(
                f"{name}: {got:.4f} > budget {budget:.4f} "
                f"(baseline {baseline:.4f})"
            )
    for name in sorted(set(fresh) - set(baselines)):
        print(f"  {name:<44} fresh {fresh[name]:7.4f}  (untracked)")

    if failures:
        print("\nregressions:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall tracked metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
