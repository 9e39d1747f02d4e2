"""Compare two sets of benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py A.json... -- B.json...

Each file is a ``result-seed<n>.json`` written by ``run.py`` (all
workloads).  One row per (workload, end-to-end metric): each side's
median and quartiles, the ratio B/A with A as its base, and a verdict
from the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the quartiles of a side lie further apart than the
  bound, so its runs cannot tell, unless every run of B reads better
  than every run of A;
* ``unchanged``  — otherwise.

Results for the same seed must also agree on ``result_digest`` and on
the share of failed operations.  Exit status 1 on a regression or a
disagreement.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

REPO = Path(__file__).resolve().parent.parent.parent


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    if worse_by > bound:
        return "regressed"
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    b_always_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not b_always_better:
        return "unresolved"
    return "unchanged"


def load(paths: Sequence[str]) -> list[dict]:
    results = [json.loads(Path(p).read_text()) for p in paths]
    for path, result in zip(paths, results):
        if not result["header"].get("comparable", True):
            raise SystemExit(f"{path}: a --quick result is not comparable")
    return results


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> int:
    status = 0
    print(f"{'workload':14s} {'metric':16s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s} {'B/A':>7s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = ([run["workloads"][workload]["end_to_end"][name]
                     for run in runs] for runs in (a_runs, b_runs))
            outcome = verdict(a, b, metric["better"], metric["bound"])
            status |= outcome == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:14s} {name:16s} "
                  f"{qa[0]:10.3f}{qa[1]:11.3f}{qa[2]:11.3f} "
                  f"{qb[0]:10.3f}{qb[1]:11.3f}{qb[2]:11.3f} "
                  f"{qb[1] / qa[1]:7.3f}  {outcome} "
                  f"(bound {metric['bound']:g}, base A)")
        # what was computed is compared seed by seed: inputs differ by seed
        by_seed = {run["header"]["seed"]: run["workloads"][workload]
                   for run in a_runs}
        for run in b_runs:
            seed = run["header"]["seed"]
            ours, theirs = run["workloads"][workload], by_seed.get(seed)
            if theirs is None:
                continue
            if ours["result_digest"] != theirs["result_digest"]:
                status = 1
                print(f"{workload:14s} seed {seed}: result_digest differs")
            shares = [w["failed"] / w["attempted"] for w in (theirs, ours)]
            if shares[0] != shares[1]:
                status = 1
                print(f"{workload:14s} seed {seed}: failed share "
                      f"{shares[0]:.4f} (A) != {shares[1]:.4f} (B)")
    return status


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        raise SystemExit(__doc__)
    cut = list(argv).index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1:]
    if not a_paths or not b_paths:
        raise SystemExit(__doc__)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return compare(load(a_paths), load(b_paths), spec)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
