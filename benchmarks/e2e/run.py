"""The whole-request benchmark: one SearchRequest in, one rendered page out.

One workload, as the benchmark driver calls it (the last line printed is
the result as one JSON object)::

    python3 benchmarks/e2e/run.py --workload browse_warm --seed 17 \\
        --seconds 20 --trace 0

Every workload, each in a fresh process, with one combined result file::

    python3 benchmarks/e2e/run.py [--seed 17] [--trace] [--quick]

README.md beside this file says what the workloads and metrics are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
# run as a script, so neither the repository root (for this package) nor
# src/ (for the program under test) is on the path yet
for entry in (REPO / "src", REPO):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e.harness import TooFewSamples  # noqa: E402


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(args: argparse.Namespace) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        # quick numbers come from other sizes and unguarded percentiles
        "comparable": not args.quick,
    }


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the driver's result line."""
    from repro.serve.metrics import peak_rss_mb

    from benchmarks.e2e.direct import browse_warm, catalog_deep, write_mix
    from benchmarks.e2e.gateway import gateway_mix
    from benchmarks.e2e.inputs import OUT_DIR

    workloads = {f.__name__: f for f in
                 (browse_warm, catalog_deep, gateway_mix, write_mix)}
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    trace = bool(args.trace)
    try:
        result = workloads[args.workload](
            args.seed, args.seconds, trace, args.quick
        )
    except TooFewSamples as error:
        print(f"{args.workload}: {error}", file=sys.stderr)
        return 1
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()

    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = result.per_layer if trace else result.end_to_end
    # a per-layer metric of a layer this workload does not drive reads 0
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    correct = not result.problems
    detail = {
        "header": header(args),
        "workload": args.workload,
        "trace": trace,
        "correct": correct,
        "problems": result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "result_digest": result.result_digest,
        "counts": result.counts,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail_path = OUT_DIR / f"run-{args.workload}-trace{int(trace)}.json"
    detail_path.write_text(json.dumps(detail, indent=1))

    print(f"== {args.workload}  seed {args.seed}  trace {int(trace)}"
          f"{'  QUICK: not comparable' if args.quick else ''}")
    for name, value in sorted({**result.end_to_end, **result.per_layer}.items()):
        print(f"  {name:42s} {value:14.4f} {units.get(name, '')}")
    for name, value in sorted(result.counts.items()):
        print(f"  ({name} {value:g})")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    print(f"  result_digest {result.result_digest}")
    for problem in result.problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_suite(args: argparse.Namespace) -> int:
    """Every workload in its own process: own peak RSS, own plan cache."""
    from benchmarks.e2e.inputs import OUT_DIR

    spec = load_spec()
    combined: dict = {"header": header(args), "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry: dict = {}
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, cwd=REPO)
            status = status or done.returncode
            detail_path = OUT_DIR / f"run-{workload}-trace{trace}.json"
            if done.returncode != 0 and not detail_path.exists():
                continue
            detail = json.loads(detail_path.read_text())
            entry.setdefault("correct", True)
            entry["correct"] = entry["correct"] and detail["correct"]
            if trace:
                entry["per_layer"] = detail["per_layer"]
            else:
                for key in ("end_to_end", "attempted", "failed",
                            "result_digest", "counts"):
                    entry[key] = detail[key]
        combined["workloads"][workload] = entry
    path = Path(args.out) if args.out else (
        OUT_DIR / f"result-seed{args.seed}.json"
    )
    path.write_text(json.dumps(combined, indent=1))
    print(f"wrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this workload here; default: all, each in "
                             "a fresh process")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also (suite) or instead (one workload) make "
                             "the traced run that gives per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: small sites, one short pass; the "
                             "numbers are not comparable")
    parser.add_argument("--out", default=None,
                        help="where the all-workloads result goes (default: "
                             "out/result-seed<seed>.json beside this file)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if args.workload is None:
        return run_suite(args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    return run_one(args)


# ProcessShardPool spawns workers that import __main__ again
if __name__ == "__main__":
    raise SystemExit(main())
