"""Experiment S1 — the serving gateway under power-law load.

The serving question, quantified: with many concurrent tenants replaying
the paper's skewed traffic shape (hot queries × heavy tenants), what
latency and throughput does the admission-controlled gateway deliver?
(The comparison against a warm ``Session.run`` loop is
``benchmarks/e2e``'s ``serve.gateway_over_warm_loop``.)

Measured on one closed-loop run (``repro.serve.loadgen``):

* end-to-end latency distribution (p50/p95/p99) through the gateway;
* throughput, shed rate and peak RSS.

Results merge into ``BENCH_plan.json`` under ``"serve"`` (this file runs
after ``bench_plan_compile``, which rewrites the artifact from scratch);
``check_bench_regression.py`` gates p95/p99, peak RSS and the deadline
overhead against committed baselines.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

from repro.api import Session
from repro.serve.gateway import GatewayConfig
from repro.serve.loadgen import (
    DEFAULT_LOAD_ADMISSION,
    HarnessConfig,
    LoadMix,
    LoadMixConfig,
    run_closed_loop,
)
from repro.workloads import WorkloadConfig, build_site

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_plan.json"

RESULTS: dict = {}

SEED = 17

#: order-alternated (no deadline, deadline) pairs the overhead is the
#: median ratio of
DEADLINE_PAIRS = 5


@pytest.fixture(scope="module")
def serve_site(quick):
    users, items = (80, 160) if quick else (400, 800)
    return build_site(WorkloadConfig(num_users=users, num_items=items,
                                     seed=SEED))


@pytest.fixture(scope="module")
def mix(serve_site):
    return LoadMix.for_site(
        serve_site.user_ids, serve_site.categories, LoadMixConfig(seed=SEED)
    )


def test_gateway_under_zipf_load(serve_site, mix, report, quick):
    """The headline run: closed loop at full concurrency."""
    concurrency = 16 if quick else 32
    total = 96 if quick else 384

    session = Session.from_graph(serve_site.graph)
    harness = HarnessConfig(concurrency=concurrency, total_requests=total)
    gateway_report = run_closed_loop(session, mix, harness)

    RESULTS["serve"] = {
        "concurrency": concurrency,
        "requests": total,
        "latency_ms": dict(gateway_report.latency_ms),
        "throughput_rps": gateway_report.throughput_rps,
        "shed_rate": gateway_report.shed_rate,
        "peak_rss_mb": gateway_report.peak_rss_mb,
        "plan_cache": dict(gateway_report.plan_cache),
    }
    latency = gateway_report.latency_ms
    report(
        "",
        f"=== Serving gateway under Zipf load "
        f"({concurrency} clients, {total} requests) ===",
        f"  latency ms:        p50 {latency['p50']:8.2f}   "
        f"p95 {latency['p95']:8.2f}   p99 {latency['p99']:8.2f}",
        f"  gateway:           {gateway_report.throughput_rps:8.1f} req/s"
        f"   shed {gateway_report.shed_rate:.1%}"
        f"   peak RSS {gateway_report.peak_rss_mb:.1f} MiB",
    )

    # every request must be accounted for, in every regime
    assert (
        gateway_report.completed
        + gateway_report.failed
        + gateway_report.shed
        == total
    )
    assert gateway_report.failed == 0


def test_deadline_overhead(serve_site, report, quick):
    """What do deadlines cost when nothing expires?

    Pairs of closed-loop runs over the *same* seeded request stream on
    the same warm session: one with deadlines disabled, one with a
    generous 30s default deadline every request carries end to end
    (timer armed, absolute deadline threaded into the plan executor's
    cooperative checks — the full machinery, zero expiries).  The two
    runs of a pair go in alternating order, and the median of the pairs'
    duration ratios is the no-fault deadline tax; the design target is
    <3%, and the regression gate (``serve.deadline_overhead``) holds the
    ratio near 1.0 against the committed baseline.
    """
    concurrency = 16 if quick else 32
    total = 96 if quick else 256

    session = Session.from_graph(serve_site.graph)

    def run_once(deadline_s):
        # a fresh same-seed mix per run: the sampler is stateful, and
        # both runs must replay the identical (tenant, request) stream
        mix = LoadMix.for_site(
            serve_site.user_ids, serve_site.categories,
            LoadMixConfig(seed=SEED),
        )
        gateway = GatewayConfig(
            admission=DEFAULT_LOAD_ADMISSION,
            default_deadline_s=deadline_s,
        )
        harness = HarnessConfig(
            concurrency=concurrency, total_requests=total, gateway=gateway
        )
        return run_closed_loop(session, mix, harness)

    run_once(None)  # warm the plan cache so neither timed run compiles
    # the run timed second in a pair reads faster or slower by the box's
    # drift alone: alternate which goes first, and keep the median ratio
    ratios = []
    for pair in range(DEADLINE_PAIRS):
        order = (None, 30.0) if pair % 2 == 0 else (30.0, None)
        timed = {deadline_s: run_once(deadline_s) for deadline_s in order}
        base, deadlined = timed[None], timed[30.0]
        ratios.append(
            deadlined.duration_s / base.duration_s
            if base.duration_s > 0 else 1.0
        )
        # a generous deadline must never shed
        assert deadlined.completed == total
        assert deadlined.shed == 0
    overhead = statistics.median(ratios)

    RESULTS.setdefault("serve", {})["deadline_overhead"] = overhead
    report(
        "",
        f"=== Deadline overhead (no expiries, {total} requests, "
        f"{DEADLINE_PAIRS} alternated pairs) ===",
        "  pair ratios:       "
        + "  ".join(f"{ratio:.3f}" for ratio in ratios),
        f"  median ratio:      {overhead:8.3f}x",
    )

    # the machinery must stay cheap — the tight <3% claim lives in the
    # baseline gate, this bound only catches gross regressions above
    # run-to-run noise
    assert overhead < 1.25


def test_emit_bench_json(report, quick):
    """Merge the serve section into BENCH_plan.json (runs last here).

    ``bench_plan_compile`` rewrites the artifact wholesale; this bench
    runs after it in the CI invocation and merges, so it also works
    standalone (fresh file with only the serve section).
    """
    merged: dict = {}
    if OUTPUT.exists():
        merged = json.loads(OUTPUT.read_text())
    merged.update(RESULTS)
    merged["quick"] = bool(quick)
    OUTPUT.write_text(json.dumps(merged, indent=2) + "\n")
    report("", f"BENCH_plan.json serve section written: {OUTPUT}")
    assert "serve" in merged
    assert merged["serve"]["latency_ms"]["p95"] > 0
