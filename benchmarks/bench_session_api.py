"""Experiment S1 — the session API: warm vs. cold serving, index vs. scan.

Two questions the api_redesign answers quantitatively:

1. what does a warm :class:`~repro.api.Session` save over tearing the
   facade down per query (the old `SocialScope(...)` -per-call pattern)?
2. what does index-backed candidate generation save over the full-scan
   semantic stage, at identical results?

A third number guards the write path: a read right after one vote over
the warm read of the same request.  It is machine independent, lands in
``BENCH_plan.json`` under ``"refresh"`` and is gated by
``check_bench_regression.py``: a vote advances the session by its delta
(ratio ≈ 3), and a change that routes it back through the full resync
(ratio ≈ 14) fails the gate.

Tables print via the ``report`` fixture, timings via pytest-benchmark.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import pytest

from repro.api import SearchRequest, Session
from repro.core import Link
from repro.socialscope import SocialScope
from repro.workloads import ALEXIA, JOHN, SELMA

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_plan.json"

QUERY_MIX = [
    SearchRequest(user_id=JOHN, text="Denver attractions"),
    SearchRequest(user_id=SELMA, text="Barcelona family trip with babies"),
    SearchRequest(user_id=ALEXIA, text="history"),
    SearchRequest(user_id=JOHN, text="museum"),
    SearchRequest(user_id=JOHN),  # recommendation
]


@pytest.fixture(scope="module")
def session(travel_site):
    return Session.from_graph(travel_site.graph)


def _run_mix_cold(travel_site):
    """The pre-session pattern: a fresh stack for every query."""
    for request in QUERY_MIX:
        scope = SocialScope.from_graph(travel_site.graph)
        scope.search(request.user_id, request.text)


def _run_mix_warm(session):
    for request in QUERY_MIX:
        session.run(request)


def test_cold_facade_vs_warm_session(travel_site, session, report, benchmark,
                                     quick):
    _run_mix_warm(session)  # prime the lazy state out of the timing

    start = time.perf_counter()
    _run_mix_cold(travel_site)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    _run_mix_warm(session)
    warm = time.perf_counter() - start

    benchmark(_run_mix_warm, session)
    speedup = cold / warm if warm > 0 else float("inf")
    report(
        "",
        "=== Session API: cold facade vs warm session "
        f"({len(QUERY_MIX)}-query mix) ===",
        f"  cold (new stack per query):  {cold * 1e3:8.1f} ms",
        f"  warm (one session):          {warm * 1e3:8.1f} ms",
        f"  speedup:                     {speedup:8.1f}x   "
        f"(tf-idf builds: {session.stats.tfidf_builds}, "
        f"index builds: {session.stats.index_builds})",
    )
    if not quick:
        assert warm < cold


def test_index_vs_scan_discovery(session, report, benchmark, quick):
    keyword_queries = [r for r in QUERY_MIX if r.text]
    indexed = [session.run(r) for r in keyword_queries]
    scanned = [session.run(r.replace(use_index=False))
               for r in keyword_queries]
    # identical top-k item sets: the parity guarantee
    assert [r.items for r in indexed] == [r.items for r in scanned]

    def run_indexed():
        for request in keyword_queries:
            session.run(request)

    def run_scanned():
        for request in keyword_queries:
            session.run(request.replace(use_index=False))

    start = time.perf_counter()
    run_scanned()
    scan_time = time.perf_counter() - start
    start = time.perf_counter()
    run_indexed()
    index_time = time.perf_counter() - start

    # Isolate the candidate stage itself (the part the index replaces):
    # the query's one-node σN plan forced onto the scan path.  The
    # explicit env bypasses the planner's sub-plan result memo.
    from repro.core import input_graph
    from repro.discovery import parse_query

    queries = [parse_query(r.user_id, r.text) for r in keyword_queries]
    scorer = session.discoverer.semantic.scorer
    scans = [
        input_graph("G").select_nodes(query.scope_condition(), scorer)
        for query in queries
    ]
    env = {"G": session.graph}
    index = session.semantic_index
    rounds = 20
    start = time.perf_counter()
    for _ in range(rounds):
        for expr in scans:
            session.planner.execute(expr, env=env, access="scan")
    stage_scan = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            index.candidates(query.keywords)
    stage_index = time.perf_counter() - start

    benchmark(run_indexed)
    index_report = index.report()
    report(
        "",
        "=== Candidate generation: semantic index vs full scan ===",
        f"  end-to-end scan  ({len(keyword_queries)} queries): "
        f"{scan_time * 1e3:8.1f} ms",
        f"  end-to-end index ({len(keyword_queries)} queries): "
        f"{index_time * 1e3:8.1f} ms",
        f"  candidate stage only, scan:  {stage_scan / rounds * 1e3:8.2f} ms"
        f"  ({rounds} rounds)",
        f"  candidate stage only, index: {stage_index / rounds * 1e3:8.2f} ms"
        f"  (speedup {stage_scan / stage_index:5.1f}x)",
        f"  index size: {index_report.lists} lists, "
        f"{index_report.entries} entries (~{index_report.bytes} B)",
        "  (identical result pages on both paths — asserted)",
    )
    if not quick:
        assert stage_index < stage_scan


@pytest.mark.parametrize("page_size", [5, 10])
def test_pagination_latency(session, benchmark, page_size):
    """Later pages re-rank but reuse all warm per-session state."""

    def walk_pages():
        list(session.query(ALEXIA).text("history")
             .page_size(page_size).pages(max_pages=3))

    benchmark(walk_pages)


def test_read_after_write_over_warm(travel_site, report, quick):
    """One ``add_link(act, visit)``, then the same request twice: the
    first run pays the refresh, the second is the warm read."""
    session = Session.from_graph(travel_site.graph)  # written to: its own
    users = sorted(n.id for n in travel_site.graph.nodes_of_type("user"))
    items = sorted(n.id for n in travel_site.graph.nodes_of_type("item"))
    rng = random.Random(17)
    _run_mix_warm(session)
    after, warm = [], []
    for vote in range((4 if quick else 40) * len(QUERY_MIX)):
        request = QUERY_MIX[vote % len(QUERY_MIX)]
        session.data_manager.add_link(Link(
            f"bench:vote:{vote}", rng.choice(users), rng.choice(items),
            type="act, visit",
        ))
        t0 = time.perf_counter()
        session.run(request)
        t1 = time.perf_counter()
        session.run(request)
        t2 = time.perf_counter()
        after.append(t1 - t0)
        warm.append(t2 - t1)
    after_ms = statistics.median(after) * 1e3
    warm_ms = statistics.median(warm) * 1e3
    ratio = after_ms / warm_ms
    stats = session.stats
    report(
        "",
        "=== Write path: read after one vote vs warm read "
        f"({len(after)} votes over the {len(QUERY_MIX)}-query mix) ===",
        f"  read after write (median):   {after_ms:8.2f} ms",
        f"  warm read (median):          {warm_ms:8.2f} ms",
        f"  ratio:                       {ratio:8.2f}x   "
        f"(refreshes: {stats.refreshes}, of which patched: "
        f"{stats.delta_refreshes}; plan compiles: {stats.plan_compiles})",
    )
    merged = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    merged["quick"] = bool(quick)
    merged["refresh"] = {
        "read_after_write_over_warm": ratio,
        "read_after_write_ms": after_ms,
        "warm_read_ms": warm_ms,
    }
    OUTPUT.write_text(json.dumps(merged, indent=2) + "\n")
    if not quick:
        assert stats.delta_refreshes == stats.refreshes == len(after)
