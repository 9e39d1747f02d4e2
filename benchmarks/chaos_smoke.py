#!/usr/bin/env python
"""Chaos smoke: Zipf load while a seeded fault schedule breaks things.

The deadline-and-typed-outcome acceptance run, end to end.  A
closed-loop Zipf drive
(:mod:`repro.serve.loadgen`'s mix) runs against a live gateway while a
deterministic :class:`~repro.testing.faults.FaultSchedule` — keyed on
the submitted-request index, so a seeded run arms the same faults at
the same requests every time — injects, mid-run:

* **slow scans** (``physical.scan`` sleeps) — latency, not error;
* **failing scans** (``physical.scan`` raises) — an
  in-process execution has no rung below it, so each injected failure
  surfaces as one typed ``RequestFailure`` and poisons nothing else;
* **hung executor slots** (``serve.batch`` sleeps 3 s, three times,
  under a 2 s deadline) — the deadline timer answers each wedged
  request with a typed ``DeadlineExceeded``;
* **a corrupted checkpoint** (``persist.snapshot`` bit-flip) — the
  read-side CRC refuses it loudly.

Every base-graph scan runs columnar (the population floor is zeroed, so
the quick site's 240 nodes qualify too), the scan phases' requests take
the scan path (``use_index=False``), and those phases run cache-cold —
before each of their submissions the planner drops its sub-plan memo
and columnar view — so the phases' requests really scan.

What must hold (assertion, not vibes):

1. **No wedge** — the whole drive completes inside a hard wall-clock
   budget; every future resolves.
2. **Typed outcomes only** — every submission resolves to
   SearchResponse | RequestFailure | Overloaded | DeadlineExceeded.
3. **The deadline answers hung slots** — the gateway counts at least
   one deadline expiry per wedged slot (three).
4. **Ranking parity on survivors** — every SearchResponse matches the
   pre-chaos sequential reference to 1e-9, faults or no faults.
5. **Clean recovery** — after the schedule finishes, a clean wave
   serves 100%.
6. **The scan faults fired** — the scan point fired in both the slow
   and the failing phase; a phase it never reached tested nothing.

``python benchmarks/chaos_smoke.py --quick`` is the CI chaos-smoke
entry point (exit 0/1).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.api import SearchRequest, SearchResponse, Session
from repro.core.faults import FaultHandler
from repro.errors import PersistenceError
from repro.management.persist import snapshot_graph
from repro.serve import (
    AdmissionPolicy,
    DeadlineExceeded,
    GatewayConfig,
    Overloaded,
    ServeGateway,
    TenantPolicy,
)
from repro.serve.loadgen import LoadMix, LoadMixConfig
from repro.testing import (
    FaultPhase,
    FaultSchedule,
    arm,
    disarm,
    disarm_all,
    file_corruptor,
    raising,
    sleeping,
)
from repro.workloads import WorkloadConfig, build_site

TOL = 1e-9
#: worker slots the schedule wedges past the deadline
HUNG_SLOTS = 3


def counted(handler: FaultHandler, fired: dict[str, int],
            phase: str) -> FaultHandler:
    """*handler*, counting its calls under *phase* in *fired* (worker
    threads fire it concurrently)."""
    lock = threading.Lock()

    def count(name: str, **info: object) -> None:
        with lock:
            fired[phase] += 1
        handler(name, **info)

    return count


def build_schedule(total: int, fired: dict[str, int]) -> FaultSchedule:
    """The fault timeline, proportional to the drive length.

    The scan phases count into *fired* how often the scan point fired.
    """

    def at(fraction: float) -> int:
        return int(total * fraction)

    return FaultSchedule([
        # slow scans: latency injection, answers must not change
        FaultPhase(start=at(0.20), stop=at(0.35), handlers={
            "physical.scan": counted(sleeping(0.002), fired, "slow"),
        }),
        # failing scans: typed RequestFailures, nothing wedged
        FaultPhase(start=at(0.40), stop=at(0.55), handlers={
            "physical.scan": counted(raising(
                lambda: RuntimeError("chaos: scan blew up"), times=4
            ), fired, "failing"),
        }),
        # hung executor slots: the deadline answers, never a stuck future
        FaultPhase(start=at(0.60), stop=at(0.75), handlers={
            "serve.batch": sleeping(3.0, times=HUNG_SLOTS),
        }),
    ])


def reference_responses(
    session: Session, stream: Sequence[tuple[str, SearchRequest]]
) -> dict[SearchRequest, SearchResponse]:
    """Pre-chaos sequential ground truth, one run per distinct request."""
    reference: dict[SearchRequest, SearchResponse] = {}
    for _, request in stream:
        if request not in reference:
            reference[request] = session.run(request)
    return reference


def ranking_matches(got: SearchResponse, want: SearchResponse) -> bool:
    got_flat = got.page.flat
    want_flat = want.page.flat
    if [e.item_id for e in got_flat] != [e.item_id for e in want_flat]:
        return False
    return all(
        abs(a.score - b.score) <= TOL
        for a, b in zip(got_flat, want_flat)
    )


async def drive_chaos(
    gateway: ServeGateway,
    stream: Sequence[tuple[str, SearchRequest]],
    schedule: FaultSchedule,
    concurrency: int,
    at_index: Callable[[int], None] = lambda index: None,
) -> list[tuple[SearchRequest, object]]:
    """Closed-loop drive; the schedule is polled per submitted index, and
    *at_index* called after it."""
    outcomes: list[tuple[SearchRequest, object]] = []
    position = 0

    async def client() -> None:
        nonlocal position
        while position < len(stream):
            index = position
            position += 1
            schedule.poll(index)
            at_index(index)
            tenant, request = stream[index]
            outcome = await gateway.submit(tenant, request)
            outcomes.append((request, outcome))

    await asyncio.gather(*(client() for _ in range(max(1, concurrency))))
    return outcomes


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos smoke for the resilient serving stack"
    )
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny site, short drive")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    if args.quick:
        site_config = WorkloadConfig(num_users=80, num_items=160,
                                     seed=args.seed)
        total, clean_total, concurrency = 120, 32, 16
        budget_s = 120.0
    else:
        site_config = WorkloadConfig(num_users=400, num_items=800,
                                     seed=args.seed)
        total, clean_total, concurrency = 384, 64, 32
        budget_s = 300.0

    site = build_site(site_config)
    session = Session.from_graph(site.graph)
    # every base scan columnar, so the scan fault point is on the path
    session.planner.cost_model = dataclasses.replace(
        session.planner.cost_model, columnar_scan_min_nodes=0.0
    )
    mix = LoadMix.for_site(
        site.user_ids, site.categories, LoadMixConfig(seed=args.seed)
    )
    fired = {"slow": 0, "failing": 0}
    schedule = build_schedule(total, fired)
    scan_phases = [
        phase for phase in schedule.phases
        if "physical.scan" in phase.handlers
    ]

    def in_scan_phase(index: int) -> bool:
        return any(phase.start <= index < phase.stop
                   for phase in scan_phases)

    # the scan phases' requests take the scan path: the index path reads
    # no columnar view
    stream = [
        (tenant, request.replace(use_index=False) if in_scan_phase(index)
         else request)
        for index, (tenant, request) in enumerate(mix.stream(total))
    ]
    clean_stream = mix.stream(clean_total)
    reference = reference_responses(session, stream + clean_stream)

    config = GatewayConfig(
        default_deadline_s=2.0,
        drain_timeout_s=5.0,
        admission=AdmissionPolicy(
            default=TenantPolicy(capacity=64.0, refill_per_s=512.0),
            max_depth=512,
        ),
    )

    def cold_scan_phase(index: int) -> None:
        # and they run cache-cold: the references warmed every memo
        # entry, and a memo hit runs no scan; a stale generation's
        # successor starts with an empty memo
        if in_scan_phase(index):
            session.invalidate()

    failures: list[str] = []

    async def run(chaos_dir: Path) -> tuple[list, list, object, dict | None]:
        async with ServeGateway(session, config) as gateway:
            chaos_outcomes = await drive_chaos(
                gateway, stream, schedule, concurrency, cold_scan_phase
            )
            schedule.finish()
            # a corrupted checkpoint must be refused at read time, typed
            corrupt_error: dict | None = None
            arm({"persist.snapshot": file_corruptor(times=1)})
            try:
                await gateway.checkpoint(chaos_dir)
            finally:
                disarm("persist.snapshot")
            try:
                snapshot_graph(chaos_dir)
            except PersistenceError as error:
                corrupt_error = {"refused": str(error)}
            # recovery wave: everything disarmed, serving must be whole
            clean_outcomes = await drive_chaos(
                gateway, clean_stream, FaultSchedule([]), concurrency
            )
            stats = gateway.stats()
        return chaos_outcomes, clean_outcomes, stats, corrupt_error

    start = time.perf_counter()
    scratch = Path(tempfile.mkdtemp(prefix="chaos_smoke_"))
    try:
        chaos_outcomes, clean_outcomes, stats, corrupt_error = asyncio.run(
            asyncio.wait_for(
                run(scratch / "corrupt_snapshot"), timeout=budget_s
            )
        )
    except asyncio.TimeoutError:
        print(f"chaos-smoke: WEDGED — drive exceeded {budget_s:.0f}s budget")
        return 1
    finally:
        disarm_all()
        session.close()
        shutil.rmtree(scratch, ignore_errors=True)
    duration = time.perf_counter() - start

    # 1. no wedge: gather returned, and every future resolved
    if len(chaos_outcomes) != total:
        failures.append(
            f"{total - len(chaos_outcomes)} chaos submissions never resolved"
        )

    # 2. typed outcomes only + 4. ranking parity on survivors
    counts = {"completed": 0, "failed": 0, "shed": 0, "deadline": 0}
    parity_violations = 0
    for request, outcome in chaos_outcomes + clean_outcomes:
        if isinstance(outcome, SearchResponse):
            counts["completed"] += 1
            if not ranking_matches(outcome, reference[request]):
                parity_violations += 1
        elif isinstance(outcome, Overloaded):
            counts["shed"] += 1
        elif isinstance(outcome, DeadlineExceeded):
            counts["deadline"] += 1
        elif getattr(outcome, "ok", True) is False:  # RequestFailure
            counts["failed"] += 1
        else:
            failures.append(f"untyped outcome: {outcome!r}")
    if parity_violations:
        failures.append(
            f"{parity_violations} responses diverged from the sequential "
            f"reference (> {TOL} on scores)"
        )

    # 3. every wedged slot answered by its deadline, typed
    if stats.deadline_expired < HUNG_SLOTS:
        failures.append(
            f"{stats.deadline_expired} deadline expiries for {HUNG_SLOTS} "
            "hung slots"
        )

    # 5. clean recovery: the clean wave serves 100%
    clean_bad = [
        outcome for _, outcome in clean_outcomes
        if not isinstance(outcome, SearchResponse)
    ]
    if clean_bad:
        failures.append(
            f"recovery wave: {len(clean_bad)}/{clean_total} requests did "
            f"not complete after faults cleared (first: {clean_bad[0]!r})"
        )
    if corrupt_error is None:
        failures.append(
            "corrupted checkpoint was NOT refused at read time"
        )

    # 6. the scan phases reached a scan
    for phase, count in fired.items():
        if count == 0:
            failures.append(f"the scan point never fired in the {phase} "
                            "phase")

    print("=== chaos smoke ===")
    print(f"  drive:      {total} chaos + {clean_total} clean requests, "
          f"{concurrency} clients, {duration:.1f}s")
    print(f"  outcomes:   completed {counts['completed']}  "
          f"failed {counts['failed']}  shed {counts['shed']}  "
          f"deadline {counts['deadline']}")
    print(f"  deadline:   {stats.deadline_expired} expiries (gateway-side; "
          f">= {HUNG_SLOTS} for the hung slots)")
    print(f"  scan point: fired {fired['slow']}x slow, "
          f"{fired['failing']}x failing")
    if corrupt_error is not None:
        print("  checkpoint: corrupted snapshot refused (CRC verify)")
    if failures:
        print("chaos-smoke: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("chaos-smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
