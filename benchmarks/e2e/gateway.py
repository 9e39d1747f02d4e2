"""gateway_mix: browse_warm's site and requests through ``ServeGateway``.

The run is a sequence of identical rounds.  A round is one closed-loop
pass with CLIENTS coroutines, each with one request in flight (capacity),
followed by one pass with a single client (the latency of a request that
meets no queue: batching window, hand-off to a worker thread, execution).
Load comes from one thread, the asyncio loop that also runs the gateway;
the gateway's worker threads are its default.

A traced run adds what is too unsteady on a shared two-core machine to
carry a bound: an open-loop pass (seeded Poisson arrivals at OPEN_RATE,
each request timed from the moment it was *due*), a ladder of rising
open-loop rates up to the first that fails, and a direct warm loop over
the same requests to hold the gateway against.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Sequence

from repro.api import SearchRequest
from repro.serve import DeadlineExceeded, GatewayConfig, Overloaded, ServeGateway
from repro.serve.loadgen import DEFAULT_LOAD_ADMISSION

from benchmarks.e2e.direct import compare_probe, timed_passes
from benchmarks.e2e.harness import (
    Tracer,
    canonical_response,
    percentile,
    poisson_arrivals,
    steady,
    steady_columns,
)
from benchmarks.e2e.inputs import (
    BROWSE,
    MIN_PASSES,
    OUT_DIR,
    PROBE,
    QUICK_BROWSE,
    Ready,
    Result,
    Stream,
    browse_stream,
    passes_needed,
    repeated_set_up,
    sample_guard,
    set_up,
)

CLIENTS = 32
#: open-loop arrivals per second, about 0.4 of what closed loop sustains
OPEN_RATE = 18.0
#: arrivals of the open-loop pass
OPEN_ARRIVALS = 216
LADDER_RATES = (32, 64, 128)
LADDER_STEP_S = 3.0
#: a ladder step passes when 99 % of the requests sent complete OK within
#: this of their due time and the backlog does not grow
LADDER_LIMIT_MS = 1000.0
LADDER_OK_SHARE = 0.99
LADDER_DEPTH_SLACK = 8
DEADLINE_S = 5.0
#: past this the generator, not the program, was the bottleneck
GEN_LATE_LIMIT_MS = 50.0


@dataclass
class Sent:
    """One submission of an open-loop pass."""

    due: float
    sent: float
    done: float = 0.0
    #: "ok", "shed", "deadline" or "failure"
    outcome: str = ""

    @property
    def from_due_ms(self) -> float:
        return (self.done - self.due) * 1e3


def _outcome(outcome: Any) -> str:
    if isinstance(outcome, Overloaded):
        return "shed"
    if isinstance(outcome, DeadlineExceeded):
        return "deadline"
    return "ok" if outcome.ok else "failure"


async def _closed_pass(gateway: ServeGateway, stream: Stream,
                       clients: int) -> tuple[float, list[float], int]:
    """*clients* coroutines drain the stream, each one request in flight.

    Returns the wall time, every request's latency in stream order, and
    how many were not served.
    """
    position = failed = 0
    latencies = [0.0] * len(stream)

    async def client() -> None:
        nonlocal position, failed
        while position < len(stream):
            index = position
            position += 1
            tenant, request = stream[index]
            t0 = perf_counter()
            outcome = await gateway.submit(tenant, request)
            latencies[index] = perf_counter() - t0
            if _outcome(outcome) != "ok":
                failed += 1

    start = perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    return perf_counter() - start, latencies, failed


async def _open_pass(
    gateway: ServeGateway, stream: Stream, schedule: Sequence[float],
    tracer: Tracer | None = None, label: str = "open",
) -> tuple[list[Sent], int, int]:
    """Submit on *schedule* whatever came back before.

    Returns the submissions with the in-flight depth at mid-schedule and
    at its end.
    """
    records: list[Sent] = []
    tasks: list[asyncio.Task[None]] = []
    in_flight = depth_mid = 0

    async def one(record: Sent, tenant: str, request: SearchRequest) -> None:
        nonlocal in_flight
        in_flight += 1
        try:
            record.outcome = _outcome(await gateway.submit(tenant, request))
        finally:
            in_flight -= 1
            record.done = perf_counter()

    start = perf_counter()
    for index, offset in enumerate(schedule):
        due = start + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record = Sent(due=due, sent=perf_counter())
        records.append(record)
        tenant, request = stream[index % len(stream)]
        tasks.append(asyncio.create_task(one(record, tenant, request)))
        if index == len(schedule) // 2:
            depth_mid = in_flight
    await asyncio.sleep(0)  # let the last task start before reading depth
    depth_end = in_flight
    await asyncio.gather(*tasks)
    if tracer is not None:
        for index, record in enumerate(records):
            rid = f"gateway_mix:{label}:{index}"
            root = tracer.add("serve.request", record.due, record.done,
                              None, rid)
            tracer.add("serve.submit", record.sent, record.done, root, rid)
    return records, depth_mid, depth_end


async def _ladder(gateway: ServeGateway, stream: Stream, seed: int,
                  tracer: Tracer, layer: dict[str, float],
                  step_s: float) -> None:
    """Open-loop steps of rising rate until the first one fails."""
    layer["serve.max_rate_ok_rps"] = OPEN_RATE
    for rate in LADDER_RATES:
        sent = int(rate * step_s)
        schedule = poisson_arrivals(rate, sent, seed * 1000 + rate)
        records, depth_mid, depth_end = await _open_pass(
            gateway, stream, schedule, tracer, label=f"r{rate}"
        )
        ok_ms = [r.from_due_ms for r in records if r.outcome == "ok"]
        in_limit = sum(1 for ms in ok_ms if ms <= LADDER_LIMIT_MS)
        prefix = f"serve.r{rate}"
        layer[f"{prefix}.in_limit_share"] = in_limit / sent
        for outcome in ("shed", "deadline"):
            layer[f"{prefix}.{outcome}_share"] = (
                sum(1 for r in records if r.outcome == outcome) / sent
            )
        layer[f"{prefix}.ok_ms_p50"] = statistics.median(ok_ms) if ok_ms else 0.0
        if (in_limit / sent >= LADDER_OK_SHARE
                and depth_end <= depth_mid + LADDER_DEPTH_SLACK):
            layer["serve.max_rate_ok_rps"] = float(rate)
            continue
        layer["serve.overload_goodput_rps"] = in_limit / schedule[-1]
        return


async def _phases(ready: Ready, result: Result, seed: int, seconds: float,
                  trace: bool, quick: bool) -> None:
    stream, layer = ready.stream, result.per_layer
    config = GatewayConfig(admission=DEFAULT_LOAD_ADMISSION,
                           default_deadline_s=DEADLINE_S)
    closed_walls: list[float] = []
    single_s: list[list[float]] = []
    failed = 0
    min_beyond = sample_guard(quick)
    rounds_needed = passes_needed(len(stream), quick)
    async with ServeGateway(ready.session, config) as gateway:
        # untimed: the probe set through the gateway must equal the
        # direct Session.run answers of the warm-up pass
        outcomes = await asyncio.gather(*(
            gateway.submit(tenant, request)
            for tenant, request in stream[:PROBE]
        ))
        bad = [o for o in outcomes if _outcome(o) != "ok"]
        if bad:
            result.problems.append(
                f"gateway_mix: {len(bad)} probe requests not served: {bad[0]!r}"
            )
        else:
            compare_probe(
                "gateway_mix vs Session.run", ready.probe,
                [canonical_response(o) for o in outcomes], result,
            )

        start = perf_counter()
        while (perf_counter() - start < seconds
               or len(closed_walls) < rounds_needed):
            wall, _, lost = await _closed_pass(gateway, stream, CLIENTS)
            closed_walls.append(wall)
            _, latencies, lost_single = await _closed_pass(gateway, stream, 1)
            single_s.append(latencies)
            failed += lost + lost_single
        timed_wall = perf_counter() - start
        if trace:
            await _traced_phases(gateway, stream, seed, quick, result)
        stats = gateway.stats()

    # rounds are identical, so a request's latency and the closed pass's
    # wall time are the steady values of their repeats
    rounds = len(closed_walls)
    single_ms = [s * 1e3 for s in steady_columns(single_s)]
    result.attempted = 2 * len(stream) * rounds
    result.failed = failed
    result.end_to_end["request_ms_p50"] = percentile(
        single_ms, 50, min_beyond, behind=len(stream) * rounds
    )
    result.end_to_end["request_ms_p95"] = percentile(
        single_ms, 95, min_beyond, behind=len(stream) * rounds
    )
    result.end_to_end["requests_per_s"] = len(stream) / steady(closed_walls)
    result.counts.update(
        pass_size=len(stream), rounds=rounds, clients=CLIENTS,
        timed_wall_s=timed_wall,
    )
    hot = stats.hot_keys(1)
    layer["serve.mean_batch_size"] = stats.mean_batch_size
    layer["serve.hot_key_mean_batch_size"] = (
        hot[0].mean_batch_size if hot else 0.0
    )
    layer["serve.hedged_batches"] = float(stats.hedged_batches)


async def _traced_phases(gateway: ServeGateway, stream: Stream, seed: int,
                         quick: bool, result: Result) -> None:
    tracer, layer = Tracer(), result.per_layer
    min_beyond = sample_guard(quick)
    arrivals = len(stream) if quick else OPEN_ARRIVALS
    records, _, _ = await _open_pass(
        gateway, stream, poisson_arrivals(OPEN_RATE, arrivals, seed), tracer
    )
    open_ms = [r.from_due_ms for r in records if r.outcome == "ok"]
    layer["serve.open_ms_p50"] = percentile(open_ms, 50, min_beyond)
    layer["serve.open_ms_p95"] = percentile(open_ms, 95, min_beyond)
    layer["serve.open_failed_share"] = 1.0 - len(open_ms) / len(records)
    late = percentile(
        [(r.sent - r.due) * 1e3 for r in records], 95, min_beyond
    )
    layer["serve.gen_late_ms_p95"] = late
    if late > GEN_LATE_LIMIT_MS:
        result.problems.append(
            f"gateway_mix: the generator ran {late:.1f} ms late at p95 "
            f"(limit {GEN_LATE_LIMIT_MS:g} ms): it, not the program, was "
            f"the bottleneck"
        )
    await _ladder(gateway, stream, seed, tracer, layer,
                  1.0 if quick else LADDER_STEP_S)
    tracer.write(OUT_DIR / "trace-gateway_mix.jsonl")


def _warm_loop_baseline(ready: Ready, result: Result) -> None:
    """Direct passes in the same process: what the gateway is held to."""
    loop = timed_passes(ready, None, 0.0, MIN_PASSES)
    direct_rps = len(ready.stream) / steady(loop.pass_walls)
    layer = result.per_layer
    layer["serve.gateway_over_warm_loop"] = (
        result.end_to_end["requests_per_s"] / direct_rps
    )
    layer["serve.overhead_ms_p50"] = (
        result.end_to_end["request_ms_p50"]
        - statistics.median(steady_columns(loop.read_s)) * 1e3
    )


def gateway_mix(seed: int, seconds: float, trace: bool,
                quick: bool) -> Result:
    result = Result()
    sizes = QUICK_BROWSE if quick else BROWSE
    ready = repeated_set_up(
        lambda _: set_up(sizes, seed, None, browse_stream), result, quick
    )
    try:
        asyncio.run(_phases(ready, result, seed, seconds, trace, quick))
        if trace:
            _warm_loop_baseline(ready, result)
    finally:
        ready.close()
    return result
