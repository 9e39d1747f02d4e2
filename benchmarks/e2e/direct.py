"""The three direct workloads: one thread, closed loop, warm ``Session.run``.

``browse_warm`` and ``catalog_deep`` only read; ``write_mix`` puts one
``DataManager.add_link`` before every WRITE_EVERY-th read and ends with a
checkpoint, a WAL-only tail and a restore.  A traced run executes every
request twice, once through ``Session.run`` and once stage by stage
through the layers' public functions, under spans.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Sequence

from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Link
from repro.discovery import assemble_msg, parse_query
from repro.management import DataManager
from repro.plan import INDEX, SCAN, shared_plan_cache
from repro.presentation import OrganizerConfig

from benchmarks.e2e.harness import (
    Tracer,
    canonical_response,
    first_difference,
    percentile,
    steady,
    steady_columns,
)
from benchmarks.e2e.inputs import (
    BROWSE,
    CATALOG,
    MIN_PASSES,
    OUT_DIR,
    PROBE,
    QUICK_BROWSE,
    QUICK_CATALOG,
    Ready,
    Result,
    browse_stream,
    catalog_stream,
    passes_needed,
    repeated_set_up,
    sample_guard,
    set_up,
)

CATALOG_ANALYSES = ("user_similarity", "item_similarity")
#: write_mix: one write before every WRITE_EVERY-th read
WRITE_EVERY = 8
#: writes that reach only the WAL, after the checkpoint
WAL_TAIL_WRITES = 8
RESTORES = 3

_ACCESS = {None: "auto", True: INDEX, False: SCAN}


class Writer:
    """write_mix's seeded ``act, visit`` writes through the Data Manager."""

    def __init__(self, ready: Ready, seed: int):
        self.manager = ready.session.data_manager
        self.users = ready.site.user_ids
        self.items = ready.site.item_ids
        self.rng = random.Random(seed)
        self.acknowledged: list[str] = []
        self.ack_s: list[float] = []

    def write(self) -> None:
        link_id = f"bench:{len(self.acknowledged)}"
        link = Link(link_id, self.rng.choice(self.users),
                    self.rng.choice(self.items), type="act, visit")
        t0 = perf_counter()
        self.manager.add_link(link)
        self.ack_s.append(perf_counter() - t0)
        self.acknowledged.append(link_id)


@dataclass
class Loop:
    """What the timed passes measured."""

    #: per pass, the Session.run latency of every read in stream order
    read_s: list[list[float]] = field(default_factory=list)
    #: per pass, the time its writes and Session.run reads took
    pass_walls: list[float] = field(default_factory=list)
    failed: int = 0
    #: SessionStats deltas summed over the passes
    stats: dict[str, int] = field(default_factory=dict)


def _timed_pass(ready: Ready, writer: Writer | None, loop: Loop,
                tracer: Tracer | None = None, name: str = "") -> None:
    """One walk over the stream on ``Session.run``.

    With a *tracer* every request is also executed stage by stage, right
    beside its ``Session.run`` twin and alternately before and after it,
    so that neither the machine's drift, nor the collector's pauses, nor
    the caches the first of the two warms favour either side.
    """
    session = ready.session
    before = {f.name: getattr(session.stats, f.name)
              for f in fields(session.stats)}
    latencies = []
    wall = 0.0
    for index, (_, request) in enumerate(ready.stream):
        rid = f"{name}:{index}"
        wrote = writer is not None and index % WRITE_EVERY == 0
        staged_first = tracer is not None and not wrote and index % 2 == 1
        if staged_first:
            staged_request(session, request, tracer, rid)
        start = perf_counter()
        if wrote:
            writer.write()
        t0 = perf_counter()
        try:
            session.run(request)
        except Exception as error:  # counted and reported, not fatal
            loop.failed += 1
            print(f"request {index} failed: {error!r}")
        t1 = perf_counter()
        latencies.append(t1 - t0)
        wall += t1 - start
        if tracer is None:
            continue
        if wrote:
            # the read that pays the refresh has no staged twin: the
            # refresh happens inside Session.run, at no public stage
            tracer.add("management.add_link", start, t0, None, rid)
            tracer.add("api.refresh", t0, t1, None, rid)
        elif not staged_first:
            staged_request(session, request, tracer, rid)
    loop.pass_walls.append(wall)
    loop.read_s.append(latencies)
    for counter, value in before.items():
        loop.stats[counter] = (
            loop.stats.get(counter, 0) + getattr(session.stats, counter) - value
        )


def staged_request(
    session: Session, request: SearchRequest, tracer: Tracer, rid: str
) -> Any:
    """One request, stage by stage through the layers' public functions.

    The same calls ``Session.run`` makes, each under its own span; returns
    a response-shaped value so the caller can hold it against
    ``Session.run``'s.
    """
    with tracer.span("api.run", rid) as root:
        with tracer.span("discovery.parse", rid, root):
            query = parse_query(
                request.user_id, request.text, request.structural
            )
        with tracer.span("discovery.rank", rid, root) as rank:
            ranking = session.discoverer.rank(
                query, strategy=request.strategy, alpha=request.alpha,
                access=_ACCESS[request.use_index], limit=request.k,
            )
        # the documented window: k caps the ranking, page_size (else k,
        # else max_results) is the window, page picks which one
        items = ranking.items
        if request.k is not None:
            items = items[: request.k]
        explicit = request.k is not None or request.page_size is not None
        size = (request.page_size or request.k
                or session.config.discovery.max_results)
        offset = (request.page - 1) * size
        window = items[offset: offset + size]
        with tracer.span("discovery.assemble_msg", rid, root):
            msg = assemble_msg(
                session.graph, query, window, ranking.social,
                ranking.used_expert_fallback,
            )
        with tracer.span("presentation.organize", rid, root):
            page = session.organizer.organize(
                msg, dimension=request.grouping,
                flat_k=size if explicit else None,
            )
    # operator profiles are read after the request's span closed; only
    # the operators' summed busy time is known, so the child span is laid
    # at the start of discovery.rank (and ends with it at the latest:
    # pooled operators are busy side by side)
    if ranking.execution is not None:
        busy = sum(s for _, s in ranking.execution.op_actuals.values())
        begin = tracer.spans[rank].start
        tracer.add("plan.execute", begin,
                   min(begin + busy, tracer.spans[rank].end), rank, rid)
        tracer.count("plan.execute_s", busy)
    tracer.count("plan.rows_ranked", ranking.total)
    tracer.count("results", len(window))
    return SimpleNamespace(
        page=page,
        items=tuple(s.item_id for s in window),
        page_info=SimpleNamespace(
            page=offset // size + 1, page_size=size, offset=offset,
            returned=len(window), total_items=len(items),
            has_next=offset + len(window) < len(items),
        ),
    )


def timed_passes(ready: Ready, writer: Writer | None, seconds: float,
                 at_least: int, tracer: Tracer | None = None,
                 name: str = "") -> Loop:
    """Whole passes until *seconds* have gone by, and *at_least* of them."""
    loop = Loop()
    start = perf_counter()
    while (perf_counter() - start < seconds
           or len(loop.pass_walls) < at_least):
        _timed_pass(ready, writer, loop, tracer, name)
    return loop


def run_direct(
    name: str,
    ready: Ready,
    result: Result,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    writes: bool = False,
) -> Writer | None:
    """The timed phase of a direct workload.

    A traced run splits it: plain passes give every metric the untraced
    run gives, passes with staged twins give the stage times.  A twin
    finds the plan its sibling compiled, so counters and latencies of the
    program alone cannot come from those passes.
    """
    writer = Writer(ready, seed) if writes else None
    wal_dir = ready.site_dir / "wal" if ready.site_dir is not None else None
    wal_before = _dir_bytes(wal_dir)
    min_beyond = sample_guard(quick)
    loop = timed_passes(ready, writer, seconds / 2 if trace else seconds,
                        passes_needed(len(ready.stream), quick))

    # every pass replays the same stream: a request's latency is the
    # steady value of its repeats, and so is the wall time of a pass
    reads = len(ready.stream)
    timed = reads * len(loop.read_s)
    read_ms = [s * 1e3 for s in steady_columns(loop.read_s)]
    result.attempted = timed + (
        len(writer.acknowledged) if writer is not None else 0
    )
    result.failed = loop.failed
    result.end_to_end["request_ms_p50"] = percentile(
        read_ms, 50, min_beyond, behind=timed
    )
    result.end_to_end["request_ms_p95"] = percentile(
        read_ms, 95, min_beyond, behind=timed
    )
    result.end_to_end["requests_per_s"] = reads / steady(loop.pass_walls)
    result.counts.update(
        pass_size=reads, passes=len(loop.pass_walls), timed_reads=timed,
        timed_wall_s=sum(loop.pass_walls),
    )

    queries = max(1, loop.stats.get("queries", 0))
    layer = result.per_layer
    for metric, counter in (
        ("plan.cache_hit_share", "plan_cache_hits"),
        ("plan.pooled_share", "parallel_queries"),
        ("plan.process_share", "process_queries"),
        ("plan.index_share", "index_queries"),
    ):
        layer[metric] = loop.stats.get(counter, 0) / queries
    if writer is not None:
        after = [ms for i, ms in enumerate(read_ms) if i % WRITE_EVERY == 0]
        rest = [ms for i, ms in enumerate(read_ms) if i % WRITE_EVERY]
        layer["api.read_after_write_ms_p50"] = statistics.median(after)
        layer["api.refresh_ms"] = (
            statistics.median(after) - statistics.median(rest)
        )
        layer["management.write_ack_ms_p50"] = (
            statistics.median(writer.ack_s) * 1e3
        )
        layer["management.wal_bytes_per_write"] = (
            (_dir_bytes(wal_dir) - wal_before) / len(writer.acknowledged)
        )
    if trace:
        tracer = Tracer()
        paired = timed_passes(ready, writer, seconds / 2,
                              1 if quick else MIN_PASSES, tracer, name)
        result.failed += paired.failed
        _trace_metrics(tracer, paired, layer, skip_after_write=writes)
        tracer.write(OUT_DIR / f"trace-{name}.jsonl")
        _check_staged(name, ready, result)
    return writer


def _trace_metrics(tracer: Tracer, loop: Loop, layer: dict[str, float],
                   skip_after_write: bool) -> None:
    """Stage times per request: steady over the passes, like the
    ``Session.run`` latencies they are held against, then averaged over
    the staged requests so that they add up."""
    passes = len(loop.pass_walls)

    def mean_ms(span: str) -> float:
        durations = tracer.durations(span)
        width = len(durations) // passes
        return statistics.fmean(steady_columns(
            [durations[p * width: (p + 1) * width] for p in range(passes)]
        )) * 1e3

    stages = {
        "discovery.parse_ms": "discovery.parse",
        "discovery.rank_ms": "discovery.rank",
        "discovery.assemble_msg_ms": "discovery.assemble_msg",
        "presentation.organize_ms": "presentation.organize",
    }
    for metric, span in stages.items():
        layer[metric] = mean_ms(span)
    counts = tracer.counts
    layer["plan.execute_ms"] = (
        counts.get("plan.execute_s", 0.0) / len(tracer.durations("api.run"))
    ) * 1e3
    layer["plan.rows_ranked_per_result"] = (
        counts["plan.rows_ranked"] / max(1.0, counts["results"])
    )
    stage_sum = sum(layer[m] for m in stages)
    layer["presentation.share"] = layer["presentation.organize_ms"] / stage_sum
    # on write_mix the read after a write has no staged twin
    run_ms = statistics.fmean(
        s for i, s in enumerate(steady_columns(loop.read_s))
        if not (skip_after_write and i % WRITE_EVERY == 0)
    ) * 1e3
    layer["api.stage_sum_over_run"] = stage_sum / run_ms
    layer["trace.overhead_share"] = (mean_ms("api.run") - run_ms) / run_ms


def _check_staged(name: str, ready: Ready, result: Result) -> None:
    """The staged page must equal Session.run's, or the trace measured
    other work than the end-to-end run."""
    scratch = Tracer()
    probe = [request for _, request in ready.stream[:PROBE]]
    compare_probe(
        f"{name}: staged vs Session.run",
        [canonical_response(ready.session.run(r)) for r in probe],
        [canonical_response(staged_request(ready.session, r, scratch, "check"))
         for r in probe],
        result,
    )


def _dir_bytes(directory: Path | None) -> int:
    if directory is None or not directory.exists():
        return 0
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def compare_probe(what: str, expected: list[dict[str, Any]],
                  answers: list[dict[str, Any]], result: Result) -> None:
    for index, (want, got) in enumerate(zip(expected, answers)):
        found = first_difference(want, got)
        if found:
            result.problems.append(f"{what}: probe {index} differs at {found}")
            return


def browse_warm(seed: int, seconds: float, trace: bool,
                quick: bool) -> Result:
    result = Result()
    sizes = QUICK_BROWSE if quick else BROWSE
    ready = repeated_set_up(
        lambda _: set_up(sizes, seed, None, browse_stream), result, quick
    )
    try:
        run_direct("browse_warm", ready, result, seed, seconds, trace, quick)
    finally:
        ready.close()
    return result


def _catalog_config(shards: int, parallelism: str) -> SessionConfig:
    return SessionConfig(
        shards=shards, parallelism=parallelism,
        organizer=OrganizerConfig(explanation_kind="content"),
    )


def catalog_deep(seed: int, seconds: float, trace: bool,
                 quick: bool) -> Result:
    result = Result()
    sizes = QUICK_CATALOG if quick else CATALOG
    ready = repeated_set_up(
        lambda _: set_up(sizes, seed, _catalog_config(2, "auto"),
                         catalog_stream, analyses=CATALOG_ANALYSES),
        result, quick,
    )
    try:
        run_direct("catalog_deep", ready, result, seed, seconds, trace, quick)
        # the sharded, auto-parallel session must answer like its
        # single-shard sequential twin
        twin = Session.from_graph(ready.site.graph,
                                  _catalog_config(1, "never"))
        try:
            for name in CATALOG_ANALYSES:
                twin.analyze(name)
            answers = [canonical_response(twin.run(request))
                       for _, request in ready.stream[:PROBE]]
        finally:
            twin.close()
        compare_probe("catalog_deep vs shards=1 twin", ready.probe, answers,
                      result)
    finally:
        ready.close()
    return result


def write_mix(seed: int, seconds: float, trace: bool,
              quick: bool) -> Result:
    result = Result()
    sizes = QUICK_BROWSE if quick else BROWSE
    ready = repeated_set_up(
        lambda attempt: set_up(
            sizes, seed, None, browse_stream,
            site_dir=OUT_DIR / f"site-{seed}-{attempt}",
        ),
        result, quick,
    )
    try:
        writer = run_direct("write_mix", ready, result, seed, seconds, trace,
                            quick, writes=True)
        assert writer is not None
        _crash_and_restore(ready, writer, result)
    finally:
        ready.close()
    return result


def _crash_and_restore(ready: Ready, writer: Writer, result: Result) -> None:
    """Checkpoint, write a WAL-only tail, stop, and restore RESTORES times."""
    session, site_dir, layer = ready.session, ready.site_dir, result.per_layer
    assert site_dir is not None
    probe = [request for _, request in ready.stream[:PROBE]]
    t0 = perf_counter()
    session.save(site_dir)
    layer["management.checkpoint_s"] = perf_counter() - t0
    layer["management.snapshot_bytes"] = float(
        _dir_bytes(site_dir) - _dir_bytes(site_dir / "wal")
    )
    for _ in range(WAL_TAIL_WRITES):
        writer.write()
    before = [canonical_response(session.run(r)) for r in probe]
    session.data_manager.wal.close()

    t0 = perf_counter()
    manager, _ = DataManager.recover(site_dir)
    layer["management.recover_s"] = perf_counter() - t0
    manager.wal.close()

    restores: list[float] = []
    for attempt in range(RESTORES):
        shared_plan_cache().reset()
        t0 = perf_counter()
        restored = Session.restore(site_dir)
        restores.append(perf_counter() - t0)
        try:
            if attempt == 0:
                _check_restored(restored, probe, before, writer, result)
        finally:
            restored.data_manager.wal.close()
            restored.close()
    layer["management.restore_s"] = statistics.median(restores)


def _check_restored(restored: Session, probe: list[SearchRequest],
                    before: list[dict[str, Any]], writer: Writer,
                    result: Result) -> None:
    """Nothing acknowledged is lost and the probe set reads as before."""
    t0 = perf_counter()
    first = restored.run(probe[0])
    result.per_layer["api.first_request_after_restore_ms"] = (
        perf_counter() - t0
    ) * 1e3
    missing = [link for link in writer.acknowledged
               if not restored.graph.has_link(link)]
    if missing:
        result.problems.append(
            f"write_mix: {len(missing)} acknowledged links lost across "
            f"restore, first {missing[0]}"
        )
    after = [canonical_response(first)] + [
        canonical_response(restored.run(r)) for r in probe[1:]
    ]
    compare_probe("write_mix after restore", before, after, result)
