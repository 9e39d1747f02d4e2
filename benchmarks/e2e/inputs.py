"""Sizes, sites, request streams and set-up, shared by the four workloads.

A workload's site, its tenants and its hot query shapes are a fixed
dataset (``SITE_SEED``); the run's ``--seed`` draws the traffic on it:
which tenant asks what in which order, categories and pages, the arrival
schedule and the write targets.  Request kinds come in exact shares, not
as independent draws.  What a request costs depends on who asks (the
size of their neighbourhood) and on what is hot (how popular the items
it returns are), so drawing those from the seed made every seed a
different amount of work, and no regression bound held across seeds.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.api import SearchRequest, Session, SessionConfig
from repro.plan import shared_plan_cache
from repro.serve.loadgen import LoadMix, LoadMixConfig
from repro.workloads import GeneratedSite, WorkloadConfig, build_site

from benchmarks.e2e.harness import MIN_BEYOND, canonical_response, digest

OUT_DIR = Path(__file__).resolve().parent / "out"

SITE_SEED = 17
#: set-ups per run; ``setup_s`` is their median and the last one is kept
SETUP_REPEATS = 3
#: set-up ends with one untimed pass over the stream; the answers to its
#: first PROBE requests are the fixed set the correctness checks compare
PROBE = 32
#: the timed phase runs at least this many passes, so that every request
#: is timed often enough for ``harness.steady``, and goes on until it
#: holds the samples a p95 needs
MIN_PASSES = 3
MIN_SAMPLES = 200

Stream = list[tuple[str, SearchRequest]]


def sample_guard(quick: bool) -> int:
    """``min_beyond`` for ``harness.percentile``: --quick lifts the guard."""
    return 0 if quick else MIN_BEYOND


def passes_needed(pass_size: int, quick: bool) -> int:
    """How many passes the timed phase makes at least."""
    if quick:
        return 1
    return max(MIN_PASSES, -(-MIN_SAMPLES // pass_size))


@dataclass(frozen=True)
class Sizes:
    """What one workload runs on; ``--quick`` swaps in the small column."""

    users: int
    items: int
    #: requests in one pass over the stream
    pass_size: int


BROWSE = Sizes(users=200, items=400, pass_size=96)
CATALOG = Sizes(users=100, items=10_000, pass_size=48)
QUICK_BROWSE = Sizes(users=80, items=160, pass_size=40)
QUICK_CATALOG = Sizes(users=40, items=2_000, pass_size=40)

CATALOG_TENANTS = 12
CATALOG_STRATEGIES = ("friends", "similar_users", "item_based")
#: catalog_deep request kinds and their shares of a pass
CATALOG_KINDS = (("deep", 0.4), ("structural", 0.4), ("recommend", 0.2))


@dataclass
class Result:
    """What one workload run hands back to the runner."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: every check that failed, in words; empty means the run is correct
    problems: list[str] = field(default_factory=list)
    result_digest: str = ""
    #: pass sizes, pass counts and sample counts, for the result file
    counts: dict[str, float] = field(default_factory=dict)


def _zipf(n: int, exponent: float) -> list[float]:
    return [1.0 / rank ** exponent for rank in range(1, n + 1)]


def _dealt(weights: Sequence[float], n: int, rng: random.Random) -> list[int]:
    """*n* indices into *weights* in exact proportion to them (largest
    remainder), in an order drawn from *rng*.

    Independent draws would give every seed other counts of the heavy
    tenant and of the hot query, which is other work to time.
    """
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    dealt = [i for i, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(dealt)
    return dealt


def browse_stream(site: GeneratedSite, seed: int, n: int) -> Stream:
    """LoadMix's traffic shape: 24 tenants Zipf 1.2 x 30 query shapes
    Zipf 1.1, k=10, a tenth of the requests empty-text recommendations."""
    config = LoadMixConfig(seed=SITE_SEED)
    mix = LoadMix.for_site(site.user_ids, site.categories, config)
    rng = random.Random(seed)
    recommend = round(n * config.recommendation_share)
    tenants = _dealt(_zipf(len(mix.tenants), config.tenant_zipf), n, rng)
    texts = [""] * recommend + [
        mix.query_texts[i] for i in _dealt(
            _zipf(len(mix.query_texts), config.query_zipf), n - recommend, rng
        )
    ]
    rng.shuffle(texts)
    return [
        (mix.tenants[t][0],
         SearchRequest(user_id=mix.tenants[t][1], text=text, k=config.k))
        for t, text in zip(tenants, texts)
    ]


def catalog_stream(site: GeneratedSite, seed: int, n: int) -> Stream:
    """Deep pages (``text=<category>``, no k, page 1-4 of 10), keyword +
    structural scans (k=10) and recommendations in CATALOG_KINDS shares,
    each kind spread evenly over the three social strategies."""
    rng = random.Random(seed)
    fixed = random.Random(SITE_SEED)  # who the tenants are and what is hot
    users = fixed.sample(site.user_ids, CATALOG_TENANTS)
    categories = [str(c) for c in site.categories]
    fixed.shuffle(categories)
    category_weights = _zipf(len(categories), 1.1)
    shapes = []
    for kind, share in CATALOG_KINDS:
        shapes += [
            (kind, CATALOG_STRATEGIES[i % len(CATALOG_STRATEGIES)])
            for i in range(round(n * share))
        ]
    rng.shuffle(shapes)
    shapes = shapes[:n]
    tenants = _dealt(_zipf(len(users), 1.2), len(shapes), rng)
    scoped = _dealt(category_weights, len(shapes), rng)
    stream: Stream = []
    for (kind, strategy), rank, scope in zip(shapes, tenants, scoped):
        user, category = users[rank], categories[scope]
        if kind == "deep":
            request = SearchRequest(
                user_id=user, text=category, strategy=strategy,
                page_size=10, page=rng.randint(1, 4),
            )
        elif kind == "structural":
            request = SearchRequest(
                user_id=user, strategy=strategy, k=10,
                text=rng.choices(categories, category_weights)[0],
                structural={"type": "item", "category": category},
            )
        else:
            request = SearchRequest(
                user_id=user, text="", strategy=strategy, k=10
            )
        stream.append((f"t{rank:02d}", request))
    return stream


@dataclass
class Ready:
    """One finished set-up: a warm session and its request stream."""

    site: GeneratedSite
    session: Session
    stream: Stream
    #: canonical answers of the warm-up pass to the probe requests
    probe: list[dict[str, Any]]
    #: seconds per set-up stage, by per-layer metric name
    parts: dict[str, float]
    total_s: float
    #: write_mix only: where the snapshot and its ``wal/`` live
    site_dir: Path | None = None

    def close(self) -> None:
        wal = self.session.data_manager.wal
        if wal is not None:
            wal.close()
        self.session.close()
        if self.site_dir is not None:
            shutil.rmtree(self.site_dir, ignore_errors=True)


def set_up(
    sizes: Sizes,
    seed: int,
    config: SessionConfig | None,
    make_stream: Callable[[GeneratedSite, int, int], Stream],
    analyses: Sequence[str] = (),
    site_dir: Path | None = None,
) -> Ready:
    """Site build, session, analyses and one warm-up pass, each timed."""
    # each set-up starts from an empty plan cache, as a fresh process would
    shared_plan_cache().reset()
    t0 = perf_counter()
    site = build_site(WorkloadConfig(
        num_users=sizes.users, num_items=sizes.items, seed=SITE_SEED
    ))
    t1 = perf_counter()
    session = Session.from_graph(site.graph, config)
    if site_dir is not None:
        session.data_manager.enable_wal(
            site_dir / "wal", fsync_every_append=True
        )
    t2 = perf_counter()
    for name in analyses:
        session.analyze(name)
    t3 = perf_counter()
    stream = make_stream(site, seed, sizes.pass_size)
    warm = [session.run(request) for _, request in stream]
    t4 = perf_counter()
    return Ready(
        site=site,
        session=session,
        stream=stream,
        probe=[canonical_response(r) for r in warm[:PROBE]],
        parts={
            "workloads.build_site_s": t1 - t0,
            "management.load_graph_s": t2 - t1,
            "analysis.derive_s": t3 - t2,
            "api.warmup_s": t4 - t3,
        },
        total_s=t4 - t0,
        site_dir=site_dir,
    )


def repeated_set_up(make: Callable[[int], Ready], result: Result,
                    quick: bool) -> Ready:
    """Set up SETUP_REPEATS times (--quick: once); report medians, keep
    the last."""
    kept: Ready | None = None
    totals: list[float] = []
    parts: dict[str, list[float]] = {}
    for attempt in range(1 if quick else SETUP_REPEATS):
        if kept is not None:
            # drop the previous site before the next is built: whether the
            # collector had got to it yet moved peak RSS by a site (12 %)
            kept.close()
            kept = None
            gc.collect()
        kept = make(attempt)
        totals.append(kept.total_s)
        for name, seconds in kept.parts.items():
            parts.setdefault(name, []).append(seconds)
    assert kept is not None
    result.end_to_end["setup_s"] = statistics.median(totals)
    # the warm-up answers: the same for equal seeds however many passes
    # (and, on write_mix, writes) the timed phase then fits in
    result.result_digest = digest(kept.probe)
    for name, values in parts.items():
        result.per_layer[name] = statistics.median(values)
    return kept
