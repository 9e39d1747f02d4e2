"""Closed-loop load harness: Zipf/power-law traffic against the gateway.

The measured traffic of real social content sites is heavy-tailed twice
over (PAPERS.md): *what* is asked follows a power law — a small set of
hot queries dominates (Lerman's social-browsing observation) — and *who*
asks follows one too — a few heavy users generate most activity (the
Digg voting study).  This harness replays exactly that regime:

* a **query mix**: ``num_query_shapes`` keyword shapes drawn from the
  workload site's category vocabulary, sampled Zipf(``query_zipf``);
* a **tenant mix**: ``num_tenants`` logical tenants bound to site users,
  sampled Zipf(``tenant_zipf``) — rank 1 is the heavy tenant;
* a **closed loop**: ``concurrency`` clients each keep exactly one
  request in flight (submit → await → next), so offered load tracks what
  the gateway can serve and the queue depth is bounded by the client
  count.

Everything is drawn from one ``random.Random(seed)`` so a run's request
*stream* is exactly reproducible; wall-clock interleaving of course is
not, which is why the report carries distributions (p50/p95/p99), not
single numbers.

``python -m repro.serve.loadgen --quick`` is the CI smoke entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api import SearchRequest, Session
from repro.core import Id
from repro.serve.admission import (
    AdmissionPolicy,
    DeadlineExceeded,
    Overloaded,
    TenantPolicy,
)
from repro.serve.gateway import GatewayConfig, GatewayStats, ServeGateway
from repro.serve.metrics import latency_summary, peak_rss_mb


@dataclass(frozen=True)
class LoadMixConfig:
    """Shape of the synthetic traffic (see module docstring)."""

    num_tenants: int = 24
    #: power-law exponent of tenant activity (Digg-style skew)
    tenant_zipf: float = 1.2
    num_query_shapes: int = 30
    #: power-law exponent of query popularity (hot-query skew)
    query_zipf: float = 1.1
    #: share of pure-social recommendation requests (empty text)
    recommendation_share: float = 0.1
    #: result budget every generated request carries
    k: int = 10
    seed: int = 17


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


class LoadMix:
    """A seeded sampler of (tenant, request) pairs over one site."""

    def __init__(
        self,
        tenants: Sequence[tuple[str, Id]],
        query_texts: Sequence[str],
        config: LoadMixConfig | None = None,
    ):
        if not tenants:
            raise ValueError("a load mix needs at least one tenant")
        if not query_texts:
            raise ValueError("a load mix needs at least one query shape")
        self.config = config if config is not None else LoadMixConfig()
        self.tenants = list(tenants)
        self.query_texts = list(query_texts)
        self._rng = random.Random(self.config.seed)
        self._tenant_weights = _zipf_weights(
            len(self.tenants), self.config.tenant_zipf
        )
        self._query_weights = _zipf_weights(
            len(self.query_texts), self.config.query_zipf
        )

    @classmethod
    def for_site(
        cls,
        user_ids: Sequence[Id],
        categories: Sequence[str],
        config: LoadMixConfig | None = None,
    ) -> "LoadMix":
        """Build the mix from a generated site's users and vocabulary.

        Query shapes are category singletons and pairs — the keyword
        vocabulary items actually carry — so every shape has non-trivial
        matches; tenants bind to distinct site users (heavy tenants
        first).
        """
        config = config if config is not None else LoadMixConfig()
        rng = random.Random(config.seed)
        vocabulary = [str(c) for c in categories]
        if not vocabulary:
            raise ValueError("site has no category vocabulary")
        shapes: list[str] = []
        seen: set[str] = set()
        while len(shapes) < config.num_query_shapes:
            if rng.random() < 0.5 or len(vocabulary) < 2:
                text = rng.choice(vocabulary)
            else:
                a, b = rng.sample(vocabulary, 2)
                text = f"{a} {b}"
            if text in seen:
                # vocabulary is finite: the pool may saturate early
                if len(seen) >= len(vocabulary) * (len(vocabulary) + 1):
                    break
                continue
            seen.add(text)
            shapes.append(text)
        n_tenants = min(config.num_tenants, len(user_ids))
        users = rng.sample(list(user_ids), n_tenants)
        tenants = [(f"t{i:02d}", user) for i, user in enumerate(users)]
        return cls(tenants, shapes, config)

    def sample(self) -> tuple[str, SearchRequest]:
        """Draw one (tenant, request) pair from the mix."""
        rng = self._rng
        tenant, user_id = rng.choices(
            self.tenants, weights=self._tenant_weights, k=1
        )[0]
        if rng.random() < self.config.recommendation_share:
            text = ""
        else:
            text = rng.choices(
                self.query_texts, weights=self._query_weights, k=1
            )[0]
        return tenant, SearchRequest(
            user_id=user_id, text=text, k=self.config.k
        )

    def stream(self, n: int) -> list[tuple[str, SearchRequest]]:
        """The next *n* samples as a concrete (replayable) list."""
        return [self.sample() for _ in range(n)]


#: A generous default admission policy for load runs: budgets shape the
#: skew instead of shedding most of it; the overload tests construct
#: tight policies explicitly.
DEFAULT_LOAD_ADMISSION = AdmissionPolicy(
    default=TenantPolicy(capacity=64.0, refill_per_s=512.0),
    max_depth=512,
)


@dataclass(frozen=True)
class HarnessConfig:
    """Closed-loop drive shape: concurrency, volume, gateway tunables."""

    concurrency: int = 32
    total_requests: int = 384
    gateway: GatewayConfig = field(
        default_factory=lambda: GatewayConfig(admission=DEFAULT_LOAD_ADMISSION)
    )


@dataclass(frozen=True)
class LoadReport:
    """Everything one closed-loop run measured."""

    requests: int
    completed: int
    failed: int
    shed: int
    duration_s: float
    throughput_rps: float
    latency_ms: dict[str, float]
    shed_rate: float
    peak_rss_mb: float
    plan_cache: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "shed_rate": self.shed_rate,
            "peak_rss_mb": self.peak_rss_mb,
            "plan_cache": dict(self.plan_cache),
        }

    def render(self) -> str:
        lines = [
            "=== serve load report ===",
            f"  requests:    {self.requests} "
            f"(completed {self.completed}, failed {self.failed}, "
            f"shed {self.shed})",
            f"  duration:    {self.duration_s * 1e3:8.1f} ms   "
            f"throughput {self.throughput_rps:8.1f} req/s",
            f"  latency ms:  p50 {self.latency_ms['p50']:7.2f}   "
            f"p95 {self.latency_ms['p95']:7.2f}   "
            f"p99 {self.latency_ms['p99']:7.2f}",
            f"  shed rate:   {self.shed_rate:6.1%}",
            f"  peak RSS:    {self.peak_rss_mb:8.1f} MiB",
            f"  plan cache:  hits {self.plan_cache.get('hits')}, "
            f"compiles {self.plan_cache.get('compiles')}",
        ]
        return "\n".join(lines)


async def drive(
    gateway: ServeGateway,
    stream: Sequence[tuple[str, SearchRequest]],
    concurrency: int,
) -> tuple[list[float], int, int, int, float]:
    """Drive a started gateway closed-loop over *stream*.

    Returns (per-request latencies ms for completed requests, completed,
    failed, shed, duration seconds).  Exposed separately from
    :func:`run_closed_loop` so tests and benches can drive a gateway they
    configured themselves.
    """
    latencies: list[float] = []
    completed = 0
    failed = 0
    shed = 0
    position = 0

    async def client() -> None:
        nonlocal position, completed, failed, shed
        while position < len(stream):
            index = position
            position += 1
            tenant, request = stream[index]
            t0 = time.perf_counter()
            outcome = await gateway.submit(tenant, request)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            if isinstance(outcome, (Overloaded, DeadlineExceeded)):
                # both are typed sheds: the gateway turned the request
                # away (budget/depth) or its deadline ran out — neither
                # is a serving *failure*
                shed += 1
            elif outcome.ok:
                completed += 1
                latencies.append(elapsed_ms)
            else:
                failed += 1

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(max(1, concurrency))))
    duration = time.perf_counter() - start
    return latencies, completed, failed, shed, duration


def run_closed_loop(
    session: Session,
    mix: LoadMix,
    config: HarnessConfig | None = None,
) -> LoadReport:
    """One complete closed-loop run: drive, measure, report."""
    config = config if config is not None else HarnessConfig()
    stream = mix.stream(config.total_requests)

    async def _run() -> tuple[
        list[float], int, int, int, float, GatewayStats, dict[str, Any]
    ]:
        gateway = ServeGateway(session, config.gateway)
        async with gateway:
            results = await drive(gateway, stream, config.concurrency)
            stats = gateway.stats()
            cache = gateway.plan_cache_stats()
        return (*results, stats, cache)

    latencies, completed, failed, shed, duration, stats, cache = (
        asyncio.run(_run())
    )
    return LoadReport(
        requests=len(stream),
        completed=completed,
        failed=failed,
        shed=shed,
        duration_s=duration,
        throughput_rps=completed / duration if duration > 0 else 0.0,
        latency_ms=latency_summary(latencies),
        shed_rate=stats.admission.shed_rate,
        peak_rss_mb=peak_rss_mb(),
        plan_cache=dict(cache),
    )


# ---------------------------------------------------------------------------
# CLI: the CI serve-smoke entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load harness for the serving gateway"
    )
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny site, few requests")
    parser.add_argument("--requests", type=int, default=None,
                        help="total requests to drive (overrides mode)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="concurrent in-flight clients")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    args = parser.parse_args(argv)

    from repro.workloads import WorkloadConfig, build_site

    if args.quick:
        site_config = WorkloadConfig(
            num_users=80, num_items=160, seed=args.seed
        )
        total = args.requests if args.requests is not None else 96
        concurrency = (
            args.concurrency if args.concurrency is not None else 16
        )
    else:
        site_config = WorkloadConfig(
            num_users=400, num_items=800, seed=args.seed
        )
        total = args.requests if args.requests is not None else 384
        concurrency = (
            args.concurrency if args.concurrency is not None else 32
        )
    site = build_site(site_config)
    session = Session.from_graph(site.graph)
    mix = LoadMix.for_site(
        site.user_ids, site.categories, LoadMixConfig(seed=args.seed)
    )
    gateway_config = GatewayConfig(admission=DEFAULT_LOAD_ADMISSION)
    config = HarnessConfig(
        concurrency=concurrency, total_requests=total, gateway=gateway_config
    )
    report = run_closed_loop(session, mix, config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    # smoke invariant: the drive actually served (not everything shed)
    if report.completed == 0:
        print("serve-smoke: no request completed")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "LoadMixConfig",
    "LoadMix",
    "HarnessConfig",
    "LoadReport",
    "DEFAULT_LOAD_ADMISSION",
    "drive",
    "run_closed_loop",
    "main",
]
