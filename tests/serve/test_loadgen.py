"""The closed-loop load harness: seeded determinism and honest reports."""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.serve.gateway import GatewayConfig
from repro.serve.loadgen import (
    DEFAULT_LOAD_ADMISSION,
    HarnessConfig,
    LoadMix,
    LoadMixConfig,
    main,
    run_closed_loop,
)
from repro.serve.metrics import latency_summary, percentile
from repro.workloads import WorkloadConfig, build_site


@pytest.fixture(scope="module")
def site():
    return build_site(WorkloadConfig(num_users=40, num_items=80, seed=11))


@pytest.fixture()
def mix(site):
    return LoadMix.for_site(
        site.user_ids, site.categories,
        LoadMixConfig(num_tenants=8, num_query_shapes=10, seed=11),
    )


class TestLoadMix:
    def test_same_seed_same_stream(self, site):
        config = LoadMixConfig(num_tenants=6, num_query_shapes=8, seed=5)
        a = LoadMix.for_site(site.user_ids, site.categories, config)
        b = LoadMix.for_site(site.user_ids, site.categories, config)
        assert a.stream(50) == b.stream(50)

    def test_different_seed_different_stream(self, site):
        a = LoadMix.for_site(
            site.user_ids, site.categories, LoadMixConfig(seed=1)
        )
        b = LoadMix.for_site(
            site.user_ids, site.categories, LoadMixConfig(seed=2)
        )
        assert a.stream(50) != b.stream(50)

    def test_tenants_bind_distinct_site_users(self, site, mix):
        users = [user for _, user in mix.tenants]
        assert len(set(users)) == len(users)
        assert set(users) <= set(site.user_ids)

    def test_traffic_is_skewed_toward_rank_one(self, mix):
        stream = mix.stream(400)
        by_tenant: dict[str, int] = {}
        for tenant, _ in stream:
            by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        heaviest = max(by_tenant.values())
        # Zipf(1.2) over 8 tenants: rank 1 carries ~3x the uniform share
        assert heaviest > 400 / len(mix.tenants) * 2

    def test_requests_are_valid_and_capped(self, mix):
        for tenant, request in mix.stream(60):
            assert tenant.startswith("t")
            assert request.k == mix.config.k

    def test_recommendation_share_present(self, site):
        mix = LoadMix.for_site(
            site.user_ids, site.categories,
            LoadMixConfig(recommendation_share=0.5, seed=3),
        )
        stream = mix.stream(200)
        empties = sum(1 for _, r in stream if not r.text)
        assert 40 <= empties <= 160  # loose: it is a coin with p=0.5

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            LoadMix([], ["q"])
        with pytest.raises(ValueError):
            LoadMix([("t0", "u0")], [])


class TestClosedLoop:
    def test_report_is_complete_and_consistent(self, site, mix):
        session = Session.from_graph(site.graph)
        report = run_closed_loop(session, mix, HarnessConfig(
            concurrency=8, total_requests=32,
        ))
        assert report.requests == 32
        assert report.completed + report.failed + report.shed == 32
        assert report.completed > 0
        assert report.duration_s > 0
        assert report.throughput_rps > 0
        assert set(report.latency_ms) == {"p50", "p95", "p99", "mean", "max"}
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        assert report.shed_rate == 0.0
        assert report.peak_rss_mb > 0
        assert report.plan_cache["compiles"] >= 1

    def test_report_round_trips_as_json(self, site, mix):
        session = Session.from_graph(site.graph)
        report = run_closed_loop(session, mix, HarnessConfig(
            concurrency=4, total_requests=12,
        ))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["requests"] == 12
        assert "p95" in payload["latency_ms"]
        assert set(payload) == {
            "requests", "completed", "failed", "shed", "duration_s",
            "throughput_rps", "latency_ms", "shed_rate", "peak_rss_mb",
            "plan_cache",
        }
        text = report.render()
        assert "serve load report" in text and "p95" in text

    def test_default_admission_is_generous(self):
        assert DEFAULT_LOAD_ADMISSION.default.refill_per_s >= 256
        assert GatewayConfig().admission.max_depth > 0


class TestMetrics:
    def test_percentile_interpolates(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0.0) == 10.0
        assert percentile(samples, 100.0) == 40.0
        assert percentile(samples, 50.0) == pytest.approx(25.0)
        assert percentile([], 95.0) == 0.0

    def test_latency_summary_shape(self):
        summary = latency_summary([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max"] == 3.0
        assert summary["p50"] == 2.0

    def test_empty_summary_is_zeroed(self):
        summary = latency_summary([])
        assert set(summary.values()) == {0.0}


class TestCli:
    def test_quick_smoke_exits_zero(self, capsys):
        code = main(["--quick", "--requests", "16", "--concurrency", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serve load report" in out

    def test_json_output_parses(self, capsys):
        code = main([
            "--quick", "--requests", "12", "--concurrency", "4", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["requests"] == 12
        assert payload["completed"] > 0
