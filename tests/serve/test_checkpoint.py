"""Gateway drain-then-snapshot, and the depth-shed retry-storm fix."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import SearchRequest, SearchResponse, Session
from repro.core import Link, Node
from repro.management import DataManager
from repro.serve import (
    GLOBAL_DEPTH,
    AdmissionController,
    AdmissionPolicy,
    GatewayConfig,
    Overloaded,
    ServeGateway,
    TenantPolicy,
)
from tests.factories import social_site_graph


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def durable_session(tmp_path):
    dm = DataManager()
    dm.load_graph(social_site_graph(num_users=8, num_items=10))
    dm.enable_wal(tmp_path / "wal")
    return Session(dm)


OPEN = AdmissionPolicy(default=TenantPolicy(capacity=1e9, refill_per_s=1e9))


def _request(**kw):
    defaults = dict(user_id="u0", text="topic1 thing", page_size=4)
    defaults.update(kw)
    return SearchRequest(**defaults)


# --------------------------------------------------- depth-shed retry hints


class TestDepthRetryHints:
    def _depth_saturated(self, clock, max_depth=1, depth_retry_s=0.05):
        ctl = AdmissionController(
            AdmissionPolicy(
                default=TenantPolicy(capacity=1e9, refill_per_s=1e9),
                max_depth=max_depth,
                depth_retry_s=depth_retry_s,
            ),
            clock=clock,
        )
        ctl.admit("pinned")  # holds the only depth slot
        return ctl

    def test_depth_shed_retry_is_positive(self):
        # the bug: retry_after_s=0.0 told every victim "retry NOW"
        ctl = self._depth_saturated(FakeClock())
        shed = ctl.admit("t0")
        assert isinstance(shed, Overloaded)
        assert shed.reason == GLOBAL_DEPTH
        assert shed.retry_after_s > 0.0

    def test_depth_shed_retry_is_bounded(self):
        ctl = self._depth_saturated(FakeClock(), depth_retry_s=0.05)
        for tenant in (f"t{i}" for i in range(50)):
            shed = ctl.admit(tenant)
            assert 0.05 <= shed.retry_after_s < 0.10

    def test_shed_storm_spreads_retries(self):
        # 200 victims shed at the same instant under a fake clock must
        # not be told to come back at the same time — the retry times
        # must spread, or the wave re-forms against the full queue
        clock = FakeClock()
        ctl = self._depth_saturated(clock, depth_retry_s=0.05)
        hints = [ctl.admit(f"t{i % 20}").retry_after_s for i in range(200)]
        assert all(h > 0.0 for h in hints)
        assert len(set(hints)) > 100  # spread, not one synchronized wave

    def test_same_tenant_consecutive_sheds_differ(self):
        clock = FakeClock()
        ctl = self._depth_saturated(clock)
        first = ctl.admit("t0").retry_after_s
        second = ctl.admit("t0").retry_after_s
        assert first != second

    def test_hints_deterministic_for_replay(self):
        # no RNG: the same shed history produces the same hints, so load
        # tests and simulations replay exactly
        a = [self._depth_saturated(FakeClock()).admit(f"t{i}").retry_after_s
             for i in range(5)]
        b = [self._depth_saturated(FakeClock()).admit(f"t{i}").retry_after_s
             for i in range(5)]
        assert a == b

    def test_budget_shed_hint_unchanged(self):
        clock = FakeClock()
        ctl = AdmissionController(
            AdmissionPolicy(default=TenantPolicy(capacity=1, refill_per_s=2)),
            clock=clock,
        )
        ctl.admit("t0")
        shed = ctl.admit("t0")
        assert shed.retry_after_s == pytest.approx(0.5)  # refill math


# -------------------------------------------------------- gateway checkpoint


class TestGatewayCheckpoint:
    def test_checkpoint_requires_running_gateway(self, tmp_path):
        gateway = ServeGateway(durable_session(tmp_path))
        with pytest.raises(Exception, match="not running"):
            asyncio.run(gateway.checkpoint(tmp_path))

    def test_checkpoint_then_recover_serves_identically(self, tmp_path):
        session = durable_session(tmp_path)
        requests = [
            _request(user_id=f"u{i % 4}", strategy=s)
            for i in range(8)
            for s in ("friends", "similar_users", "item_based")
        ]

        async def serve_and_checkpoint():
            async with ServeGateway(
                session, GatewayConfig(admission=OPEN)
            ) as gateway:
                live = await asyncio.gather(*[
                    gateway.submit("tenant", r) for r in requests
                ])
                manifest = await gateway.checkpoint(tmp_path)
                return live, manifest

        live, manifest = asyncio.run(serve_and_checkpoint())
        assert all(isinstance(o, SearchResponse) for o in live)
        assert manifest["extra"]["session"]["warm_recipes"]

        restored = Session.restore(tmp_path)

        async def serve_restored():
            async with ServeGateway(
                restored, GatewayConfig(admission=OPEN)
            ) as gateway:
                return await asyncio.gather(*[
                    gateway.submit("tenant", r) for r in requests
                ])

        recovered = asyncio.run(serve_restored())
        for before, after in zip(live, recovered):
            assert after.items == before.items
            # cursors differ by design: they carry the new boot token
            assert after.page_info.offset == before.page_info.offset
            assert after.page_info.returned == before.page_info.returned
            assert (after.page_info.total_items
                    == before.page_info.total_items)

    def test_checkpoint_interleaved_with_traffic(self, tmp_path):
        session = durable_session(tmp_path)

        async def drive():
            async with ServeGateway(
                session,
                GatewayConfig(admission=OPEN, max_workers=2),
            ) as gateway:
                first = asyncio.gather(*[
                    gateway.submit("a", _request(user_id=f"u{i % 8}"))
                    for i in range(12)
                ])
                manifest = await gateway.checkpoint(tmp_path)
                # serving resumes after the snapshot completes
                late = await gateway.submit("a", _request(user_id="u1"))
                return await first, manifest, late

        outcomes, manifest, late = asyncio.run(drive())
        assert all(isinstance(o, SearchResponse) for o in outcomes)
        assert isinstance(late, SearchResponse)
        assert manifest["format"] == "socialscope-site"

    def test_wal_tail_after_checkpoint_recovers(self, tmp_path):
        session = durable_session(tmp_path)

        async def checkpoint_then_write():
            async with ServeGateway(
                session, GatewayConfig(admission=OPEN)
            ) as gateway:
                await gateway.submit("a", _request())
                await gateway.checkpoint(tmp_path)
            # post-checkpoint activity lands in the WAL only
            session.data_manager.add_node(
                Node("i99", type="item", name="late",
                     keywords="topic1 thing"))
            session.data_manager.add_link(
                Link("a99", "u0", "i99", type="act, visit"))
            session.data_manager.wal.sync()

        asyncio.run(checkpoint_then_write())
        restored = Session.restore(tmp_path)
        items = restored.run(_request(page_size=50)).items
        assert "i99" in items
