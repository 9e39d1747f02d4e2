"""End-to-end deadlines, bounded shutdown, and hedged re-dispatch.

The resilience contract under test: a submission NEVER wedges.  Its
future resolves with a typed outcome whether the deadline fires while
queued, mid-execution (cooperative plan-side checks), or because a
bounded shutdown drain gave up on a hung executor slot — and a slot held
past the hedge quantile gets the batch re-dispatched instead of holding
its requests hostage.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import RequestFailure, SearchRequest, SearchResponse, Session
from repro.errors import DeadlineError, ServeError
from repro.serve import (
    AdmissionPolicy,
    DeadlineExceeded,
    GatewayConfig,
    HedgeTracker,
    Overloaded,
    ServeGateway,
    TenantPolicy,
)
from repro.testing import disarm_all, armed_faults, sleeping
from repro.workloads import JOHN, TravelSiteConfig, build_travel_site


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture()
def session(travel):
    return Session.from_graph(travel.graph)


@pytest.fixture(autouse=True)
def _always_disarm():
    disarm_all()
    yield
    disarm_all()


OPEN_ADMISSION = AdmissionPolicy(
    default=TenantPolicy(capacity=1000.0, refill_per_s=1000.0),
    max_depth=0,
)

REQUEST = SearchRequest(user_id=JOHN, text="Denver attractions")


@pytest.mark.usefixtures("deadlock_watchdog")
class TestQueuedDeadline:
    def test_queued_past_deadline_sheds_typed(self, session):
        # a batch window far longer than the deadline: the request can
        # only resolve via the deadline timer, stage "queued"
        config = GatewayConfig(
            batch_window_s=5.0,
            default_deadline_s=0.05,
            admission=OPEN_ADMISSION,
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                t0 = time.monotonic()
                outcome = await gateway.submit("tenant", REQUEST)
                elapsed = time.monotonic() - t0
                return outcome, elapsed, gateway.stats()

        outcome, elapsed, stats = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert not outcome.ok
        assert outcome.stage == "queued"
        assert outcome.tenant == "tenant"
        assert outcome.deadline_s == 0.05
        assert outcome.elapsed_s >= 0.05
        assert elapsed < 2.0  # resolved by the timer, not the window
        assert stats.deadline_expired == 1
        assert stats.completed == 0

    def test_tenant_policy_deadline_overrides_gateway_default(self, session):
        config = GatewayConfig(
            batch_window_s=5.0,
            default_deadline_s=30.0,
            admission=AdmissionPolicy(
                default=TenantPolicy(capacity=1000.0, refill_per_s=1000.0),
                tenants={
                    "impatient": TenantPolicy(
                        capacity=1000.0, refill_per_s=1000.0,
                        deadline_s=0.05,
                    )
                },
                max_depth=0,
            ),
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                return await gateway.submit("impatient", REQUEST)

        outcome = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert outcome.deadline_s == 0.05

    def test_generous_deadline_serves_normally(self, session):
        reference = session.run(REQUEST)
        config = GatewayConfig(
            default_deadline_s=30.0, admission=OPEN_ADMISSION
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                outcome = await gateway.submit("tenant", REQUEST)
                return outcome, gateway.stats()

        outcome, stats = asyncio.run(_run())
        assert isinstance(outcome, SearchResponse)
        flat = outcome.page.flat
        for a, b in zip(flat, reference.page.flat):
            assert a.item_id == b.item_id
            assert abs(a.score - b.score) <= 1e-9
        assert stats.deadline_expired == 0


@pytest.mark.usefixtures("deadlock_watchdog")
class TestPlanSideDeadline:
    def test_expired_deadline_stops_execution_typed(self, session):
        # an already-expired absolute deadline: the first cooperative
        # check in the plan executor fires, and isolation wraps it as a
        # RequestFailure carrying the DeadlineError
        outcomes = session.run_many(
            [REQUEST],
            isolate_errors=True,
            deadlines=[time.monotonic() - 1.0],
        )
        assert len(outcomes) == 1
        failure = outcomes[0]
        assert isinstance(failure, RequestFailure)
        assert isinstance(failure.error, DeadlineError)
        assert failure.error.stage  # names the operator that noticed
        assert failure.error.elapsed_s >= 0.0

    def test_batchmates_unharmed_by_one_expiry(self, session):
        reference = session.run(REQUEST)
        outcomes = session.run_many(
            [REQUEST, REQUEST],
            isolate_errors=True,
            deadlines=[time.monotonic() - 1.0, None],
        )
        assert isinstance(outcomes[0], RequestFailure)
        assert isinstance(outcomes[1], SearchResponse)
        for a, b in zip(outcomes[1].page.flat, reference.page.flat):
            assert abs(a.score - b.score) <= 1e-9

    def test_deadlines_length_must_match(self, session):
        with pytest.raises(ValueError):
            session.run_many([REQUEST], deadlines=[None, None])


@pytest.mark.usefixtures("deadlock_watchdog")
class TestBoundedShutdown:
    def test_stop_fails_wedged_requests_typed(self, session):
        config = GatewayConfig(
            batch_window_s=0.001,
            drain_timeout_s=0.3,
            hedge=False,  # the hedge would rescue the batch — this test
            # wants the wedge to survive until the drain gives up
            admission=OPEN_ADMISSION,
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                with armed_faults(
                    {"serve.batch": sleeping(2.0, times=1)}
                ):
                    task = asyncio.ensure_future(
                        gateway.submit("tenant", REQUEST)
                    )
                    await asyncio.sleep(0.1)  # let it dispatch and wedge
                    t0 = time.monotonic()
                    await gateway.stop()
                    stop_elapsed = time.monotonic() - t0
                outcome = await task
            return outcome, stop_elapsed

        outcome, stop_elapsed = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert outcome.stage == "shutdown"
        assert stop_elapsed < 1.5  # bounded: did not wait out the sleep

    def test_clean_stop_still_drains_completely(self, session):
        config = GatewayConfig(admission=OPEN_ADMISSION)

        async def _run():
            async with ServeGateway(session, config) as gateway:
                outcomes = await asyncio.gather(*(
                    gateway.submit("tenant", REQUEST) for _ in range(8)
                ))
            return outcomes

        outcomes = asyncio.run(_run())
        assert all(isinstance(o, SearchResponse) for o in outcomes)

    def test_checkpoint_quiesce_is_bounded(self, session, tmp_path):
        config = GatewayConfig(
            batch_window_s=0.001,
            drain_timeout_s=0.2,
            hedge=False,
            admission=OPEN_ADMISSION,
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                with armed_faults(
                    {"serve.batch": sleeping(1.5, times=1)}
                ):
                    task = asyncio.ensure_future(
                        gateway.submit("tenant", REQUEST)
                    )
                    await asyncio.sleep(0.1)  # wedge one slot
                    with pytest.raises(ServeError, match="quiesce"):
                        await gateway.checkpoint(tmp_path)
                await task  # resolved by stop()'s drain or completion
        asyncio.run(_run())


class TestHedging:
    def test_tracker_needs_samples_before_hedging(self):
        tracker = HedgeTracker(min_samples=4)
        assert tracker.hedge_delay() is None
        for _ in range(4):
            tracker.observe(0.002)
        assert tracker.hedge_delay() is not None

    def test_delay_is_floored_for_micro_batches(self):
        tracker = HedgeTracker(min_samples=2, min_delay_s=0.010)
        tracker.observe(0.0001)
        tracker.observe(0.0001)
        assert tracker.hedge_delay() == 0.010

    def test_delay_tracks_the_quantile(self):
        tracker = HedgeTracker(
            quantile=0.5, multiplier=2.0, min_samples=2, min_delay_s=0.0
        )
        for _ in range(10):
            tracker.observe(0.1)
        assert tracker.hedge_delay() == pytest.approx(0.2)

    def test_ring_buffer_forgets_old_samples(self):
        tracker = HedgeTracker(
            quantile=0.5, multiplier=1.0, min_samples=2,
            max_samples=4, min_delay_s=0.0,
        )
        for _ in range(4):
            tracker.observe(10.0)
        for _ in range(4):
            tracker.observe(0.1)
        assert tracker.hedge_delay() == pytest.approx(0.1)

    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_wedged_slot_is_hedged_around(self, session):
        reference = session.run(REQUEST)
        config = GatewayConfig(
            batch_window_s=0.001,
            hedge=True,
            hedge_min_samples=4,
            admission=OPEN_ADMISSION,
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                # prime the latency profile so the hedge is armed
                for _ in range(4):
                    gateway._hedge.observe(0.001)
                with armed_faults(
                    {"serve.batch": sleeping(3.0, times=1)}
                ):
                    t0 = time.monotonic()
                    outcome = await gateway.submit("tenant", REQUEST)
                    elapsed = time.monotonic() - t0
                return outcome, elapsed, gateway.stats()

        outcome, elapsed, stats = asyncio.run(_run())
        # the hedge ran the batch on the spare thread while the primary
        # slot slept out the injected 3s hang
        assert isinstance(outcome, SearchResponse)
        assert elapsed < 2.0
        assert stats.hedged_batches >= 1
        for a, b in zip(outcome.page.flat, reference.page.flat):
            assert abs(a.score - b.score) <= 1e-9


class TestStatsSurface:
    def test_breakers_visible_in_gateway_stats(self, session):
        config = GatewayConfig(admission=OPEN_ADMISSION)

        async def _run():
            async with ServeGateway(session, config) as gateway:
                await gateway.submit("tenant", REQUEST)
                return gateway.stats()

        stats = asyncio.run(_run())
        # the planner's own breaker is always listed; the process
        # pool's joins only once a pool was spawned (never here)
        assert set(stats.breakers) == {"attr_index"}
        assert stats.breakers["attr_index"].state == "closed"

    def test_overloaded_requires_positive_retry_hint(self):
        with pytest.raises(ValueError, match="positive"):
            Overloaded(tenant="t", reason="tenant_budget")
        with pytest.raises(ValueError, match="positive"):
            Overloaded(tenant="t", reason="tenant_budget",
                       retry_after_s=-1.0)
        assert Overloaded(
            tenant="t", reason="tenant_budget", retry_after_s=0.5
        ).retry_after_s == 0.5
