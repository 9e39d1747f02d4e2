"""End-to-end deadlines, bounded shutdown, and hedged re-dispatch.

The resilience contract under test: a submission NEVER wedges.  Its
future resolves with a typed outcome whether the deadline fires while
queued, mid-execution (cooperative plan-side checks), or because a
bounded shutdown drain gave up on a hung executor slot — and a slot held
past the hedge quantile gets its request re-dispatched instead of holding
it hostage.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import SearchRequest, SearchResponse, Session
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


async def occupy_worker(gateway: ServeGateway) -> "asyncio.Future[object]":
    """Hold one worker slot: the caller has ``serve.batch`` armed sleeping.

    Submits a request and yields until it has been dispatched, so with
    ``max_workers=1`` whatever is submitted next stays queued.
    """
    blocker = asyncio.ensure_future(gateway.submit("blocker", REQUEST))
    await asyncio.sleep(0.02)
    return blocker


@pytest.mark.usefixtures("deadlock_watchdog")
class TestQueuedDeadline:
    def test_queued_past_deadline_sheds_typed(self, session):
        # the one worker is held far longer than the deadline: the
        # request behind it can only resolve via the deadline timer,
        # stage "queued"
        config = GatewayConfig(
            max_workers=1,
            default_deadline_s=0.05,
            admission=AdmissionPolicy(
                default=TenantPolicy(capacity=1000.0, refill_per_s=1000.0),
                tenants={
                    "blocker": TenantPolicy(
                        capacity=1000.0, refill_per_s=1000.0,
                        deadline_s=30.0,
                    )
                },
                max_depth=0,
            ),
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                with armed_faults(
                    {"serve.batch": sleeping(0.5, times=1)}
                ):
                    blocker = await occupy_worker(gateway)
                    t0 = time.monotonic()
                    outcome = await gateway.submit("tenant", REQUEST)
                    elapsed = time.monotonic() - t0
                    stats = gateway.stats()
                    await blocker
                return outcome, elapsed, stats

        outcome, elapsed, stats = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert not outcome.ok
        assert outcome.stage == "queued"
        assert outcome.tenant == "tenant"
        assert outcome.deadline_s == 0.05
        assert outcome.elapsed_s >= 0.05
        assert elapsed < 0.4  # resolved by the timer, not the worker
        assert stats.deadline_expired == 1
        assert stats.completed == 0

    def test_tenant_policy_deadline_overrides_gateway_default(self, session):
        config = GatewayConfig(
            max_workers=1,
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
                with armed_faults(
                    {"serve.batch": sleeping(0.5, times=1)}
                ):
                    blocker = await occupy_worker(gateway)
                    outcome = await gateway.submit("impatient", REQUEST)
                    await blocker
                return outcome

        outcome = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert outcome.stage == "queued"
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
        # check in the plan executor fires
        with pytest.raises(DeadlineError) as raised:
            session.run(REQUEST, deadline=time.monotonic() - 1.0)
        assert raised.value.stage  # names the operator that noticed
        assert raised.value.elapsed_s >= 0.0

    def test_batchmates_unharmed_by_one_expiry(self, session):
        # a deadline is per call, never session state: the same request
        # right after an expiry is served in full
        reference = session.run(REQUEST)
        with pytest.raises(DeadlineError):
            session.run(REQUEST, deadline=time.monotonic() - 1.0)
        response = session.run(REQUEST)
        assert isinstance(response, SearchResponse)
        assert response.items == reference.items
        for a, b in zip(response.page.flat, reference.page.flat):
            assert abs(a.score - b.score) <= 1e-9


@pytest.mark.usefixtures("deadlock_watchdog")
class TestDeadlineAboveThePlan:
    """The budget bounds the work done, not only the plan: a request
    whose deadline passes after ranking cuts no MSG and organizes no
    page."""

    @staticmethod
    def _slow(function, seconds, entered=None):
        def slowed(*args, **kwargs):
            if entered is not None:
                entered.append(function.__name__)
            result = function(*args, **kwargs)
            time.sleep(seconds)
            return result
        return slowed

    def test_rank_outlasting_the_budget_stops_before_the_msg(
        self, session, monkeypatch
    ):
        import repro.api.session as session_module

        entered: list[str] = []
        rank = session.discoverer.rank
        # the plan itself finishes in time (no cooperative check fires);
        # the clock runs out between ranking and the MSG cut
        monkeypatch.setattr(
            session.discoverer, "rank",
            lambda *a, **kw: self._slow(rank, 0.1)(
                *a, **{**kw, "deadline": None}
            ),
        )
        monkeypatch.setattr(
            session_module, "assemble_msg",
            self._slow(session_module.assemble_msg, 0.0, entered),
        )
        monkeypatch.setattr(
            session.organizer, "organize",
            self._slow(session.organizer.organize, 0.0, entered),
        )
        with pytest.raises(DeadlineError) as raised:
            session.run(REQUEST, deadline=time.monotonic() + 0.05)
        assert raised.value.stage == "assemble_msg"
        assert raised.value.elapsed_s >= 0.05
        assert entered == []

    def test_msg_cut_outlasting_the_budget_stops_before_organize(
        self, session, monkeypatch
    ):
        import repro.api.session as session_module

        entered: list[str] = []
        monkeypatch.setattr(
            session_module, "assemble_msg",
            self._slow(session_module.assemble_msg, 0.1),
        )
        monkeypatch.setattr(
            session.organizer, "organize",
            self._slow(session.organizer.organize, 0.0, entered),
        )
        session.run(REQUEST)  # warm: the budget below is the cut's alone
        entered.clear()
        with pytest.raises(DeadlineError) as raised:
            session.run(REQUEST, deadline=time.monotonic() + 0.05)
        assert raised.value.stage == "organize"
        assert entered == []

    def test_gateway_outcome_is_typed_and_organize_never_runs(
        self, session, monkeypatch
    ):
        entered: list[str] = []
        rank = session.discoverer.rank
        monkeypatch.setattr(
            session.discoverer, "rank", self._slow(rank, 0.15)
        )
        monkeypatch.setattr(
            session.organizer, "organize",
            self._slow(session.organizer.organize, 0.0, entered),
        )
        config = GatewayConfig(
            max_workers=1, default_deadline_s=0.05,
            admission=OPEN_ADMISSION,
        )

        async def _run():
            # leaving the block drains the worker, so ``entered`` is final
            async with ServeGateway(session, config) as gateway:
                return await gateway.submit("tenant", REQUEST)

        outcome = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert outcome.deadline_s == 0.05
        assert entered == []


@pytest.mark.usefixtures("deadlock_watchdog")
class TestBoundedShutdown:
    def test_stop_fails_wedged_requests_typed(self, session):
        config = GatewayConfig(
            drain_timeout_s=0.3,
            hedge=False,  # the hedge would rescue the request — this test
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
        # the hedge ran the request on the spare thread while the
        # primary slot slept out the injected 3s hang
        assert isinstance(outcome, SearchResponse)
        assert elapsed < 2.0
        assert stats.hedged_batches >= 1
        for a, b in zip(outcome.page.flat, reference.page.flat):
            assert abs(a.score - b.score) <= 1e-9

    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_no_hedge_for_a_request_nobody_waits_for(self, session):
        config = GatewayConfig(
            default_deadline_s=0.05,
            hedge=True,
            hedge_min_samples=4,
            admission=OPEN_ADMISSION,
        )

        async def _run():
            async with ServeGateway(session, config) as gateway:
                # armed hedge whose cut (0.1 s x 2) lands after the
                # deadline and before the injected hang ends
                for _ in range(4):
                    gateway._hedge.observe(0.1)
                with armed_faults(
                    {"serve.batch": sleeping(0.6, times=1)}
                ):
                    outcome = await gateway.submit("tenant", REQUEST)
                    await asyncio.sleep(0.4)  # past the hedge cut
                    return outcome, gateway.stats()

        outcome, stats = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert outcome.stage == "executing"
        assert stats.hedged_batches == 0


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
