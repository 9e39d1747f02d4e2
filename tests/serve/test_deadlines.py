"""End-to-end deadlines, bounded shutdown, and one execution per request.

The contract under test: a submission NEVER wedges.  Its future resolves
with a typed outcome whether the deadline fires while queued,
mid-execution (cooperative plan-side checks), or because a bounded
shutdown drain gave up on a hung executor slot — and a slow slot never
makes its request run twice: the deadline is the one bound.
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
            drain_timeout_s=0.3, admission=OPEN_ADMISSION
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
            drain_timeout_s=0.2, admission=OPEN_ADMISSION
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


@pytest.mark.usefixtures("deadlock_watchdog")
class TestOneExecution:
    def test_wedged_slot_runs_its_request_once(self, session):
        reference = session.run(REQUEST)
        config = GatewayConfig(admission=OPEN_ADMISSION)

        async def _run():
            async with ServeGateway(session, config) as gateway:
                # a warm latency history first: a slot far slower than
                # every earlier one must still execute its request once
                for _ in range(16):
                    await gateway.submit("tenant", REQUEST)
                before = session.stats.queries
                with armed_faults(
                    {"serve.batch": sleeping(0.5, times=1)}
                ):
                    outcome = await gateway.submit("tenant", REQUEST)
            # leaving the block joined the worker: every execution counted
            return outcome, session.stats.queries - before

        outcome, executions = asyncio.run(_run())
        assert isinstance(outcome, SearchResponse)
        assert executions == 1
        assert outcome.items == reference.items
        for a, b in zip(outcome.page.flat, reference.page.flat):
            assert abs(a.score - b.score) <= 1e-9

    def test_wedged_slot_is_answered_by_the_deadline(self, session):
        config = GatewayConfig(default_deadline_s=0.05)

        async def _run():
            async with ServeGateway(session, config) as gateway:
                with armed_faults(
                    {"serve.batch": sleeping(3.0, times=1)}
                ):
                    t0 = time.monotonic()
                    outcome = await gateway.submit("tenant", REQUEST)
                    elapsed = time.monotonic() - t0
                return outcome, elapsed

        outcome, elapsed = asyncio.run(_run())
        assert isinstance(outcome, DeadlineExceeded)
        assert outcome.stage == "executing"
        assert outcome.deadline_s == 0.05
        assert elapsed < 0.05 + 0.5  # the timer, not the 3 s wedge


class TestStatsSurface:
    def test_overloaded_requires_positive_retry_hint(self):
        with pytest.raises(ValueError, match="positive"):
            Overloaded(tenant="t", reason="tenant_budget")
        with pytest.raises(ValueError, match="positive"):
            Overloaded(tenant="t", reason="tenant_budget",
                       retry_after_s=-1.0)
        assert Overloaded(
            tenant="t", reason="tenant_budget", retry_after_s=0.5
        ).retry_after_s == 0.5
