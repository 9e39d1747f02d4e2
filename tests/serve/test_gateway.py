"""The serving gateway: parity, backpressure, fairness, storms.

The non-negotiable contract is **parity**: a response served through the
gateway is bit-identical (scores to 1e-9) to the same request run
sequentially through ``Session.run`` — concurrency is a serving concern,
never a semantics change.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro.serve.admission as admission_module
from repro.api import (
    RequestFailure,
    SearchRequest,
    SearchResponse,
    Session,
    encode_cursor,
)
from repro.errors import ServeError
from repro.serve import (
    GLOBAL_DEPTH,
    TENANT_BUDGET,
    AdmissionController,
    AdmissionPolicy,
    GatewayConfig,
    Overloaded,
    ServeGateway,
    TenantPolicy,
)
from repro.testing import armed_faults, disarm_all, sleeping
from repro.workloads import ALEXIA, JOHN, TravelSiteConfig, build_travel_site
from tools.archcheck.racetrack import RaceTracker, TracedLock


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


#: Generous budgets: these tests exercise dispatch, not admission.
OPEN_ADMISSION = AdmissionPolicy(
    default=TenantPolicy(capacity=1000.0, refill_per_s=1000.0),
    max_depth=0,
)


def serve_all(
    session: Session,
    submissions: list[tuple[str, SearchRequest]],
    config: GatewayConfig,
):
    """Submit all concurrently on one loop; return (outcomes, stats)."""

    async def _run():
        async with ServeGateway(session, config) as gateway:
            outcomes = await asyncio.gather(*(
                gateway.submit(tenant, request)
                for tenant, request in submissions
            ))
            return outcomes, gateway.stats()

    return asyncio.run(_run())


def assert_response_parity(served: SearchResponse, solo: SearchResponse):
    """Identical rankings, scores within 1e-9, same grouping."""
    assert served.items == solo.items
    served_flat = served.page.flat
    solo_flat = solo.page.flat
    assert [e.item_id for e in served_flat] == [e.item_id for e in solo_flat]
    for a, b in zip(served_flat, solo_flat):
        assert abs(a.score - b.score) <= 1e-9
    assert (
        [(g.label, [e.item_id for e in g.entries]) for g in served.page.groups]
        == [(g.label, [e.item_id for e in g.entries]) for g in solo.page.groups]
    )


class TestBatchingParity:
    def submissions(self) -> list[tuple[str, SearchRequest]]:
        hot = SearchRequest(user_id=JOHN, text="Denver attractions")
        return [
            ("alpha", hot),
            ("alpha", hot.replace(k=5)),           # same user: differs in k
            ("alpha", hot.replace(page_size=3)),   # same user: pagination
            ("alpha", hot.replace(grouping="social")),  # same user: grouping
            ("beta", SearchRequest(user_id=ALEXIA, text="history")),
            ("beta", SearchRequest(user_id=ALEXIA)),  # recommendation
            ("alpha", hot.replace(explain=True)),  # same user: explain
        ]

    def test_batched_identical_to_sequential(self, session):
        """Concurrent same-user requests each equal their ``Session.run``."""
        submissions = self.submissions()
        solo = [session.run(request) for _, request in submissions]
        config = GatewayConfig(admission=OPEN_ADMISSION)
        outcomes, stats = serve_all(session, submissions, config)
        assert all(isinstance(o, SearchResponse) for o in outcomes)
        for served, reference in zip(outcomes, solo):
            assert_response_parity(served, reference)
        assert stats.completed == len(submissions)


class TestErrorIsolation:
    def test_stale_cursor_fails_alone_in_batch(self, session):
        """A stale cursor submitted alongside good requests fails alone."""
        good = SearchRequest(user_id=JOHN, text="denver")
        bad = good.replace(cursor=encode_cursor(0, 5, epoch=999))
        submissions = [("a", good), ("a", bad), ("b", good)]
        config = GatewayConfig(admission=OPEN_ADMISSION)
        outcomes, stats = serve_all(session, submissions, config)
        assert isinstance(outcomes[0], SearchResponse)
        assert isinstance(outcomes[1], RequestFailure)
        assert outcomes[1].kind == "QueryError"
        assert "stale cursor" in outcomes[1].message
        assert isinstance(outcomes[2], SearchResponse)
        assert stats.failed == 1 and stats.completed == 2

    def test_batch_level_explosion_fails_members_not_gateway(self, session):
        config = GatewayConfig(admission=OPEN_ADMISSION)
        request = SearchRequest(user_id=JOHN, text="denver")

        async def _run():
            async with ServeGateway(session, config) as gateway:
                original = session.run
                session.run = lambda *a, **kw: (_ for _ in ()).throw(
                    RuntimeError("executor blew up")
                )
                try:
                    broken = await gateway.submit("a", request)
                finally:
                    session.run = original
                healed = await gateway.submit("a", request)
                return broken, healed

        broken, healed = asyncio.run(_run())
        assert isinstance(broken, RequestFailure)
        assert broken.kind == "RuntimeError"
        assert isinstance(healed, SearchResponse)  # gateway survived


class TestAdmissionBackpressure:
    def test_budget_exhaustion_returns_typed_overloaded(self, session):
        policy = AdmissionPolicy(
            default=TenantPolicy(capacity=2, refill_per_s=0), max_depth=0
        )
        request = SearchRequest(user_id=JOHN, text="denver")
        submissions = [("greedy", request)] * 5
        config = GatewayConfig(admission=policy)
        outcomes, stats = serve_all(session, submissions, config)
        served = [o for o in outcomes if isinstance(o, SearchResponse)]
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        assert len(served) == 2 and len(shed) == 3
        assert all(o.reason == TENANT_BUDGET for o in shed)
        assert all(o.tenant == "greedy" for o in shed)
        assert stats.shed == 3 and stats.admission.shed_budget == 3

    def test_global_depth_cap_sheds_synthetic_overload(self, session):
        policy = AdmissionPolicy(
            default=TenantPolicy(capacity=1000, refill_per_s=1000),
            max_depth=2,
        )
        request = SearchRequest(user_id=JOHN, text="denver")
        submissions = [(f"t{i}", request) for i in range(10)]
        config = GatewayConfig(admission=policy)
        outcomes, stats = serve_all(session, submissions, config)
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        assert len(shed) == 8
        assert all(o.reason == GLOBAL_DEPTH for o in shed)
        assert stats.admission.shed_depth == 8
        # budgets were NOT spent on depth sheds
        assert stats.admission.admitted == 2

    def test_fairness_heavy_tenant_cannot_starve_light(self, session):
        policy = AdmissionPolicy(
            default=TenantPolicy(capacity=3, refill_per_s=0), max_depth=0
        )
        request = SearchRequest(user_id=JOHN, text="denver")
        submissions = [("heavy", request)] * 12 + [("light", request)] * 3
        config = GatewayConfig(admission=policy)
        outcomes, stats = serve_all(session, submissions, config)
        light = outcomes[12:]
        assert all(isinstance(o, SearchResponse) for o in light)
        heavy_shed = [
            o for o in outcomes[:12] if isinstance(o, Overloaded)
        ]
        assert len(heavy_shed) == 9
        per_tenant = stats.admission.per_tenant_admitted
        assert per_tenant == {"heavy": 3, "light": 3}


class TestLifecycle:
    def test_submit_before_start_raises(self, session):
        gateway = ServeGateway(session)

        async def _run():
            await gateway.submit("a", SearchRequest(user_id=JOHN))

        with pytest.raises(ServeError, match="not running"):
            asyncio.run(_run())

    def test_invalid_config_rejected(self, session):
        def policy(deadline_s: float) -> AdmissionPolicy:
            return AdmissionPolicy(
                tenants={"t": TenantPolicy(deadline_s=deadline_s)}
            )

        rejected = [
            ("max_workers", GatewayConfig(max_workers=bad))
            for bad in (0, -1, 2.5, True, "4")
        ]
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            rejected += [
                ("deadline", GatewayConfig(default_deadline_s=bad)),
                ("deadline", GatewayConfig(admission=policy(bad))),
                ("deadline", GatewayConfig(admission=AdmissionPolicy(
                    default=TenantPolicy(deadline_s=bad)
                ))),
                ("drain_timeout_s", GatewayConfig(drain_timeout_s=bad)),
            ]
        for match, config in rejected:
            with pytest.raises(ServeError, match=match):
                ServeGateway(session, config)

    def test_double_start_raises(self, session):
        async def _run():
            async with ServeGateway(session) as gateway:
                with pytest.raises(ServeError, match="already started"):
                    await gateway.start()

        asyncio.run(_run())

    def test_stop_drains_pending_batches(self, session):
        """Entries still queued for the one worker complete at shutdown."""
        request = SearchRequest(user_id=JOHN, text="denver")

        async def _run():
            gateway = ServeGateway(session, GatewayConfig(
                max_workers=1, admission=OPEN_ADMISSION
            ))
            await gateway.start()
            with armed_faults({"serve.batch": sleeping(0.2, times=1)}):
                pending = [
                    asyncio.ensure_future(gateway.submit("a", request))
                    for _ in range(3)
                ]
                await asyncio.sleep(0.05)  # one executing, two queued
                assert len(gateway._ready) == 2
                await gateway.stop()
            return await asyncio.gather(*pending)

        outcomes = asyncio.run(_run())
        assert all(isinstance(o, SearchResponse) for o in outcomes)

    def test_idle_submit_arms_no_timer(self, session):
        """No deadline configured: nothing on the submit path waits on a
        clock — a request is dispatched the moment it is admitted."""
        request = SearchRequest(user_id=JOHN, text="denver")

        async def _run():
            loop = asyncio.get_running_loop()
            armed: list[float] = []
            call_later = loop.call_later

            def counting(delay, callback, *args, **kwargs):
                armed.append(delay)
                return call_later(delay, callback, *args, **kwargs)

            config = GatewayConfig(admission=OPEN_ADMISSION)
            async with ServeGateway(session, config) as gateway:
                loop.call_later = counting
                try:
                    outcome = await gateway.submit("a", request)
                finally:
                    del loop.call_later
            return outcome, armed

        outcome, armed = asyncio.run(_run())
        assert isinstance(outcome, SearchResponse)
        assert armed == []

    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_priority_orders_the_queue(self, session):
        """With the one worker occupied, a priority-1 tenant submitted
        after a priority-10 tenant is served first."""
        request = SearchRequest(user_id=JOHN, text="denver")
        budget = {"capacity": 1000.0, "refill_per_s": 1000.0}
        config = GatewayConfig(max_workers=1, admission=AdmissionPolicy(
            default=TenantPolicy(priority=10, **budget),
            tenants={"vip": TenantPolicy(priority=1, **budget)},
            max_depth=0,
        ))

        async def _run():
            served: list[str] = []

            async def submit(tenant: str) -> None:
                outcome = await gateway.submit(tenant, request)
                assert isinstance(outcome, SearchResponse)
                served.append(tenant)

            async with ServeGateway(session, config) as gateway:
                with armed_faults({"serve.batch": sleeping(0.2, times=1)}):
                    blocker = asyncio.ensure_future(submit("blocker"))
                    await asyncio.sleep(0.05)  # the worker is now occupied
                    bulk = asyncio.ensure_future(submit("bulk"))
                    await asyncio.sleep(0)  # bulk is queued first
                    vip = asyncio.ensure_future(submit("vip"))
                    await asyncio.gather(blocker, bulk, vip)
            return served

        assert asyncio.run(_run()) == ["blocker", "vip", "bulk"]

    def test_plan_cache_stats_management_endpoint(self, session):
        request = SearchRequest(user_id=JOHN, text="denver")

        async def _run():
            async with ServeGateway(
                session,
                GatewayConfig(admission=OPEN_ADMISSION),
            ) as gateway:
                await gateway.submit("a", request)
                return gateway.plan_cache_stats()

        stats = asyncio.run(_run())
        cache = session.planner.cache.stats
        assert stats["compiles"] == cache.misses >= 1
        assert (stats["hits"], stats["size"]) == (cache.hits, cache.size)
        assert stats.keys() == {
            "hits", "compiles", "evictions", "size", "hit_rate",
        }


class TestStorms:
    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_threaded_submitters_against_one_loop(self, session):
        """Thread/asyncio storm: 8 raw threads funnel submissions into the
        gateway loop via run_coroutine_threadsafe while requests execute on
        the worker pool — the watchdog converts any deadlock into stacks."""
        request = SearchRequest(user_id=JOHN, text="denver")
        per_thread = 12
        results: list[object] = []
        errors: list[BaseException] = []

        async def _serve():
            async with ServeGateway(session, GatewayConfig(
                max_workers=3,
                admission=OPEN_ADMISSION,
            )) as gateway:
                loop = asyncio.get_running_loop()
                started = threading.Event()

                def submitter(tenant: str) -> None:
                    started.wait()
                    try:
                        for _ in range(per_thread):
                            future = asyncio.run_coroutine_threadsafe(
                                gateway.submit(tenant, request), loop
                            )
                            results.append(future.result(timeout=60))
                    except BaseException as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=submitter, args=(f"t{i}",))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                started.set()
                while any(t.is_alive() for t in threads):
                    await asyncio.sleep(0.01)
                for thread in threads:
                    thread.join()
                return gateway.stats()

        stats = asyncio.run(_serve())
        assert not errors
        assert len(results) == 8 * per_thread
        assert all(isinstance(r, SearchResponse) for r in results)
        assert stats.completed == 8 * per_thread

    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_admission_controller_storm_is_race_free(self):
        """Lockset (Eraser) pass over the admission controller under a
        genuine multi-thread admit/release storm: every mutable field must
        stay consistently guarded by the controller lock."""
        tracker = RaceTracker()
        with tracker.trace(admission_module):
            controller = AdmissionController(AdmissionPolicy(
                default=TenantPolicy(capacity=40, refill_per_s=1000),
                max_depth=64,
            ))
            assert isinstance(controller._lock, TracedLock)
            tracker.monitor(controller)
            errors: list[BaseException] = []

            def worker(tenant: str) -> None:
                try:
                    tickets = []
                    for i in range(150):
                        verdict = controller.admit(tenant)
                        if isinstance(verdict, admission_module.Admitted):
                            tickets.append(verdict)
                        if len(tickets) >= 4:
                            controller.release(tickets.pop())
                        controller.available_tokens(tenant)
                    for ticket in tickets:
                        controller.release(ticket)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(f"t{i % 3}",))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        tracker.assert_race_free()
        # the storm really contended on controller internals
        assert any(
            state in ("shared", "shared-modified")
            for state in tracker.field_states().values()
        ), tracker.field_states()
