"""One plan cache under many threads, and sessions served side by side.

A planner's :class:`~repro.plan.PlanCache` is shared by every gateway
worker thread running ``Session.run`` on that session; the stress tests
drive one cache — and whole sessions over one Data Manager, each with its
own cache — from many threads at once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import factories
from repro.api import SearchRequest, Session
from repro.management import DataManager
from repro.plan import PlanCache


@pytest.mark.usefixtures("deadlock_watchdog")
class TestConcurrency:
    def test_raw_cache_survives_a_thread_storm(self):
        cache = PlanCache(maxsize=32)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for i in range(300):
                    key = ("k", (seed * 7 + i) % 48)
                    stamp = i % 3
                    got = cache.get(key, stamp)
                    if got is None:
                        cache.put(key, stamp, f"plan-{key}")  # type: ignore[arg-type]
                    else:
                        assert got == f"plan-{key}"
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats
        assert stats.hits + stats.misses == 8 * 300

    def test_concurrent_sessions_agree_with_their_own_caches(self):
        graph = factories.social_site_graph(num_users=6, num_items=8)
        dm = DataManager()
        dm.load_graph(graph)
        sessions = [Session(dm) for _ in range(4)]
        assert len({id(s.planner.cache) for s in sessions}) == 4
        requests = [
            SearchRequest(user_id=f"u{i % 6}", text=("topic0" if i % 2 else ""))
            for i in range(12)
        ]
        reference = [Session(dm).run(r).items for r in requests]

        def serve(session: Session) -> list:
            return [session.run(r).items for r in requests]

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(serve, sessions))
        for outcome in outcomes:
            assert outcome == reference
