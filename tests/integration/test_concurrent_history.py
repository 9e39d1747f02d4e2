"""Reads during writes: one generation per request, one refresh per write.

Four threads loop ``Session.run`` over a seeded request stream while a
writer adds seeded ``act, visit`` votes through the Data Manager and reads
twice after each, with the interpreter switching threads every 10 µs —
the gateway's shape with a writer beside it.  A vote is a links-only
step, so every refresh follows it by its delta; a thread that finds a
refresh under way takes the generation it publishes instead of starting
a second one.  So there are no more refreshes than writes, none of them
a full resync, no acknowledged vote is missing from the served graph, and
the final answers are a fresh session's.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import pytest

from benchmarks.e2e.harness import canonical_response, first_difference
from repro.api import SearchRequest, Session
from repro.core import Link
from repro.workloads import WorkloadConfig, build_site

SITE = WorkloadConfig(
    num_users=40, num_items=80, mean_degree=4, activity_rate=4.0, seed=11
)
READERS = 4
WRITES = 40


def request_stream(site, seed: int = 17) -> list[SearchRequest]:
    rng = random.Random(seed)
    texts = ("", "museum", "park food", site.categories[0])
    return [
        SearchRequest(
            user_id=rng.choice(site.user_ids),
            text=rng.choice(texts),
            strategy=rng.choice(("friends", "similar_users", "auto")),
            k=8,
        )
        for _ in range(16)
    ]


@pytest.mark.usefixtures("deadlock_watchdog")
def test_reads_during_writes_refresh_once_per_write_and_lose_nothing():
    site = build_site(SITE)
    session = Session.from_graph(site.graph)
    manager = session.data_manager
    requests = request_stream(site)
    for request in requests:
        session.run(request)
    before = dataclasses.replace(session.stats)

    rng = random.Random(17)
    acknowledged: list[str] = []
    errors: list[BaseException] = []
    done = threading.Event()
    together = threading.Barrier(READERS + 1)

    def reader(slot: int) -> None:
        try:
            together.wait()
            index = slot
            while not done.is_set():
                session.run(requests[index % len(requests)])
                index += READERS
        except BaseException as error:
            errors.append(error)

    def writer() -> None:
        try:
            together.wait()
            for number in range(WRITES):
                link = manager.add_link(Link(
                    f"w{number}", rng.choice(site.user_ids),
                    rng.choice(site.item_ids), type="act, visit",
                ))
                acknowledged.append(link.id)
                for request in requests[number % 8:][:2]:
                    session.run(request)
        except BaseException as error:
            errors.append(error)
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(READERS)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(acknowledged) == WRITES

    refreshes = session.stats.refreshes - before.refreshes
    deltas = session.stats.delta_refreshes - before.delta_refreshes
    assert refreshes == deltas <= WRITES, (refreshes, deltas)
    served = session.graph
    assert [link for link in acknowledged if not served.has_link(link)] == []
    fresh = Session.from_graph(manager.store.snapshot())
    for request in requests:
        assert first_difference(
            canonical_response(session.run(request)),
            canonical_response(fresh.run(request)),
        ) is None, request
