"""The Data Manager serves every acknowledged write.

``DataManager.graph()`` cuts the changes since the graph it served last,
patches (or re-snapshots), and stamps the result served.  A write that
lands between the cut and the stamp is not in the graph, so the stamp
must be the version the delta was cut at — otherwise the write is marked
served and every later graph lacks it.  Writes and the serve share one
lock; a write on the serving thread itself (a fault handler, or code the
patch runs) can still land there, and is the next call's.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import Link, SocialContentGraph
from repro.management import DataManager
from repro.testing.faults import armed_faults
from repro.workloads import TravelSiteConfig, build_travel_site

ITEM = "attr:denver:baseball:0"
VOTE = Link("vote", 1, ITEM, type="act, visit")
LATE = Link("late", 2, ITEM, type="act, visit")


@pytest.fixture()
def manager():
    site = build_travel_site(TravelSiteConfig(seed=42))
    manager = DataManager()
    manager.load_graph(site.graph)
    return manager


def assert_serves_the_store(manager: DataManager) -> SocialContentGraph:
    served = manager.graph()
    snapshot = manager.store.snapshot()
    assert served.same_as(snapshot)
    assert [n.id for n in served.nodes()] == [n.id for n in snapshot.nodes()]
    assert [l.id for l in served.links()] == [l.id for l in snapshot.links()]
    return served


@pytest.mark.parametrize("served_before", [True, False],
                         ids=["patched", "snapshot"])
def test_a_write_inside_the_serve_is_served_next(manager, served_before):
    """Armed at ``management.serve``, a handler writes while ``graph()``
    holds a graph cut without it: that graph is served as it was cut,
    and the next call patches the write in."""
    if served_before:
        manager.graph()  # the next graph is patched, not re-snapshotted
    manager.add_link(VOTE)
    fired: list[str] = []

    def write_once(name: str, **info: object) -> None:
        if not fired:
            fired.append(name)
            manager.add_link(LATE)

    with armed_faults({"management.serve": write_once}):
        cut = manager.graph()
    assert fired == ["management.serve"]
    assert cut.has_link("vote") and not cut.has_link("late")

    served = assert_serves_the_store(manager)
    assert served is not cut and served.has_link("late")
    assert manager.graph() is served


def test_a_write_from_inside_the_patch_is_not_lost(manager, monkeypatch):
    """The same late write made by the patch itself, with nothing armed."""
    manager.graph()
    manager.add_link(VOTE)
    patched = SocialContentGraph.patched
    writes = [LATE]

    def patched_with_a_write(graph, delta):
        if writes:
            manager.add_link(writes.pop())
        return patched(graph, delta)

    monkeypatch.setattr(SocialContentGraph, "patched", patched_with_a_write)
    manager.graph()
    assert manager.store.has_link("late")
    assert assert_serves_the_store(manager).has_link("late")


def test_writers_and_readers_racing_lose_no_write(manager):
    """Two writers vote while two readers call ``graph()`` in a loop, with
    a short switch interval: afterwards every vote is in the served graph,
    which iterates as the store's snapshot does."""
    users = [n.id for n in manager.store.nodes_of_type("user")][:2]
    done = threading.Event()
    errors: list[BaseException] = []

    def writer(user) -> None:
        try:
            for vote in range(400):
                manager.add_link(Link(f"v{user}:{vote}", user, ITEM,
                                      type="act, visit"))
        except BaseException as error:
            errors.append(error)

    def reader() -> None:
        try:
            while not done.is_set():
                manager.graph()
        except BaseException as error:
            errors.append(error)

    writers = [threading.Thread(target=writer, args=(u,)) for u in users]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + readers)
    assert not errors, errors
    served = assert_serves_the_store(manager)
    assert all(served.has_link(f"v{u}:{vote}")
               for u in users for vote in range(400))
