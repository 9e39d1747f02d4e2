"""The base graph's activity relation never serves a stale site.

The relation (``graph.activity()``) memoises per-node reads of the base
graph across requests, and ``patched`` carries it to the next graph, so
every way the site can change must be seen by the next page: a write
through the Data Manager, an analysis, an MSG cut from another graph —
and request threads sharing one session while a writer is at work must
each get a page of *one* state of the site.  A page reads the graph its
MSG was cut from (``msg.base``); an in-place write to it is not a way:
the cut freezes it, and it refuses.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest

import factories
import oracle
from benchmarks.e2e.harness import canonical_response, digest
from repro.api import SearchRequest, Session
from repro.core import Link, Node, SocialContentGraph
from repro.discovery import InformationDiscoverer, assemble_msg
from repro.errors import FrozenGraphError
from repro.presentation import InformationOrganizer
from tools.archcheck.racetrack import RaceTracker, TracedLock

import repro.api.session as session_module

JOHN, ANN, BOB = 101, 102, 103
#: John's friends are Ann and Bob; only Bob has visited d4
REQUEST = SearchRequest(user_id=JOHN, text="", strategy="friends", k=10)


def entry_of(page, item):
    return next(
        e for g in page.groups for e in g.entries if e.item_id == item
    )


class TestThroughTheSession:
    def test_a_friends_new_endorsement_shows_on_the_next_run(self):
        session = Session.from_graph(factories.tiny_travel_graph())
        before = entry_of(session.run(REQUEST).page, "d4").explanation
        assert set(before.supporters) == {BOB}
        assert before.aggregate_text.startswith("50%")

        session.data_manager.add_link(
            Link("v-new", ANN, "d4", type="act, visit")
        )
        after = entry_of(session.run(REQUEST).page, "d4").explanation
        assert set(after.supporters) == {ANN, BOB}
        assert after.aggregate_text.startswith("100%")

    def test_an_analysis_changes_the_weights_on_the_next_run(self):
        session = Session.from_graph(factories.tiny_travel_graph())
        before = entry_of(session.run(REQUEST).page, "d2").explanation
        assert before.supporters[ANN] == pytest.approx(2 / 3, abs=1e-6)

        def derive(graph: SocialContentGraph) -> SocialContentGraph:
            derived = SocialContentGraph(catalog=graph.catalog)
            derived.add_node(graph.node(JOHN))
            derived.add_node(graph.node(ANN))
            derived.add_link(Link("sim:j->a", JOHN, ANN,
                                  type="match, sim_user", sim=0.9))
            return derived

        session.analyzer.register("user_similarity", derive)
        session.analyze("user_similarity")
        after = entry_of(session.run(REQUEST).page, "d2").explanation
        assert after.supporters[ANN] == pytest.approx(0.9)
        assert after.supporters[BOB] == before.supporters[BOB]


def recut(msg, base: SocialContentGraph):
    """*msg*'s window cut again from *base*, as a request on it would."""
    return assemble_msg(base, msg.query, msg.items, msg.social,
                        msg.used_expert_fallback)


class TestBehindTheSessionsBack:
    @pytest.fixture()
    def graph(self):
        return factories.tiny_travel_graph()

    @pytest.fixture()
    def msg(self, graph):
        return InformationDiscoverer(graph).discover(JOHN, "", k=10)

    def test_in_place_writes_move_the_epoch_and_the_page(self, graph, msg):
        manager, served = factories.served(graph)
        organizer = InformationOrganizer()
        msg = recut(msg, served)
        first = msg.base.activity()
        assert entry_of(organizer.organize(msg), "d4") \
            .explanation.aggregate_text.startswith("50%")
        assert msg.base.activity() is first  # kept across pages

        vote = Link("v-new", ANN, "d4", type="act, visit")
        with pytest.raises(FrozenGraphError):
            msg.base.add_link(vote)

        manager.add_link(vote)
        msg = recut(msg, manager.graph())
        # the vote's graph came with a relation carried from the first
        assert msg.base._activity is not None
        assert msg.base.activity() is not first
        explanation = entry_of(organizer.organize(msg), "d4").explanation
        assert explanation.aggregate_text.startswith("100%")
        assert set(explanation.supporters) == {ANN, BOB}
        assert factories.assert_relation_as_rebuilt(msg.base)

        with pytest.raises(FrozenGraphError):
            msg.base.remove_link("v-new")
        manager.delete_link("v-new")
        msg = recut(msg, manager.graph())
        explanation = entry_of(organizer.organize(msg), "d4").explanation
        assert explanation.aggregate_text.startswith("50%")
        assert set(explanation.supporters) == {BOB}

    def test_a_reassigned_graph_never_reads_the_old_projection(
        self, graph, msg
    ):
        organizer = InformationOrganizer()
        organizer.organize(msg)
        old = graph.activity()
        # a different site of the same shape: only the object tells them
        # apart
        other = graph.copy()
        other.add_link(Link("v-new", ANN, "d4", type="act, visit"))

        again = recut(msg, other)
        assert again.base is other  # the page reads the graph cut from
        assert other._activity is None  # a copy carries no relation
        with pytest.raises(FrozenGraphError):  # cut from, so frozen
            other.remove_link("v-new")
        assert entry_of(organizer.organize(again), "d4") \
            .explanation.aggregate_text.startswith("100%")
        assert other.activity() is not old
        assert graph.activity() is old
        # the first MSG still reads its own graph
        assert entry_of(organizer.organize(msg), "d4") \
            .explanation.aggregate_text.startswith("50%")

    def test_grouping_dimensions_are_built_once_per_config(self, graph, msg):
        organizer = InformationOrganizer()
        groupers = organizer._groupers
        organizer.organize(msg)
        organizer.organize(msg, dimension="social")
        assert organizer._groupers is groupers
        organizer.config = dataclasses.replace(
            organizer.config, structural_facets=("city",)
        )
        assert sorted(organizer.grouping_factories()) == [
            "endorser", "social", "structural:city", "topical",
        ]


# --------------------------------------------------------------------- storm

STRANGERS = (105, 106, 107, 108)
STORM_REQUEST = dataclasses.replace(REQUEST, grouping="structural:category")


def storm_site() -> SocialContentGraph:
    """The tiny site plus strangers who share d1 with John (UserSim > 0)
    but are nobody's friends: what they endorse moves only the group
    explanations — never the ranking or the MSG.  d2 and d4 sit in
    different ``category`` groups."""
    graph = factories.tiny_travel_graph()
    for item, category in (("d1", "ballpark"), ("d2", "ballpark"),
                           ("d3", "family"), ("d4", "family")):
        graph.replace_node(graph.node(item).with_attrs(category=category))
    for user in STRANGERS:
        graph.add_node(Node(user, type="user", name=f"stranger {user}"))
        graph.add_link(Link(f"s{user}", user, "d1", type="act, visit"))
    return graph


def storm_writes() -> list[Link]:
    """Each stranger endorses d2, then d4, out-rating whoever came before.

    The first write makes them the strongest endorser behind d2; the
    second does the same for d4 *and* lowers their UserSim with John (one
    more item not shared), so it moves every group they support: a page
    rendered half before and half after it matches no prefix.
    """
    return [
        Link(f"w{index}:{item}", user, item, type="act, rate",
             rating=3 + index)
        for index, user in enumerate(STRANGERS)
        for item in ("d2", "d4")
    ]


def reference_digests() -> list[str]:
    """Digest of the reference page after each prefix of the writes."""
    digests = []
    for prefix in range(len(storm_writes()) + 1):
        graph = storm_site()
        for link in storm_writes()[:prefix]:
            graph.add_link(link)
        session = Session.from_graph(graph)
        response = session.run(STORM_REQUEST)
        ev = session._evaluate(STORM_REQUEST)
        msg = oracle.assemble_msg(
            session.graph, ev.query, ev.window, ev.ranking.social,
            ev.ranking.used_expert_fallback,
        )
        page = oracle.organize_reference(
            session.graph, msg, dimension=STORM_REQUEST.grouping, flat_k=ev.size,
        )
        digests.append(digest(canonical_response(
            dataclasses.replace(response, page=page)
        )))
    assert len(set(digests)) == len(digests)  # every write shows
    return digests


@pytest.mark.usefixtures("deadlock_watchdog")
def test_request_storm_with_a_writer_serves_only_whole_states():
    """Four ``Session.run`` threads share one session (as the gateway's
    workers do) while a writer adds endorsements through the Data
    Manager: every response equals the reference page of *some* prefix of
    the writes, and no thread goes back in time.  Nothing serialises the
    writer against the refreshes: each request pins the generation the
    session published, and the relation's unlocked lazy fills and its
    carry in ``patched`` are on trial too — a fill from the wrong graph,
    or a page mixing two generations, matches no prefix."""
    expected = reference_digests()
    tracker = RaceTracker()
    with tracker.trace(session_module):
        session = Session.from_graph(storm_site())
        assert isinstance(session._lock, TracedLock)
        tracker.monitor(session, published=("_gen",))
        session.run(STORM_REQUEST)

        # hold every page open between its groups, so that refreshes by
        # the other threads land mid-page
        render_group = session.organizer._render_group

        def slow_render_group(*args):
            time.sleep(0.002)
            return render_group(*args)

        session.organizer._render_group = slow_render_group

        done = threading.Event()
        together = threading.Barrier(5)
        seen: list[list[int]] = [[] for _ in range(4)]
        errors: list[BaseException] = []

        def reader(slot: int) -> None:
            try:
                together.wait()
                while True:
                    last = done.is_set()
                    response = session.run(STORM_REQUEST)
                    seen[slot].append(
                        expected.index(digest(canonical_response(response)))
                    )
                    if last:
                        return
            except BaseException as error:
                errors.append(error)

        def writer() -> None:
            try:
                together.wait()
                for link in storm_writes():
                    time.sleep(0.005)
                    session.data_manager.add_link(link)
            except BaseException as error:
                errors.append(error)
            finally:
                done.set()

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(4)] + [threading.Thread(target=writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    assert not errors, errors
    for history in seen:
        assert history == sorted(history)  # never back in time
        assert history[-1] == len(storm_writes())  # the last saw it all
    # every publication of the generation held the session lock, and the
    # storm really did contend on the slot
    tracker.assert_race_free()
    states = tracker.field_states()
    assert states["Session._gen"] == "shared-modified"
