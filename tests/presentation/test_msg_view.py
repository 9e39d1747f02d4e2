"""The MSG is a view of the served graph: parity with the cut it replaced.

``assemble_msg`` builds no subgraph: ``taggers_of`` reads the item's
endorsers off the base graph's activity relation, kept to the MSG's
endorser set, and the groupings read ``msg.base``.  ``tests/oracle/msg.py``
keeps the cut and the groupings that read it; every test here fails if
the view drifts from them — on the seeded travel site, on generated
sites, on a hand-made site whose ``act, belong`` and ``connect, act``
links the cut kept by its other rules, and down a zoom of the hierarchy.
The last class counts the cuts a request makes: none for a page, one
for ``Session.discover(...).graph`` however often it is read.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import oracle
from repro.api import SearchRequest, Session
from repro.core import Link, Node, SocialContentGraph
from repro.discovery import MeaningfulSocialGraph
from repro.presentation import (
    choose_grouping,
    endorser_group_grouping,
    restrict_msg,
    social_grouping,
    structural_grouping,
    topical_grouping,
)
from repro.workloads import (
    ALEXIA,
    JOHN,
    SELMA,
    TravelSiteConfig,
    WorkloadConfig,
    build_site,
    build_travel_site,
)

STRATEGIES = ("friends", "similar_users", "item_based")


def groupings(msg: MeaningfulSocialGraph) -> list:
    """Every grouping the organizer builds, over the view."""
    return [
        social_grouping(msg, 0.3), topical_grouping(msg),
        structural_grouping(msg, "city"),
        structural_grouping(msg, "category"), endorser_group_grouping(msg),
    ]


def reference_groupings(msg: MeaningfulSocialGraph) -> list:
    """The same groupings over the cut, the way they read it."""
    return [
        oracle.social_grouping(msg, 0.3), oracle.topical_grouping(msg),
        oracle.structural_grouping(msg, "city"),
        oracle.structural_grouping(msg, "category"),
        oracle.endorser_group_grouping(msg, msg.base),
    ]


def form(grouping) -> tuple:
    return grouping.dimension, [(g.label, g.items) for g in grouping.groups]


def view_and_cut(session: Session, request: SearchRequest):
    """The MSG a request serves, and the oracle's cut of the same window."""
    view = session.discover(request)
    ev = session._evaluate(request)
    cut = oracle.assemble_msg(
        session.graph, ev.query, ev.window, ev.ranking.social,
        ev.ranking.used_expert_fallback,
    )
    return view, cut


def assert_view_equals_cut(view, cut) -> None:
    assert view.item_ids == cut.item_ids
    for item in view.item_ids:
        assert view.taggers_of(item) == oracle.taggers_of(cut, item), item
    new, old = groupings(view), reference_groupings(cut)
    assert [form(g) for g in new] == [form(g) for g in old]
    assert choose_grouping(new, view)[1] == choose_grouping(old, cut)[1]


def requests(users, texts) -> list[SearchRequest]:
    return [
        SearchRequest(user_id=user, text=text, strategy=strategy, k=12)
        for user in users for text in texts for strategy in STRATEGIES
    ]


def test_the_travel_site_view_equals_the_cut():
    session = Session.from_graph(build_travel_site(
        TravelSiteConfig(seed=42)).graph)
    for request in requests((JOHN, SELMA, ALEXIA),
                            ("Denver attractions", "history", "")):
        assert_view_equals_cut(*view_and_cut(session, request))


@pytest.mark.parametrize("seed", [3, 11])
def test_generated_sites_view_equals_the_cut(seed):
    site = build_site(WorkloadConfig(num_users=40, num_items=60, seed=seed))
    session = Session.from_graph(site.graph)
    for request in requests(site.user_ids[:4], ("", "museum")):
        assert_view_equals_cut(*view_and_cut(session, request))


def kept_links_site() -> SocialContentGraph:
    """Result items joined by an ``act, belong`` link, and the user's
    ``connect, act`` link onto a result item that endorses another: the
    cut kept both by the belong / connect rule, typed ``act`` too."""
    g = SocialContentGraph()
    for user in ("me", "ann", "bob"):
        g.add_node(Node(user, type="user", name=f"name-{user}"))
    for item, city in (("i1", "Denver"), ("i2", "Paris"), ("i3", "Denver")):
        g.add_node(Node(item, type="item", name=f"spot {item}",
                        keywords="museum", city=city, category="museum"))
    g.add_node(Node("t", type="topic", keywords="old stones"))
    g.add_node(Node("grp", type="group", name="club"))
    links = [
        ("me", "ann", "connect, friend"), ("me", "bob", "connect, friend"),
        ("ann", "i1", "act, visit"), ("ann", "i2", "act, visit"),
        ("bob", "i2", "act, visit"), ("bob", "i3", "act, visit"),
        ("ann", "grp", "belong, member"),
        # an item endorsing items: i1 → i2 (act, belong), i3 → i1 (act)
        ("i1", "i2", "act, belong"), ("i3", "i1", "act, visit"),
        # the user's friendship onto an endorsing result item
        ("me", "i3", "connect, act"),
        ("i1", "t", "belong"), ("i2", "t", "belong"),
    ]
    for index, (src, tgt, kind) in enumerate(links):
        g.add_link(Link(f"l{index}", src, tgt, type=kind, prob=0.5))
    return g


def test_links_the_cut_kept_by_its_other_rules_stay_taggers():
    session = Session.from_graph(kept_links_site())
    seen = set()
    for strategy in STRATEGIES:
        request = SearchRequest(user_id="me", text="museum",
                                strategy=strategy, k=3)
        view, cut = view_and_cut(session, request)
        assert_view_equals_cut(view, cut)
        seen |= {(src, item) for item in view.item_ids
                 for src in view.taggers_of(item)}
    # the hand-made links really were exercised as taggers
    assert ("i1", "i2") in seen and ("me", "i3") in seen


def test_a_zoomed_sub_msg_keeps_the_parent_taggers():
    session = Session.from_graph(build_travel_site(
        TravelSiteConfig(seed=42)).graph)
    request = SearchRequest(user_id=JOHN, text="Denver attractions", k=12)
    presenter = session.explore(request)
    parent = presenter.current.msg
    zoomed = 0
    for group in presenter.groups:
        if group.size < 2:
            continue
        zoomed += 1
        frame = presenter.zoom_in(group.label)
        sub = frame.msg
        assert sub.item_ids == [i for i in parent.item_ids
                                if i in set(group.items)]
        for item in sub.item_ids:
            assert sub.taggers_of(item) == parent.taggers_of(item) == \
                oracle.taggers_of(sub, item)
        assert sub.graph is parent.graph  # one cut, shared
        restricted = restrict_msg(sub, sub.item_ids[:1])
        assert restricted.taggers_of(sub.item_ids[0]) == \
            parent.taggers_of(sub.item_ids[0])
        presenter.zoom_out()
    assert zoomed


def test_an_msg_is_freed_without_the_cycle_collector():
    """An MSG holds the served graph it is a view of: a reference cycle
    through it would keep every replaced graph alive until a full
    collection, which under writes is memory the site pays for."""
    session = Session.from_graph(build_travel_site(
        TravelSiteConfig(seed=42)).graph)
    request = SearchRequest(user_id=JOHN, text="Denver attractions", k=12)
    gc.collect()
    gc.disable()
    try:
        msg = session.discover(request)
        sub = restrict_msg(msg, msg.item_ids[:3])
        sub.graph  # the parent's cut, read through the sub-MSG
        gone = weakref.ref(msg), weakref.ref(sub)
        del msg, sub
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


class TestTheCutIsLazy:
    @pytest.fixture()
    def cuts(self, monkeypatch):
        calls = []
        real = MeaningfulSocialGraph._cut

        def counted(msg):
            calls.append(msg)
            return real(msg)

        monkeypatch.setattr(MeaningfulSocialGraph, "_cut", counted)
        return calls

    def test_a_warm_request_stream_cuts_nothing(self, cuts):
        session = Session.from_graph(build_travel_site(
            TravelSiteConfig(seed=42)).graph)
        stream = requests((JOHN, SELMA, ALEXIA), ("Denver attractions", ""))
        for _ in range(2):
            for request in stream:
                session.run(request)
        assert cuts == []

    def test_a_discovered_graph_is_cut_once(self, cuts):
        session = Session.from_graph(build_travel_site(
            TravelSiteConfig(seed=42)).graph)
        msg = session.discover(SearchRequest(user_id=JOHN, text="Denver"))
        assert cuts == []
        first = msg.graph
        assert msg.graph is first
        assert len(cuts) == 1
        assert first.has_node(JOHN)
        assert first.node(msg.item_ids[0]).value("score") is not None
