"""Whole-response differential: adjacency reads vs the whole-site loops.

``repro.presentation`` explains an item from the item's own endorsers,
``assemble_msg`` cuts the MSG from adjacency and endorser grouping reads
membership per endorser; ``tests/oracle`` keeps the bodies they replaced —
a walk over the population per item, ``base.links()`` per request.  This
suite renders every page both ways on Hypothesis-generated sites and
requires the canonical response form (``benchmarks/e2e/harness``: group
membership and order, supporters and weights, aggregate and group texts,
coverage, top supporters) equal at 1e-9, the supporters' *insertion
order* equal, and the two MSGs' node and link id sets equal.

The generator is built around the cases where walking endorsers instead
of the population can silently differ; each is named where it is drawn.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

import oracle
from benchmarks.e2e.harness import canonical_response, first_difference
from repro.api import SearchRequest, Session, SessionConfig
from repro.core import Link, Node, SocialContentGraph
from repro.presentation import (
    COLLABORATIVE,
    CONTENT_BASED,
    OrganizerConfig,
    explain_collaborative,
    explain_content_based,
    explain_group,
    item_similarity,
    user_similarity,
)

TOL = 1e-9

STRATEGIES = ("friends", "similar_users", "item_based")
DIMENSIONS = (
    None, "social", "topical", "endorser",
    "structural:city", "structural:category",
)
#: missing (→ 1.0), zero (endorses, never supports), fractional, large
RATINGS = (None, 0, 0.5, 1, 3, 5)
SIMS = (0.0, 0.25, 0.8)
BOT = "bot"  # acts and is befriended, but is not ``user``-typed
TOPIC = "topic:0"
GROUPS = ("grp:a", "grp:b")


@st.composite
def sites(draw) -> SocialContentGraph:
    n_users = draw(st.integers(min_value=2, max_value=5))
    n_items = draw(st.integers(min_value=2, max_value=6))
    users = [f"u{i}" for i in range(n_users)]
    items = [f"i{i}" for i in range(n_items)]
    g = SocialContentGraph()
    for user in users:
        g.add_node(Node(user, type="user", name=f"name-{user}"))
    g.add_node(Node(BOT, type="crawler", name="the bot"))
    for index, item in enumerate(items):
        g.add_node(Node(
            item, type="item", name=f"spot {item}", keywords="museum",
            city=draw(st.sampled_from(("Denver", "Paris"))),
            category=draw(st.sampled_from(("zoo", "park", "museum"))),
        ))
    g.add_node(Node(TOPIC, type="topic", keywords="old stones"))
    for group in GROUPS:
        g.add_node(Node(group, type="group", name=f"{group} club"))
    actors = users + [BOT]
    seq = 0

    def link(src, tgt, **attrs) -> None:
        nonlocal seq
        seq += 1
        g.add_link(Link(f"l{seq}", src, tgt, **attrs))

    # connect: to other users, to oneself, to a non-user — or to nobody
    # (a user with no friends gets no "% of your friends" text)
    for user in users:
        for friend in draw(st.lists(st.sampled_from(actors), unique=True,
                                    max_size=len(actors))):
            link(user, friend, type="connect, friend")
    # act: from users and from the non-user (counts for friends, not for
    # everyone); up to two parallel links per pair with different ratings
    for actor in actors:
        for item in draw(st.lists(st.sampled_from(items), unique=True,
                                  max_size=n_items)):
            for rating in draw(st.lists(st.sampled_from(RATINGS),
                                        min_size=1, max_size=2)):
                attrs = {} if rating is None else {"rating": rating}
                link(actor, item, type="act, rate", **attrs)
    # sim_user / sim_item: present for some ordered pairs, absent (Jaccard
    # fallback) for the rest; 0.0 is present-and-zero, not absent
    for a, b in draw(st.lists(st.tuples(st.sampled_from(actors),
                                        st.sampled_from(actors)),
                              unique=True, max_size=6)):
        link(a, b, type="sim_user", sim=draw(st.sampled_from(SIMS)))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(items),
                                        st.sampled_from(items)),
                              unique=True, max_size=6)):
        link(a, b, type="sim_item", sim=draw(st.sampled_from(SIMS)))
    # member: onto groups, and onto a non-group (must not count)
    for actor in actors:
        for group in draw(st.lists(st.sampled_from(GROUPS + (TOPIC,)),
                                   unique=True, max_size=3)):
            link(actor, group, type="belong, member")
    # belong: item → topic, at most one link per item
    for item in draw(st.lists(st.sampled_from(items), unique=True,
                              max_size=n_items)):
        link(item, TOPIC, type="belong",
             prob=draw(st.sampled_from((0.2, 0.9))))
    # one link typed both act and belong: user → item, and item → item
    if draw(st.booleans()):
        link(draw(st.sampled_from(users)), draw(st.sampled_from(items)),
             type="act, belong")
    if draw(st.booleans()):
        link(draw(st.sampled_from(items)), draw(st.sampled_from(items)),
             type="act, belong")
    return g


def _explanation_form(explanation) -> tuple:
    # a list, not a sorted one: insertion order is part of the contract
    return (
        explanation.item_id, explanation.kind,
        list(explanation.supporters.items()), explanation.aggregate_text,
    )


def _group_form(group) -> tuple:
    return (group.label, group.top_supporters, group.coverage, group.text)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sites())
def test_functions_match_the_population_walk(graph):
    users = [n.id for n in graph.nodes() if n.has_type("user")] + [BOT]
    items = [n.id for n in graph.nodes() if n.has_type("item")]
    for a in users:
        for b in users:
            assert user_similarity(graph, a, b) == \
                oracle.user_similarity(graph, a, b)
    for a in items:
        for b in items:
            assert item_similarity(graph, a, b) == \
                oracle.item_similarity(graph, a, b)
    for user in users:
        for item in items:
            for friends_only in (True, False):
                new = explain_collaborative(graph, user, item, friends_only)
                old = oracle.explain_collaborative(
                    graph, user, item, friends_only
                )
                assert _explanation_form(new) == _explanation_form(old)
                assert list(new.supporters) == \
                    sorted(new.supporters, key=repr)
            # includes items the user already visited: they are skipped
            # as supporters but stay in the percentage's denominator
            new = explain_content_based(graph, user, item)
            old = oracle.explain_content_based(graph, user, item)
            assert _explanation_form(new) == _explanation_form(old)
        for kind in (COLLABORATIVE, CONTENT_BASED):
            new = explain_group(graph, user, "all", items, kind=kind)
            old = oracle.explain_group(graph, user, "all", items, kind=kind)
            assert _group_form(new) == _group_form(old)


def _reference_response(session, request, response):
    """*response* with its page re-rendered by the reference path."""
    ev = session._evaluate(request)
    msg = oracle.assemble_msg(
        session.graph, ev.query, ev.window, ev.ranking.social,
        ev.ranking.used_expert_fallback,
    )
    explicit = request.k is not None or request.page_size is not None
    page = oracle.organize_reference(
        session.graph, msg, session.config.organizer,
        dimension=request.grouping,
        flat_k=ev.size if explicit else None,
    )
    return dataclasses.replace(response, page=page), msg


def _supporter_orders(response) -> list:
    return [
        [list(entry.explanation.supporters) for entry in group.entries]
        for group in response.page.groups
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sites(), st.sampled_from((COLLABORATIVE, CONTENT_BASED)))
def test_whole_response_matches_the_reference_page(graph, kind):
    session = Session.from_graph(graph, SessionConfig(
        organizer=OrganizerConfig(explanation_kind=kind),
    ))
    for user in ("u0", "u1"):
        for strategy in STRATEGIES:
            for dimension in DIMENSIONS:  # None = the §7.1 choice
                request = SearchRequest(
                    user_id=user, text="", strategy=strategy,
                    grouping=dimension, k=4,
                )
                new = session.run(request)
                old, old_msg = _reference_response(session, request, new)
                where = (user, strategy, dimension, kind)
                difference = first_difference(
                    canonical_response(new), canonical_response(old), TOL
                )
                assert difference is None, (where, difference)
                assert _supporter_orders(new) == _supporter_orders(old), where
                new_msg = session.discover(request)
                assert new_msg.graph.node_ids() == old_msg.graph.node_ids()
                assert new_msg.graph.link_ids() == old_msg.graph.link_ids()
