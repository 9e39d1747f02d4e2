"""A links-only write keeps every connection basis it left true.

The sub-plan memo holds each requester's connection basis under
``("basis", user, plan key)``.  After a links-only step the planner
carries the entries :func:`repro.core.social.basis_keeper` says the step
cannot have changed (``ResultMemo.carried(keep)``), and drops the rest.
The differential below writes random link-only steps — ``act`` and
``connect`` links, added and deleted, by the requester, a friend or a
stranger — and holds every carried entry equal to a fresh
``connection_basis`` on the new graph, member fits and the meta node
included.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

import factories
from repro.core import Link
from repro.core.social import basis_keeper, connection_basis
from repro.plan.cache import ResultMemo

#: query-term sets: none (friends, fit 1), partly matching, and one that
#: no friend fits (the expert fallback)
KEYWORDS = ((), ("topic0",), ("topic1", "thing"), ("nomatch",))


@st.composite
def link_steps(draw):
    graph = factories.social_site_graph(
        num_users=draw(st.integers(min_value=2, max_value=7)),
        num_items=draw(st.integers(min_value=1, max_value=8)),
        friends_per_user=draw(st.integers(min_value=0, max_value=3)),
        acts_per_user=draw(st.integers(min_value=0, max_value=3)),
        with_sim_links=draw(st.booleans()),
    )
    writes = draw(st.lists(
        st.tuples(
            st.sampled_from(("act", "connect", "delete")),
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=1, max_size=4,
    ))
    return graph, writes


def apply(manager, writes) -> None:
    """Link-only writes through *manager*, actors drawn from every user."""
    users = sorted(n.id for n in manager.store.nodes_of_type("user"))
    items = sorted(n.id for n in manager.store.nodes_of_type("item"))
    for serial, (kind, a, b) in enumerate(writes):
        links = sorted(l.id for l in manager.store.snapshot().links())
        if kind == "delete":
            if links:
                manager.delete_link(links[a % len(links)])
            continue
        targets = items if kind == "act" else users
        manager.add_link(Link(
            f"w{serial}", users[a % len(users)], targets[b % len(targets)],
            type=f"{kind}, step", tags="topic0",
        ))


@settings(max_examples=150, deadline=None)
@given(link_steps())
def test_every_carried_basis_equals_a_fresh_one(workload):
    site, writes = workload
    manager, graph = factories.served(site)
    memo = ResultMemo()
    users = sorted(n.id for n in graph.nodes_of_type("user"))
    for user in users:
        for keywords in KEYWORDS:
            memo[("basis", user, keywords)] = connection_basis(
                graph, user, keywords
            )
    version = manager.version
    apply(manager, writes)
    delta = manager.changes_since(version)
    assert delta.links_only
    new = manager.graph()

    keep = basis_keeper(new, delta)
    carried = memo.carried(lambda key, basis: keep(key[1], basis))
    event(f"kept {len(carried) * 4 // len(memo)}/4 of the bases")
    for user in users:
        for keywords in KEYWORDS:
            kept = carried.get(("basis", user, keywords))
            if kept is not None:
                assert kept.same_as(connection_basis(new, user, keywords)), \
                    (user, keywords)


class TestWhatAStepKeeps:
    """The rule's cases one by one, so the differential is not vacuous."""

    def setup_method(self):
        # u0 follows u1 and u2; u3 and u4 are strangers to u0
        self.manager, self.graph = factories.served(
            factories.social_site_graph(num_users=5, num_items=6)
        )

    def keeps(self, user, keywords, *links) -> bool:
        version = self.manager.version
        for link in links:
            self.manager.add_link(link)
        keep = basis_keeper(
            self.manager.graph(), self.manager.changes_since(version)
        )
        return keep(user, connection_basis(self.graph, user, keywords))

    def test_a_strangers_vote_keeps_a_friends_basis(self):
        assert self.keeps("u0", (), Link("x", "u3", "i5", type="act"))

    def test_a_friends_vote_drops_a_friends_basis(self):
        assert not self.keeps("u0", (), Link("x", "u1", "i5", type="act"))

    def test_the_requesters_own_link_drops_any_basis(self):
        assert not self.keeps("u0", (), Link("x", "u0", "u4",
                                              type="connect"))
        assert not self.keeps("u0", ("nomatch",),
                              Link("y", "u0", "u4", type="connect"))

    def test_any_vote_drops_an_experts_basis(self):
        basis = connection_basis(self.graph, "u0", ("nomatch",))
        assert basis.node("__social_meta__").value("basis_kind") == "experts"
        assert not self.keeps("u0", ("nomatch",),
                              Link("x", "u4", "i5", type="act"))

    def test_a_strangers_friendship_keeps_an_experts_basis(self):
        assert self.keeps("u0", ("nomatch",),
                          Link("x", "u3", "u4", type="connect"))
