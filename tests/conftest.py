"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import faulthandler
import os

import pytest
from hypothesis import strategies as st

import factories
from repro.core import Link, Node, SocialContentGraph


@pytest.fixture
def deadlock_watchdog():
    """Abort a hung thread-storm test with full stacks instead of waiting.

    A lock-order inversion in the caches or the worker pool deadlocks
    silently; CI would then sit at the job timeout with zero diagnostics.
    ``faulthandler.dump_traceback_later`` dumps every thread's traceback
    and kills the process once the budget elapses, so the deadlock's
    participants are visible in the test log.  Budget is generous: it
    only ever fires on an actual hang.
    """
    budget = float(os.environ.get("REPRO_DEADLOCK_BUDGET_S", "120"))
    faulthandler.dump_traceback_later(budget, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


# ---------------------------------------------------------------------------
# Hand-built fixture graphs (builders shared via tests/factories.py)
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_travel_graph() -> SocialContentGraph:
    """The smoke-test graph used throughout the core tests."""
    return factories.tiny_travel_graph()


@pytest.fixture
def paper_minus_graphs() -> tuple[SocialContentGraph, SocialContentGraph]:
    """G1 = {(a,b),(a,c),(b,c)} and G2 = {(a,b)} from the Def 4 example."""
    from repro.core import graph_from_edges

    return (
        graph_from_edges([("a", "b"), ("a", "c"), ("b", "c")]),
        graph_from_edges([("a", "b")]),
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies for random social content graphs
# ---------------------------------------------------------------------------

NODE_TYPES = ["user", "item", "topic", "group"]
LINK_TYPES = ["friend", "visit", "tag", "match", "belong"]

node_ids = st.integers(min_value=0, max_value=29)


@st.composite
def social_graphs(draw, max_nodes: int = 12, max_links: int = 20):
    """A random small social content graph.

    Node ids are drawn from a shared small pool so that two independently
    drawn graphs overlap — essential for exercising the set operators'
    consolidation paths.  Link ids are strings from a small pool for the
    same reason.
    """
    n_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    ids = draw(
        st.lists(node_ids, min_size=n_nodes, max_size=n_nodes, unique=True)
    )
    g = SocialContentGraph()
    for node_id in ids:
        node_type = draw(st.sampled_from(NODE_TYPES))
        rating = draw(st.integers(min_value=0, max_value=5))
        g.add_node(Node(node_id, type=node_type, rating=rating))
    n_links = draw(st.integers(min_value=0, max_value=max_links))
    for i in range(n_links):
        src = draw(st.sampled_from(ids))
        tgt = draw(st.sampled_from(ids))
        link_type = draw(st.sampled_from(LINK_TYPES))
        link_id = f"L{draw(st.integers(min_value=0, max_value=49))}"
        if g.has_link(link_id):
            continue
        weight = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        g.add_link(Link(link_id, src, tgt, type=link_type, weight=round(weight, 3)))
    return g


@st.composite
def overlapping_graph_pairs(draw):
    """Two graphs sharing id space (and agreeing on shared records).

    The set-operator definitions presume "graphs originated from the same
    social content site" — same id ⇒ same entity.  We model that by drawing
    a base graph and two (possibly overlapping) sub-selections of it, so
    shared ids always carry identical records.
    """
    base = draw(social_graphs(max_nodes=12, max_links=24))
    node_list = sorted(base.node_ids(), key=repr)
    link_list = sorted(base.link_ids(), key=repr)

    def subgraph() -> SocialContentGraph:
        keep_nodes = set(draw(st.lists(st.sampled_from(node_list), unique=True))) if node_list else set()
        g = SocialContentGraph()
        for node_id in keep_nodes:
            g.add_node(base.node(node_id))
        if link_list:
            for link_id in draw(st.lists(st.sampled_from(link_list), unique=True)):
                link = base.link(link_id)
                if link.src in keep_nodes and link.tgt in keep_nodes:
                    g.add_link(link)
        return g

    return subgraph(), subgraph()
