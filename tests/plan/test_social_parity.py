"""Differential parity: the compiled social stage vs. the legacy strategies.

The correctness net under the social-stage compiler: hypothesis-driven
property tests hold the compiled plans (logical evaluation, the lowered
physical forms, and the §6.2 network-index access paths) equal — within
1e-9 — to the hand-executed reference implementations in
``tests/oracle`` across randomized workload graphs, all three
strategies, and the degenerate regimes (empty neighborhoods, null
graphs, absent users) where relevance reproductions drift silently.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from factories import social_site_graph
from repro.core import Link, Node, SocialContentGraph, input_graph
from repro.core.expr import ConnectionBasisE, SocialScoreE
from repro.core.social import decode_social_result
from repro.discovery import InformationDiscoverer, parse_query
from repro.plan import CostModel, QueryPlanner, explain_execution

TOL = 1e-9

USER_POOL = [f"u{i}" for i in range(7)]
ITEM_POOL = [f"i{i}" for i in range(8)]
VOCAB = ("topic0", "topic1", "topic2", "offkey")


# ---------------------------------------------------------------------------
# Random workload graphs
# ---------------------------------------------------------------------------


@st.composite
def social_workloads(draw):
    """A random social site plus a query (user, keywords).

    Regimes covered by construction: users without friends, friends
    without activities, missing ``sim_item`` feeds, empty keyword sets,
    keywords matching nothing, and (occasionally) a querying user with no
    node at all beyond its links.
    """
    g = SocialContentGraph()
    n_users = draw(st.integers(min_value=1, max_value=len(USER_POOL)))
    users = USER_POOL[:n_users]
    for u in users:
        g.add_node(Node(u, type="user", name=f"user {u}"))
    n_items = draw(st.integers(min_value=0, max_value=len(ITEM_POOL)))
    items = ITEM_POOL[:n_items]
    for index, item in enumerate(items):
        g.add_node(Node(
            item, type="item", name=f"item {item}",
            keywords=draw(st.sampled_from(VOCAB)),
            category=VOCAB[index % 3],
        ))
    link_id = 0
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        src, tgt = draw(st.sampled_from(users)), draw(st.sampled_from(users))
        g.add_link(Link(f"c{link_id}", src, tgt, type="connect, friend"))
        link_id += 1
    if items:
        for _ in range(draw(st.integers(min_value=0, max_value=14))):
            src = draw(st.sampled_from(users))
            tgt = draw(st.sampled_from(items))
            attrs = {"type": "act, visit"}
            if draw(st.booleans()):
                attrs["tags"] = draw(st.sampled_from(VOCAB))
            g.add_link(Link(f"a{link_id}", src, tgt, **attrs))
            link_id += 1
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            src = draw(st.sampled_from(items))
            tgt = draw(st.sampled_from(items))
            if src == tgt:
                continue
            g.add_link(Link(
                f"s{link_id}", src, tgt, type="sim_item",
                sim=draw(st.floats(min_value=0.05, max_value=1.0,
                                   allow_nan=False)),
            ))
            link_id += 1
    user = draw(st.sampled_from(users))
    keywords = tuple(draw(st.lists(st.sampled_from(VOCAB), max_size=2)))
    return g, user, keywords


# ---------------------------------------------------------------------------
# The legacy reference (exactly the seed-era control flow)
# ---------------------------------------------------------------------------


def legacy_social(graph, user, keywords, strategy_name):
    """Reference scores: connection selection + scorer + Selma fallback."""
    selection = oracle.select_connections(graph, user, keywords)
    score = oracle.SCORERS[strategy_name]
    candidates = {n.id for n in graph.nodes_of_type("item")}
    social = score(graph, user, candidates, selection)
    fallback = selection.used_expert_fallback
    if (
        not social.scores
        and score is oracle.score_friends
        and not fallback
    ):
        fallback = True
        selection.used_expert_fallback = True
        selection.experts = oracle.find_experts(
            graph, set(keywords), exclude={user}
        )
        social = score(graph, user, candidates, selection)
    return social, fallback


def compiled_social(graph, user, keywords, strategy_name, planner=None,
                    access="auto"):
    """Compiled scores: the SocialScoreE stage, logical or physical."""
    G = input_graph("G")
    candidates = G.select_nodes({"type": "item"})
    basis = ConnectionBasisE(G, user_id=user, keywords=keywords)
    social = SocialScoreE(
        G, candidates, basis,
        strategy=strategy_name, user_id=user, keywords=keywords,
        sim_threshold=0.1, act_type="visit",
    )
    if planner is None:
        result = social.evaluate({"G": graph})
    else:
        result = planner.execute(social, access=access).result
    return decode_social_result(result)


def assert_scores_match(reference, fallback, decoded):
    assert set(decoded.scores) == set(reference.scores)
    for item, score in reference.scores.items():
        assert decoded.scores[item] == pytest.approx(score, abs=TOL)
    assert set(decoded.endorsers) == set(reference.endorsers)
    for item, per_user in reference.endorsers.items():
        assert set(decoded.endorsers[item]) == set(per_user)
        for u, w in per_user.items():
            assert decoded.endorsers[item][u] == pytest.approx(w, abs=TOL)
    assert set(decoded.supporting_items) == set(reference.supporting_items)
    for item, per_item in reference.supporting_items.items():
        for s, w in per_item.items():
            assert decoded.supporting_items[item][s] == pytest.approx(
                w, abs=TOL
            )
    assert decoded.used_expert_fallback == fallback


# ---------------------------------------------------------------------------
# Properties: one per strategy, logical and physical
# ---------------------------------------------------------------------------


class TestStrategyParity:
    @settings(max_examples=60, deadline=None)
    @given(social_workloads())
    def test_friend_based(self, workload):
        graph, user, keywords = workload
        reference, fallback = legacy_social(graph, user, keywords, "friends")
        decoded = compiled_social(graph, user, keywords, "friends")
        assert_scores_match(reference, fallback, decoded)

    @settings(max_examples=45, deadline=None)
    @given(social_workloads())
    def test_similar_users(self, workload):
        graph, user, keywords = workload
        reference, fallback = legacy_social(
            graph, user, keywords, "similar_users"
        )
        decoded = compiled_social(graph, user, keywords, "similar_users")
        assert_scores_match(reference, fallback, decoded)

    @settings(max_examples=45, deadline=None)
    @given(social_workloads())
    def test_item_based(self, workload):
        graph, user, keywords = workload
        reference, fallback = legacy_social(
            graph, user, keywords, "item_based"
        )
        decoded = compiled_social(graph, user, keywords, "item_based")
        assert_scores_match(reference, fallback, decoded)


class TestPhysicalPathParity:
    """Every lowered form — probe, exact index, clustered index — agrees."""

    @settings(max_examples=30, deadline=None)
    @given(social_workloads())
    def test_network_index_paths_match_the_probe(self, workload):
        graph, user, _keywords = workload
        keywords = ()  # the uniform-weight regime the index paths serve
        reference, fallback = legacy_social(graph, user, keywords, "friends")
        exact = compiled_social(
            graph, user, keywords, "friends",
            planner=QueryPlanner(graph), access="index",
        )
        clustered = compiled_social(
            graph, user, keywords, "friends",
            planner=QueryPlanner(
                graph, cost_model=CostModel(network_entry_budget=0.0)
            ),
            access="index",
        )
        assert_scores_match(reference, fallback, exact)
        assert_scores_match(reference, fallback, clustered)

    @settings(max_examples=25, deadline=None)
    @given(social_workloads(), st.sampled_from(
        ["friends", "similar_users", "item_based"]
    ))
    def test_compiled_pipeline_matches_legacy_rank(self, workload, strategy):
        graph, user, keywords = workload
        discoverer = InformationDiscoverer(graph)
        query = parse_query(user, " ".join(keywords))
        compiled = discoverer.rank(query, strategy=strategy)
        legacy = oracle.rank_reference(graph, query, strategy)
        assert [s.item_id for s in compiled.items] == [
            s.item_id for s in legacy.items
        ]
        for got, want in zip(compiled.items, legacy.items):
            assert got.combined == pytest.approx(want.combined, abs=TOL)
            assert got.semantic == pytest.approx(want.semantic, abs=TOL)
            assert got.social == pytest.approx(want.social, abs=TOL)
        assert compiled.used_expert_fallback == legacy.used_expert_fallback
        for item in {s.item_id for s in legacy.items}:
            assert compiled.social.endorsers.get(item, {}) == pytest.approx(
                legacy.social.endorsers.get(item, {}), abs=TOL
            )


class TestDegenerateRegimes:
    """Deterministic corners: null graphs and empty neighborhoods."""

    def test_null_graph(self):
        g = SocialContentGraph()
        g.add_node(Node("u0", type="user"))
        for strategy in ("friends", "similar_users", "item_based"):
            reference, fallback = legacy_social(g, "u0", (), strategy)
            decoded = compiled_social(g, "u0", (), strategy)
            assert_scores_match(reference, fallback, decoded)
            assert decoded.scores == {}

    def test_totally_empty_graph(self):
        g = SocialContentGraph()
        for strategy in ("friends", "similar_users", "item_based"):
            reference, fallback = legacy_social(g, "u0", ("topic0",), strategy)
            decoded = compiled_social(g, "u0", ("topic0",), strategy)
            assert_scores_match(reference, fallback, decoded)

    def test_friendless_user_triggers_the_expert_fallback(self):
        g = social_site_graph(num_users=4, num_items=4)
        g.add_node(Node("loner", type="user", name="no friends"))
        reference, fallback = legacy_social(g, "loner", ("topic0",), "friends")
        decoded = compiled_social(g, "loner", ("topic0",), "friends")
        assert fallback is True
        assert_scores_match(reference, fallback, decoded)

    def test_friends_without_matching_activities(self):
        g = SocialContentGraph()
        for u in ("u0", "u1"):
            g.add_node(Node(u, type="user"))
        g.add_node(Node("i0", type="item", keywords="topic0"))
        g.add_link(Link("c0", "u0", "u1", type="connect, friend"))
        # u1 never acts: empty-neighborhood endorsements on every path
        for access in ("auto", "index", "scan"):
            decoded = compiled_social(
                g, "u0", (), "friends",
                planner=QueryPlanner(g), access=access,
            )
            reference, fallback = legacy_social(g, "u0", (), "friends")
            assert_scores_match(reference, fallback, decoded)
            assert decoded.used_expert_fallback is True

    def test_auto_resolution_uses_the_configured_cf_parameters(self):
        # A connect-free graph resolves "auto" to similar_users; the
        # compiled stage must score with the *registered* record's
        # parameters, not library defaults — and a subclassed record gets
        # the same one engine, asked by name or resolved by "auto".
        from repro.discovery import DEFAULT_STRATEGIES, SimilarUserStrategy

        class Tuned(SimilarUserStrategy):
            pass

        g = SocialContentGraph()
        for u in ("u0", "u1", "u2"):
            g.add_node(Node(u, type="user"))
        for i in ("i0", "i1", "i2", "i3"):
            g.add_node(Node(i, type="item", keywords="topic0"))
        acts = [("u0", "i0"), ("u0", "i1"), ("u1", "i0"), ("u1", "i1"),
                ("u1", "i2"), ("u2", "i0"), ("u2", "i3")]
        for n, (u, i) in enumerate(acts):
            g.add_link(Link(f"a{n}", u, i, type="act, visit"))
        query = parse_query("u0", "")
        for record in (SimilarUserStrategy, Tuned):
            strategies = dict(DEFAULT_STRATEGIES)
            strategies["similar_users"] = record(sim_threshold=0.5)
            discoverer = InformationDiscoverer(g, strategies=strategies)
            explicit = discoverer.rank(query, strategy="similar_users")
            auto = discoverer.rank(query, strategy="auto")
            assert auto.social.strategy == "similar_users"
            assert [s.item_id for s in auto.items] == [
                s.item_id for s in explicit.items
            ]
            assert auto.social.scores == pytest.approx(
                explicit.social.scores, abs=TOL
            )
            for ranking in (explicit, auto):
                explained = explain_execution(ranking.execution)
                assert explained.resolved_strategy == "similar_users"

    def test_multi_activity_pairs_degrade_the_index_path_safely(self):
        # Two act links (u1 -> i0): per-link probe weights diverge from
        # set-semantics postings, so the index path must fall back.
        g = SocialContentGraph()
        for u in ("u0", "u1"):
            g.add_node(Node(u, type="user"))
        g.add_node(Node("i0", type="item", keywords="topic0"))
        g.add_link(Link("c0", "u0", "u1", type="connect, friend"))
        g.add_link(Link("a0", "u1", "i0", type="act, visit"))
        g.add_link(Link("a1", "u1", "i0", type="act, tag", tags="topic0"))
        reference, fallback = legacy_social(g, "u0", (), "friends")
        assert reference.scores["i0"] == pytest.approx(2.0)
        decoded = compiled_social(
            g, "u0", (), "friends", planner=QueryPlanner(g), access="index"
        )
        assert_scores_match(reference, fallback, decoded)
