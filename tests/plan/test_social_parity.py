"""Differential parity: the compiled social stage vs. the legacy strategies.

The correctness net under the social-stage compiler: hypothesis-driven
property tests hold the compiled plans (logical evaluation and the
lowered physical forms under every access mode) equal — within 1e-9 —
to the hand-executed reference implementations in
``tests/oracle`` across randomized workload graphs, all three
strategies, and the degenerate regimes (empty neighborhoods, null
graphs, absent users) where relevance reproductions drift silently.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracle
import repro.core.social
from factories import social_site_graph
from oracle import decode_social_result
from repro.api import SearchRequest, Session
from repro.core import Link, Node, SocialContentGraph, input_graph
from repro.core.activity import ActivityRelation
from repro.core.expr import CombineScoresE, ConnectionBasisE, SocialScoreE
from repro.core.social import (
    COMPILED_STRATEGIES,
    SemanticOrder,
    _similar_user_scores,
)
from repro.discovery import InformationDiscoverer, parse_query
from repro.plan import (
    COLUMNAR,
    CostModel,
    FusedSocialCombineOp,
    QueryPlanner,
    ScanOp,
    explain_execution,
)

TOL = 1e-9

USER_POOL = [f"u{i}" for i in range(7)]
ITEM_POOL = [f"i{i}" for i in range(8)]
VOCAB = ("topic0", "topic1", "topic2", "offkey")

#: An actor that is not ``user``-typed and an act target that is not
#: ``item``-typed: Example 5's step 3 admits any node as a co-actor and
#: its Jaccard sets hold any target, but only ``item`` nodes are scored.
BOT, PLACE = "b0", "p0"
#: A requester id with no node in the graph.
GHOST = "ghost"
#: Activity link typings: both names, either alone, and a third beside.
ACT_TYPINGS = ("act, visit", "act, visit", "act", "visit", "act, tag")
#: Candidate selections: every item, or a slice that leaves out items the
#: co-actors acted on.
CANDIDATE_CONDITIONS = (
    {"type": "item"},
    {"type": "item", "category": "topic0"},
)

CF_THRESHOLDS = (0.0, 0.1, 0.5, 1.0)
CF_ACT_TYPES = ("visit", "act")


# ---------------------------------------------------------------------------
# Random workload graphs
# ---------------------------------------------------------------------------


@st.composite
def social_workloads(draw):
    """A random social site plus a query (user, keywords).

    Regimes covered by construction: users without friends, friends
    without activities, missing ``sim_item`` feeds, empty keyword sets,
    keywords matching nothing, a requester who never acted, a requester
    id absent from the graph, items only the requester acted on, parallel
    activity links from one actor onto one target, an actor that is not
    ``user``-typed, an activity target that is not ``item``-typed, and
    activity links typed ``act``, ``visit`` or both.
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
    actors, targets = list(users), list(items)
    if draw(st.booleans()):
        g.add_node(Node(BOT, type="bot", name="a crawler"))
        actors.append(BOT)
    if draw(st.booleans()):
        g.add_node(Node(PLACE, type="place", name="a place",
                        keywords="topic0"))
        targets.append(PLACE)
    if targets:
        acts: list[tuple[str, str]] = []
        for _ in range(draw(st.integers(min_value=0, max_value=20))):
            if acts and draw(st.integers(min_value=0, max_value=4)) == 0:
                src, tgt = draw(st.sampled_from(acts))  # a parallel link
            else:
                src = draw(st.sampled_from(actors))
                tgt = draw(st.sampled_from(targets))
            acts.append((src, tgt))
            attrs = {"type": draw(st.sampled_from(ACT_TYPINGS))}
            if draw(st.booleans()):
                attrs["tags"] = draw(st.sampled_from(VOCAB))
            g.add_link(Link(f"a{link_id}", src, tgt, **attrs))
            link_id += 1
    if items:
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
    user = draw(st.sampled_from(users * 3 + [GHOST]))
    keywords = tuple(draw(st.lists(st.sampled_from(VOCAB), max_size=2)))
    return g, user, keywords


# ---------------------------------------------------------------------------
# The legacy reference (exactly the seed-era control flow)
# ---------------------------------------------------------------------------


def legacy_social(graph, user, keywords, strategy_name,
                  candidates=CANDIDATE_CONDITIONS[0], **params):
    """Reference scores: connection selection + scorer + Selma fallback.

    *params* are the scorer's own (``sim_threshold`` / ``act_type`` of
    ``score_similar_users``); its defaults are the compiled stage's.
    """
    selection = oracle.select_connections(graph, user, keywords)
    score = oracle.SCORERS[strategy_name]
    candidates = {
        n.id for n in input_graph("G").select_nodes(candidates)
        .evaluate({"G": graph}).nodes()
    }
    social = score(graph, user, candidates, selection, **params)
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


def social_stage(user, keywords, strategy_name,
                 candidates=CANDIDATE_CONDITIONS[0],
                 sim_threshold=0.1, act_type="visit", fused=False):
    """The SocialScoreE stage alone, or under the α-combination that the
    compiler fuses it into (``drop_zero`` off, so every scored item and
    its provenance survive to be compared)."""
    G = input_graph("G")
    selected = G.select_nodes(candidates)
    basis = ConnectionBasisE(G, user_id=user, keywords=keywords)
    social = SocialScoreE(
        G, selected, basis,
        strategy=strategy_name, user_id=user, keywords=keywords,
        sim_threshold=sim_threshold, act_type=act_type,
    )
    if fused:
        return CombineScoresE(selected, social, alpha=0.5, drop_zero=False)
    return social


def compiled_social(graph, user, keywords, strategy_name, planner=None,
                    access="auto", **stage):
    """Compiled scores: the SocialScoreE stage, logical or physical."""
    expr = social_stage(user, keywords, strategy_name, **stage)
    if planner is None:
        result = expr.evaluate({"G": graph})
    else:
        result = planner.execute(expr, access=access).result
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
    """Friend endorsement has one form, the probe, under every access
    mode; the compiled pipeline ranks as the oracle does."""

    @settings(max_examples=30, deadline=None)
    @given(social_workloads())
    def test_network_index_paths_match_the_probe(self, workload):
        graph, user, _keywords = workload
        keywords = ()  # the empty-keyword regime §6.2's lists covered
        reference, fallback = legacy_social(graph, user, keywords, "friends")
        planner = QueryPlanner(graph)
        for access in ("auto", "index", "scan"):
            execution = planner.execute(
                social_stage(user, keywords, "friends"), access=access
            )
            assert type(execution.plan.root) is ScanOp
            assert execution.plan.resolved_strategy == "friends"
            assert_scores_match(reference, fallback,
                                decode_social_result(execution.result))

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
        # Two act links (u1 -> i0): the probe weighs each link, so i0
        # scores 2 — what set-semantics postings could not answer.
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
        query = parse_query("u0", "")
        for access in ("auto", "index", "scan"):
            ranked = InformationDiscoverer(g).rank(query, access=access)
            want = oracle.rank_reference(g, query, "friends")
            assert [(s.item_id, s.combined) for s in ranked.items] == \
                pytest.approx([(s.item_id, s.combined) for s in want.items])
            assert ranked.social.endorsers == want.social.endorsers


# ---------------------------------------------------------------------------
# The similar_users kernel: a neighbourhood probe held to Example 5's recipe
# ---------------------------------------------------------------------------


#: the candidate scan's two physical forms: the row scan and the
#: columnar scan, chosen by the population threshold
SCAN_FORMS = {"rows": float("inf"), "columnar": 0.0}


def cf_planner(graph, scan):
    return QueryPlanner(
        graph, cost_model=CostModel(columnar_scan_min_nodes=SCAN_FORMS[scan])
    )


def cf_corner_graph():
    """u0 asks; u1 (a user) and b0 (a bot) share targets with u0.

    mine = {i0, i1, p0}; u1 acted on {i0 (twice), i2, p0} → 2/4 = 0.5;
    b0 acted on {i0, i3} → 1/4 = 0.25; u2 acted on {i4} only → no overlap.
    """
    g = SocialContentGraph()
    for u in ("u0", "u1", "u2"):
        g.add_node(Node(u, type="user"))
    g.add_node(Node(BOT, type="bot"))
    g.add_node(Node(PLACE, type="place"))
    for index in range(5):
        g.add_node(Node(f"i{index}", type="item",
                        category="topic0" if index != 2 else "topic1"))
    acts = [
        ("u0", "i0", "act, visit"), ("u0", "i1", "act, visit"),
        ("u0", PLACE, "act, visit"),
        ("u1", "i0", "act, visit"), ("u1", "i0", "visit"),
        ("u1", "i2", "act, visit"), ("u1", PLACE, "act, visit"),
        (BOT, "i0", "act, visit"), (BOT, "i3", "visit"),
        ("u2", "i4", "act, visit"),
    ]
    for n, (src, tgt, types) in enumerate(acts):
        g.add_link(Link(f"a{n}", src, tgt, type=types))
    return g


class TestSimilarUsersKernel:
    """``_similar_user_scores`` walks the requester's neighbourhood;
    ``oracle.score_similar_users`` interprets the nine-step recipe over
    the whole graph.  Scores, endorser sets and weights agree at 1e-9
    whatever the parameters and whichever physical form runs the kernel.
    """

    @settings(max_examples=30, deadline=None)
    @given(social_workloads(), st.sampled_from(CANDIDATE_CONDITIONS))
    def test_matches_the_recipe_in_every_form(self, workload, candidates):
        graph, user, keywords = workload
        planners = {scan: cf_planner(graph, scan) for scan in SCAN_FORMS}
        for threshold in CF_THRESHOLDS:
            for act_type in CF_ACT_TYPES:
                stage = dict(candidates=candidates, sim_threshold=threshold,
                             act_type=act_type)
                reference, fallback = legacy_social(
                    graph, user, keywords, "similar_users", **stage
                )
                for scan, planner in planners.items():
                    for fused in (False, True):
                        execution = planner.execute(social_stage(
                            user, keywords, "similar_users", fused=fused,
                            **stage,
                        ))
                        assert type(execution.plan.root) is (
                            FusedSocialCombineOp if fused else ScanOp
                        )
                        assert (scan == "columnar") == any(
                            op.access_path == COLUMNAR for op in
                            execution.plan._walk(execution.plan.root, set())
                        )
                        # the root hands its values over; the standalone
                        # stage answers with the graph encoding them
                        assert (execution.payload is None) is not fused
                        assert_scores_match(
                            reference, fallback,
                            execution.payload if fused
                            else decode_social_result(execution.result),
                        )

    def test_hand_computed_corners(self):
        g = cf_corner_graph()
        everything = {n.id for n in g.nodes()}
        scores, endorsers = _similar_user_scores(
            g, everything, "u0", 0.1, "visit"
        )
        # i0: u1's two parallel links and b0's one weigh the average per
        # link; i1 (only the requester acted on it) and p0 (not an item,
        # though it sits in both Jaccard sets) are never scored; the
        # requester's own i0 is
        assert scores == pytest.approx(
            {"i0": (0.5 + 0.5 + 0.25) / 3, "i2": 0.5, "i3": 0.25}, abs=TOL
        )
        # ...and u1 endorses i0 once; the bot is an endorser like any node
        assert endorsers == {"i0": {BOT: 0.25, "u1": 0.5}, "i2": {"u1": 0.5},
                             "i3": {BOT: 0.25}}
        # a link typed only ``visit`` is no ``act`` activity: b0 -> i3 and
        # u1's second i0 link drop out, and b0's set shrinks to {i0}
        scores, endorsers = _similar_user_scores(
            g, everything, "u0", 0.1, "act"
        )
        assert scores == pytest.approx(
            {"i0": (0.5 + 1 / 3) / 2, "i2": 0.5}, abs=TOL
        )
        # the threshold is strict, and candidates bound what is scored
        assert _similar_user_scores(g, everything, "u0", 0.5, "visit") \
            == ({}, {})
        scores, endorsers = _similar_user_scores(
            g, {"i0", "i3"}, "u0", 0.25, "visit"
        )
        assert scores == pytest.approx({"i0": 0.5}, abs=TOL)
        assert endorsers == {"i0": {"u1": 0.5}}
        # no activity, and no node at all: nothing, and no error
        assert _similar_user_scores(g, everything, "u2", 0.0, "tag") \
            == ({}, {})
        assert _similar_user_scores(g, everything, GHOST, 0.0, "visit") \
            == ({}, {})
        for threshold in CF_THRESHOLDS:
            for act_type in CF_ACT_TYPES:
                reference = oracle.score_similar_users(
                    g, "u0", everything, None, threshold, act_type
                )
                scores, endorsers = _similar_user_scores(
                    g, everything, "u0", threshold, act_type
                )
                assert scores == pytest.approx(reference.scores, abs=TOL)
                assert endorsers.keys() == reference.endorsers.keys()
                for item, per_user in reference.endorsers.items():
                    assert endorsers[item] == pytest.approx(per_user, abs=TOL)

    def test_endorser_order_is_repr_order(self):
        """Who reads the endorser dicts' *insertion* order: nobody whose
        output a caller sees.  ``assemble_msg`` and
        ``endorser_group_grouping`` pour them into sets, explanations
        take supporters from ``ActivityProjection`` (repr order), the
        e2e canonical form sorts weights, and ``fused_social_combine`` /
        ``encode_social_result`` only copy the order into the result
        graph's ``endorse`` links.  The old order followed
        ``graph.links()``; adjacency is a set of link ids, so the kernel
        visits co-actors in repr order instead — the float sums and the
        dicts are then the same in every process.  Pinned here.
        """
        g = social_site_graph(num_users=12, num_items=6, acts_per_user=4)
        everything = {n.id for n in g.nodes()}
        scores, endorsers = _similar_user_scores(
            g, everything, "u3", 0.0, "visit"
        )
        assert len(max(endorsers.values(), key=len)) > 2
        for per_user in endorsers.values():
            assert list(per_user) == sorted(per_user, key=repr)


# ---------------------------------------------------------------------------
# The stage's cost follows the requester's neighbourhood, not the site
# ---------------------------------------------------------------------------

SITE_PASSES = ("links", "nodes", "nodes_of_type", "links_of_type")
ADJACENCY_READS = ("out_links", "in_links")

#: A deep page, a keyword + structural scan and a recommendation — the
#: three request kinds of the e2e ``catalog_deep`` stream.
CF_REQUESTS = (
    SearchRequest(user_id="u1", text="topic0", strategy="similar_users",
                  page_size=2, page=2),
    SearchRequest(user_id="u1", text="topic1", strategy="similar_users",
                  k=10, structural={"type": "item", "category": "topic1"}),
    SearchRequest(user_id="u1", text="", strategy="similar_users", k=10),
)


def cf_site(crowd=0):
    """Six users over twelve items, plus *crowd* users who act only on
    *crowd* items of their own — site the requester never touches."""
    g = SocialContentGraph()
    for u in range(6):
        g.add_node(Node(f"u{u}", type="user", name=f"user {u}"))
    for i in range(12):
        g.add_node(Node(f"i{i}", type="item", name=f"item {i}",
                        category=f"topic{i % 3}", keywords=f"topic{i % 3}"))
    for c in range(crowd):
        g.add_node(Node(f"c{c}", type="user", name=f"crowd {c}"))
        g.add_node(Node(f"x{c}", type="item", name=f"far {c}",
                        category="far", keywords="far away"))
    acts = [(f"u{u}", f"i{(u + step) % 12}")
            for u in range(6) for step in range(4)]
    acts += [(f"c{c}", f"x{(c + step) % crowd}")
             for c in range(crowd) for step in range(3)]
    for n, (src, tgt) in enumerate(acts):
        g.add_link(Link(f"a{n}", src, tgt, type="act, visit"))
    return g


class KernelProbe:
    """Counts the graph reads made while ``_similar_user_scores`` runs,
    on any graph, and keeps what it returned."""

    def __init__(self, monkeypatch):
        self.reads: Counter = Counter()
        self.results: list = []
        self._inside = False
        kernel = repro.core.social._similar_user_scores

        def probed_kernel(*args):
            self._inside = True
            try:
                self.results.append(kernel(*args))
            finally:
                self._inside = False
            return self.results[-1]

        monkeypatch.setattr(
            repro.core.social, "_similar_user_scores", probed_kernel
        )
        for name in SITE_PASSES + ADJACENCY_READS:
            monkeypatch.setattr(
                SocialContentGraph, name,
                self._counting(name, getattr(SocialContentGraph, name)),
            )

    def _counting(self, name, method):
        def read(graph, *args):
            if self._inside:
                self.reads[name] += 1
            return method(graph, *args)
        return read


class TestCfStageFollowsTheNeighbourhood:
    def test_no_site_pass_and_a_crowd_changes_nothing(self, monkeypatch):
        probe = KernelProbe(monkeypatch)
        measured = {}
        for crowd in (0, 60):  # 10x the users, on items of their own
            session = Session.from_graph(cf_site(crowd))
            for request in CF_REQUESTS:
                session.run(request)
            probe.reads.clear()
            probe.results.clear()
            for request in CF_REQUESTS:  # warm: every request once before
                session.run(request)
            assert len(probe.results) == len(CF_REQUESTS)
            assert all(scores for scores, _ in probe.results)
            assert not any(probe.reads[name] for name in SITE_PASSES)
            measured[crowd] = (
                list(probe.results),
                [probe.reads[name] for name in ADJACENCY_READS],
            )
        assert all(measured[0][1])
        assert measured[60] == measured[0]


# ---------------------------------------------------------------------------
# The social root: its payload is the decoded combined graph, windowed
# ---------------------------------------------------------------------------

#: Window limits: none, empty, one row, a few, and past every survivor.
ROOT_LIMITS = (None, 0, 1, 3, 10_000)

#: (strategy, physical form of the root's social half, access mode):
#: one form per strategy.
ROOT_FORMS = (
    ("friends", "probe", "scan"),
    ("friends", "probe", "index"),
    ("similar_users", "group-agg", "auto"),
    ("item_based", "group-agg", "auto"),
)


def root_discoverer(graph, scan):
    """A discoverer whose planner lowers its candidate scan to *scan*."""
    discoverer = InformationDiscoverer(graph)
    discoverer.planner.cost_model = CostModel(
        columnar_scan_min_nodes=SCAN_FORMS[scan],
    )
    return discoverer


#: Sites for the unfused stage's parity, named by the §6.2 list variant
#: the compiler once lowered on each: the default ring, and a dense ring
#: (30 users × 15 follows onto 20 items) past the old entry budget.
STANDALONE_SITES = {
    "exact": {},
    "clustered": dict(num_users=30, num_items=20, friends_per_user=15,
                      acts_per_user=15, with_sim_links=False),
}


#: Semantic weights of the root's parity: social only, even, semantic only.
ROOT_ALPHAS = (0.0, 0.5, 1.0)

#: Hand-set semantic scores: 0.709 and the float just below it are
#: distinct, but TIE_ALPHA · s / 3.0 rounds both to one value.
TIE_ALPHA = 0.9
TIE_SCORES = (
    ("top", 3.0), ("m1", 0.709), ("m2", 0.709), ("m3", 0.709),
    ("a", 0.7089999999999999), ("c", 0.0), ("z", 0.0),
)


def tie_site():
    """Items carrying :data:`TIE_SCORES`; u0's friend u1 acts on c only,
    so the social set is {c}, ranked below the tie by its small weight."""
    g = SocialContentGraph()
    for u in ("u0", "u1"):
        g.add_node(Node(u, type="user"))
    for item, score in TIE_SCORES:
        g.add_node(Node(item, type="item", score=score))
    g.add_link(Link("f0", "u0", "u1", type="connect, friend"))
    g.add_link(Link("v0", "u1", "c", type="act, visit"))
    return g


def tie_plan():
    """The discovery pipeline's shape over :func:`tie_site`'s hand-scored
    items (a selection without a scorer keeps the scores they carry)."""
    G = input_graph("G")
    candidates = G.select_nodes({"type": "item"})
    basis = ConnectionBasisE(G, user_id="u0")
    social = SocialScoreE(G, candidates, basis, strategy="friends",
                          user_id="u0")
    return CombineScoresE(candidates, social, alpha=TIE_ALPHA)


def assert_rows_match(got, want):
    assert [row[0] for row in got] == [row[0] for row in want]
    for got_row, want_row in zip(got, want):
        assert got_row[1:] == pytest.approx(want_row[1:], abs=TOL)


class TestRootPayloadParity:
    """``execution.payload`` equals the decoded ``Expr.evaluate`` of the
    same plan: every strategy, scan form, social form and window."""

    @settings(max_examples=40, deadline=None)
    @given(social_workloads())
    def test_payload_is_the_decoded_combined_graph(self, workload):
        graph, user, keywords = workload
        for strategy, form, access in ROOT_FORMS:
            query = parse_query(user, " ".join(keywords))
            for scan in SCAN_FORMS:
                discoverer = root_discoverer(graph, scan)
                full = None
                for limit in ROOT_LIMITS:
                    execution = discoverer.rank(
                        query, strategy=strategy, access=access, limit=limit,
                    ).execution
                    root = execution.plan.root
                    assert type(root) is FusedSocialCombineOp
                    assert root.form == form
                    assert id(root) not in execution.ctx.degraded
                    assert execution.result.is_empty()
                    if full is None:
                        full = decode_social_result(
                            execution.plan.source.evaluate({"G": graph})
                        )
                    got = execution.payload
                    assert_scores_match(full, full.used_expert_fallback, got)
                    assert got.strategy == full.strategy == strategy
                    assert_rows_match(got.items, full.items[:limit])
                    assert got.matched == full.matched == len(full.items)
                    # the root's EXPLAIN actual is the old graph's size
                    actual, _elapsed = execution.op_actuals[root]
                    assert (actual.nodes, actual.links) == full.encoded_size
                    assert got.encoded_size == full.encoded_size

    @pytest.mark.parametrize("variant", ["exact", "clustered"])
    def test_the_standalone_merge_and_the_root_read_the_index_alike(
        self, variant
    ):
        """The unfused stage (a :class:`ScanOp` under the pinned
        strategy) and the root decode alike, on the sites §6.2's exact
        and clustered lists were once lowered for: the small ring, and a
        dense one whose per-user lists outgrew the entry budget."""
        graph = social_site_graph(**STANDALONE_SITES[variant])
        expr = social_stage("u0", (), "auto")
        combined = CombineScoresE(expr.children()[1], expr, alpha=0.0)
        planner = QueryPlanner(graph)
        stage = planner.execute(expr, access="index")
        root = planner.execute(combined, access="index")
        assert type(stage.plan.root) is ScanOp
        assert stage.plan.root.logical.strategy == "friends"
        assert stage.plan.resolved_strategy == "friends"
        assert root.plan.root.form == "probe"
        standalone = decode_social_result(stage.result)
        assert standalone.scores and not standalone.used_expert_fallback
        assert standalone.strategy == "friends"
        assert root.payload.scores == standalone.scores
        assert root.payload.endorsers == standalone.endorsers
        reference = decode_social_result(combined.evaluate({"G": graph}))
        assert root.payload == reference

    @settings(max_examples=25, deadline=None)
    @given(social_workloads(), st.booleans())
    def test_every_alpha_and_drop_zero_read_the_window_alike(
        self, workload, empty_text
    ):
        """α ∈ {0, 0.5, 1} × ``drop_zero`` × every window, keyword text
        and empty text (every semantic score 0): the windowed payload equals
        the decoded combined graph at 1e-9, and — exactly — the full pass
        over the candidates a run without the sub-plan memo takes."""
        graph, user, keywords = workload
        query = parse_query(user, "" if empty_text else " ".join(keywords))
        for strategy in COMPILED_STRATEGIES:
            for scan in SCAN_FORMS:
                discoverer = root_discoverer(graph, scan)
                planner = discoverer.planner
                scorer = discoverer.semantic.scorer if query.keywords \
                    else None
                for alpha in ROOT_ALPHAS:
                    for drop_zero in (True, False):
                        full = None
                        for limit in ROOT_LIMITS:
                            execution = planner.discovery_pipeline(
                                query, scorer=scorer, strategy=strategy,
                                alpha=alpha, drop_zero=drop_zero,
                                limit=limit,
                            )
                            source = execution.plan.source
                            if full is None:
                                full = decode_social_result(
                                    source.evaluate({"G": graph})
                                )
                            got = execution.payload
                            assert_scores_match(
                                full, full.used_expert_fallback, got
                            )
                            assert_rows_match(got.items, full.items[:limit])
                            assert got.matched == full.matched
                            assert got.encoded_size == full.encoded_size
                            bare = planner.execute(
                                source, env={"G": graph}, topk=limit,
                            ).payload
                            assert got == bare

    @pytest.mark.parametrize("limit", [1, 2, 3, 4])
    def test_a_window_cut_inside_a_rounding_tie_reads_the_tie_whole(
        self, limit
    ):
        """m1..m3 and ``a`` have distinct semantic scores whose
        α·sem/sem_top round to one combined value at :data:`TIE_ALPHA`,
        so ``a`` (lowest score, least ``repr``) outranks all three: a walk that
        stopped at its *limit*-th row, or read one equal-score run past
        *limit* rows, would miss it."""
        graph = tie_site()
        root = tie_plan()
        sem = dict(TIE_SCORES)
        combined = {item: TIE_ALPHA * (sem[item] / sem["top"])
                    for item in ("m1", "a")}
        assert sem["m1"] != sem["a"] and combined["m1"] == combined["a"]
        want = decode_social_result(root.evaluate({"G": graph}))
        assert [row[0] for row in want.items] == \
            ["top", "a", "m1", "m2", "m3", "c"]
        planner = QueryPlanner(graph)
        for _ in range(2):  # cold, then with the kept order
            got = planner.execute(root, topk=limit).payload
            assert_rows_match(got.items, want.items[:limit])
            assert got.matched == want.matched
            assert got.encoded_size == want.encoded_size
            assert got == planner.execute(
                root, env={"G": graph}, topk=limit
            ).payload


# ---------------------------------------------------------------------------
# Serving builds no record and ranks only the requested window
# ---------------------------------------------------------------------------

#: The record constructors and graph writers the root must not reach.
RECORD_BUILDERS = (
    (SocialContentGraph, "add_node"),
    (SocialContentGraph, "add_link"),
    (SocialContentGraph, "_adopt_fresh_link"),
    (Link, "_from_normalized"),
    (Node, "with_attrs"),
)


def window_site():
    """Twelve users over forty items; every item matches "thing"."""
    return social_site_graph(num_users=12, num_items=40, friends_per_user=3,
                             acts_per_user=6)


def window_requests(strategy):
    """Deep page 4, a keyword + structural scan and recommendations (the
    last forced onto the endorsement index)."""
    return (
        SearchRequest(user_id="u0", text="thing", strategy=strategy,
                      page_size=3, page=4),
        SearchRequest(user_id="u0", text="topic1", strategy=strategy,
                      k=5, structural={"type": "item"}),
        SearchRequest(user_id="u0", text="", strategy=strategy, k=10),
        SearchRequest(user_id="u0", text="", strategy=strategy, k=10,
                      use_index=True),
    )


class RootProbe:
    """Counts record-building calls made while the social root runs, and
    keeps every ranking the discoverer hands back."""

    def __init__(self, monkeypatch):
        self.calls: Counter = Counter()
        self.rankings: list = []
        self._inside = False
        run = FusedSocialCombineOp._run

        def probed_run(op, ctx, inputs):
            self._inside = True
            try:
                return run(op, ctx, inputs)
            finally:
                self._inside = False

        monkeypatch.setattr(FusedSocialCombineOp, "_run", probed_run)
        for owner, name in RECORD_BUILDERS:
            method = getattr(owner, name)
            counted = self._counting(name, method)
            if isinstance(owner.__dict__[name], classmethod):
                counted = staticmethod(counted)
            monkeypatch.setattr(owner, name, counted)
        rank = InformationDiscoverer.rank

        def kept_rank(discoverer, *args, **kwargs):
            self.rankings.append(rank(discoverer, *args, **kwargs))
            return self.rankings[-1]

        monkeypatch.setattr(InformationDiscoverer, "rank", kept_rank)

    def _counting(self, name, method):
        def call(*args, **kwargs):
            if self._inside:
                self.calls[name] += 1
            return method(*args, **kwargs)
        return call


class TestRootBuildsNothing:
    def test_warm_requests_build_no_record_and_rank_the_window(
        self, monkeypatch
    ):
        session = Session.from_graph(window_site())
        requests = [r for strategy in COMPILED_STRATEGIES
                    for r in window_requests(strategy)]
        for request in requests:  # cold: compile, build the indexes
            session.run(request)
        probe = RootProbe(monkeypatch)
        window_ends = []
        for request in requests:
            response = session.run(request)
            assert response.items
            info = response.page_info
            window_ends.append(info.offset + info.page_size)
        assert probe.calls == Counter()
        ranked = [len(ranking.items) for ranking in probe.rankings]
        assert len(ranked) == len(requests)
        assert all(n <= end for n, end in zip(ranked, window_ends))

    @pytest.mark.parametrize("strategy", COMPILED_STRATEGIES)
    def test_cursor_walk_concatenates_to_the_unbounded_ranking(
        self, strategy
    ):
        session = Session.from_graph(window_site())
        for text, k in (("thing", None), ("thing", 8), ("", None)):
            query = parse_query("u0", text)
            full = [s.item_id for s in session.discoverer.rank(
                query, strategy=strategy,
            ).items][:k]
            request = SearchRequest(user_id="u0", text=text, k=k,
                                    strategy=strategy, page_size=3)
            walked: list = []
            while True:
                response = session.run(request)
                info = response.page_info
                walked.extend(response.items)
                assert info.total_items == len(full)
                assert info.has_next == (len(walked) < len(full))
                assert (info.next_cursor is not None) == info.has_next
                if not info.has_next:
                    break
                request = SearchRequest(
                    user_id="u0", text=text, k=k, strategy=strategy,
                    page_size=3, cursor=info.next_cursor,
                )
            assert walked == full
            assert len(full) > 3 or strategy == "item_based" and not text


def reach_site():
    """:func:`window_site` plus a user whose friends qualify for "thing"
    through their tags but act only on an item that does not match it:
    the friend probe finds nothing, and the expert fallback runs."""
    g = window_site().copy()
    g.add_node(Node("x0", type="item", name="aside", keywords="elsewhere"))
    for user in ("loner", "f1", "f2"):
        g.add_node(Node(user, type="user", name=user))
    for friend in ("f1", "f2"):
        g.add_link(Link(f"c-{friend}", "loner", friend,
                        type="connect, friend"))
        g.add_link(Link(f"a-{friend}", friend, "x0", type="act, visit",
                        tags="thing"))
    return g


def padded(graph, factor=10):
    """*graph* beside ``factor - 1`` copies of its users and items that
    share nothing with it: their own ids, text no request matches, and
    friendships and acts among themselves only."""
    grown = graph.copy()
    users = [n.id for n in graph.nodes() if n.has_type("user")]
    items = [n.id for n in graph.nodes() if n.has_type("item")]
    for copy in range(1, factor):
        for k in range(len(users)):
            grown.add_node(Node(f"p{copy}u{k}", type="user", name="far"))
        for k in range(len(items)):
            grown.add_node(Node(f"p{copy}i{k}", type="item", name="far",
                                keywords="elsewhere"))
        for k in range(len(users)):
            grown.add_link(Link(
                f"p{copy}c{k}", f"p{copy}u{k}",
                f"p{copy}u{(k + 1) % len(users)}", type="connect, friend",
            ))
            for step in range(3):
                grown.add_link(Link(
                    f"p{copy}a{k}.{step}", f"p{copy}u{k}",
                    f"p{copy}i{(k + step) % len(items)}", type="act, visit",
                ))
    return grown


def reach_requests(strategy):
    """A deep page, a keyword + structural scan, recommendations (also
    off the endorsement index) and the expert fallback."""
    return (*window_requests(strategy),
            SearchRequest(user_id="loner", text="thing", strategy=strategy,
                          k=5))


class CountedRows(list):
    """A semantic order's rows that count how many a walk reads."""

    def __init__(self, rows, probe):
        super().__init__(rows)
        self.probe = probe

    def __getitem__(self, at):
        self.probe.rows += 1
        return super().__getitem__(at)

    def __iter__(self):
        for row in super().__iter__():
            self.probe.rows += 1
            yield row


class CountedScores(dict):
    """A semantic order's score map that counts the entries a pass over
    it reads (membership probes are free)."""

    def __init__(self, scores, probe):
        super().__init__(scores)
        self.probe = probe

    def __iter__(self):
        for item in super().__iter__():
            self.probe.rows += 1
            yield item

    def items(self):
        for entry in super().items():
            self.probe.rows += 1
            yield entry

    def values(self):
        for score in super().values():
            self.probe.rows += 1
            yield score


class ReadProbe:
    """Per request: candidate rows read (from the semantic order's rows or
    a pass over its score map), social-set entries the root combined, and
    whole-site passes (``nodes()`` / ``links()`` ...) made inside the root
    on any graph but a connection basis; plus the query terms of every
    expert fallback."""

    def __init__(self, monkeypatch):
        self.rows = 0
        self.social = 0
        self.passes: Counter = Counter()
        self.fallbacks: list = []
        self._inside = False
        run = FusedSocialCombineOp._run

        def probed_run(op, ctx, inputs):
            self._inside = True
            try:
                return run(op, ctx, inputs)
            finally:
                self._inside = False

        monkeypatch.setattr(FusedSocialCombineOp, "_run", probed_run)
        rows, init = SemanticOrder.rows, SemanticOrder.__init__

        def counted_init(order, candidates):
            init(order, candidates)
            order.scores = CountedScores(order.scores, self)

        monkeypatch.setattr(SemanticOrder, "__init__", counted_init)
        monkeypatch.setattr(SemanticOrder, "rows",
                            lambda order: CountedRows(rows(order), self))
        scores = repro.core.social._strategy_scores

        def counted_scores(*args, **kwargs):
            answer = scores(*args, **kwargs)
            self.social += len(answer[1])  # the social set S
            return answer

        monkeypatch.setattr(repro.core.social, "_strategy_scores",
                            counted_scores)
        experts = repro.core.social.expert_candidates

        def kept_experts(postings, query_terms, *args, **kwargs):
            self.fallbacks.append(set(query_terms))
            return experts(postings, query_terms, *args, **kwargs)

        monkeypatch.setattr(repro.core.social, "expert_candidates",
                            kept_experts)
        for name in SITE_PASSES:
            monkeypatch.setattr(
                SocialContentGraph, name,
                self._counting(name, getattr(SocialContentGraph, name)),
            )

    def _counting(self, name, method):
        def walk(graph, *args):
            if self._inside and not graph.has_node(repro.core.social.META_ID):
                self.passes[name] += 1
            return method(graph, *args)
        return walk

    def reads(self):
        return self.rows, self.social


class TestRootReadsTheWindow:
    def test_a_warm_request_reads_as_much_on_a_site_ten_times_larger(
        self, monkeypatch
    ):
        requests = [r for strategy in COMPILED_STRATEGIES
                    for r in reach_requests(strategy)]
        probe = ReadProbe(monkeypatch)
        measured = {}
        for factor in (1, 10):
            site = reach_site()
            session = Session.from_graph(padded(site, factor))
            assert session.graph.num_nodes == factor * site.num_nodes
            for request in requests:  # cold: compile, build and keep
                session.run(request)
            probe.fallbacks.clear()
            probe.passes.clear()
            reads = []
            for request in requests:
                probe.rows = probe.social = 0
                session.run(request)
                reads.append(probe.reads())
            assert probe.passes == Counter()
            assert {"thing"} in probe.fallbacks
            measured[factor] = reads
        assert measured[10] == measured[1]
        assert any(rows for rows, _social in measured[1])
        assert any(social for _rows, social in measured[1])


class TestExpertCandidates:
    def test_no_query_terms_returns_before_walking_the_links(
        self, monkeypatch
    ):
        # u0's only friend never acts: the friend probe of an empty
        # -keyword recommendation finds nothing and falls back to experts
        g = SocialContentGraph()
        for u in ("u0", "u1", "u2"):
            g.add_node(Node(u, type="user"))
        g.add_node(Node("i0", type="item", keywords="topic0"))
        g.add_link(Link("c0", "u0", "u1", type="connect, friend"))
        g.add_link(Link("a0", "u2", "i0", type="act, visit"))
        session = Session.from_graph(g)
        request = SearchRequest(user_id="u0", use_index=False)
        session.run(request)
        walks: Counter = Counter()
        asked: list = []
        links = SocialContentGraph.links
        term_postings = ActivityRelation.term_postings
        experts = repro.core.social.expert_candidates

        def counted_links(graph, *args):
            walks["links"] += 1
            return links(graph, *args)

        def counted_postings(relation):
            walks["postings"] += 1
            return term_postings(relation)

        def kept_experts(graph, query_terms, *args, **kwargs):
            asked.append(set(query_terms))
            return experts(graph, query_terms, *args, **kwargs)

        monkeypatch.setattr(SocialContentGraph, "links", counted_links)
        monkeypatch.setattr(ActivityRelation, "term_postings",
                            counted_postings)
        monkeypatch.setattr(repro.core.social, "expert_candidates",
                            kept_experts)
        response = session.run(request)
        assert asked == [set()]
        assert walks == Counter()
        assert response.items == ()

        class Unread:
            def activity(self):
                pytest.fail("postings read without query terms")

        assert experts(Unread(), set()) == []
        assert experts(g, {"topic0"}, exclude={"u0"}) == ["u2"]
        assert walks == Counter(postings=1)  # the one build
