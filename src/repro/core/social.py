"""Social-stage computations for the compiled pipeline.

The paper frames the social scoring stage — connection selection, friend /
expert endorsement, the Example 5 collaborative filter, content-based
support — as semi-joins and aggregations over the candidate null graph
σN⟨C,S⟩.  This module is the *compute kernel* behind the logical plan
nodes of :mod:`repro.core.expr` (``ConnectionBasisE``, ``SocialScoreE``,
``CombineScoresE``).  ``Expr.evaluate`` of those nodes is graph in, graph
out (the algebra stays closed, so plans can be rewritten); the physical
root every discovery pipeline ends in, :func:`fused_social_combine`,
computes the same scores and provenance as plain dicts and hands over a
:class:`DecodedSocialResult` ranked to the caller's window — no record of
the combined graph is ever built per request.

The friend and item-based kernels mirror the hand-executed reference
implementations in ``tests/oracle`` (``connections``, ``strategies``)
step for step; the collaborative filter does not — its reference runs
the paper's nine-step Example 5 recipe over the whole graph, the kernel
here probes the requester's neighbourhood (acted targets → co-actors →
Jaccard → the co-actors' items).  The differential parity suite
(``tests/plan/test_social_parity.py``) holds the two sides equal within
1e-9 on randomized workloads, which is the correctness net that lets the
compiler rearrange the physical form underneath.

Per request, every kernel reads adjacency (``out_links`` / ``in_links``)
of nodes it was led to, and the root reads the social set and the
window, not the candidates: a :class:`SemanticOrder` of each σN result,
kept beside it in the planner's sub-plan memo, lets it walk the
candidates in ranking order and stop.  The expert fallback reads the
query terms' postings of ``graph.activity()`` (the graph's
:class:`~repro.core.activity.ActivityRelation`, kept by a frozen graph
and carried across a vote by ``patched``).  Two builders still walk the
site — :class:`SemanticOrder` its candidates and the relation's postings
the ``act`` links, each once per value they derive from — and so does
``resolve_auto_strategy``, which compiled plans never reach (the
compiler resolves "auto" from statistics).

Encoding conventions of the graph-valued side (``Expr.evaluate`` and the
standalone social-stage operators; the fused root encodes nothing):

* a **basis graph** is a null graph of the selected connection members,
  each carrying its topical ``fit``, plus a ``social_meta`` marker node
  recording the basis kind and whether the expert fallback fired;
* a **social-score graph** holds the scored candidate items (attribute
  ``social_raw``), the endorsing users with ``endorse`` links (weight =
  endorsement weight), supporting items with ``support`` links, and the
  marker node (resolved strategy + fallback flag);
* a **combined graph** holds the surviving items with ``semantic_norm`` /
  ``social_norm`` / ``combined`` attributes plus the provenance carried
  through from the social stage.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Container

from repro.core.attrs import SCORE_ATTR
from repro.core.delta import GraphDelta
from repro.core.graph import Id, Link, Node, SocialContentGraph
from repro.core.text import tokenize


def _rank_items(items: list, limit: int | None) -> list:
    """Order decoded ranking rows, bounded to the top *limit* when given.

    The ordering key is total (score desc, item-id repr asc), so the
    bounded form is exactly ``sorted(items)[:limit]`` — computed as an
    O(n log k) heap selection instead of a full O(n log n) sort.  This is
    the ranking half of top-k pushdown: callers that declared a result
    budget stop paying to order candidates they will never return.
    """
    key = lambda t: (-t[3], repr(t[0]))  # noqa: E731 - shared ordering key
    if limit is not None and 0 <= limit < len(items):
        return heapq.nsmallest(limit, items, key=key)
    items.sort(key=key)
    return items

#: Node id / type of the marker node threading stage metadata through the
#: plan (resolved strategy, expert-fallback flag, basis kind).
META_ID = "__social_meta__"
META_TYPE = "social_meta"

#: Link types of the provenance edges in social-stage result graphs.
ENDORSE_TYPE = "endorse"
SUPPORT_TYPE = "support"

#: Strategy names the compiled social stage understands ("auto" resolves
#: at compile time from statistics, or at evaluation time from the graph).
COMPILED_STRATEGIES = ("friends", "similar_users", "item_based")

#: Expert-list size used by the score-time fallback rerun (mirrors the
#: default limit of the reference expert search in ``tests/oracle``).
FALLBACK_EXPERT_LIMIT = 10


# ---------------------------------------------------------------------------
# Connection selection (Selma's problem) over graphs
# ---------------------------------------------------------------------------


def activity_vocabulary(graph: SocialContentGraph, user: Id) -> set[str]:
    """Terms describing what a user acts on (item keywords + own tags)."""
    vocabulary: set[str] = set()
    for link in graph.out_links(user):
        if not link.has_type("act"):
            continue
        for value in link.values("tags"):
            vocabulary.update(tokenize(str(value)))
        item = graph.node(link.tgt)
        for att in ("category", "keywords", "city"):
            for value in item.values(att):
                if isinstance(value, str):
                    vocabulary.update(tokenize(value))
    return vocabulary


def topical_fit(graph: SocialContentGraph, user: Id, query_terms: set[str]) -> float:
    """Fraction of query terms present in the user's activity vocabulary."""
    if not query_terms:
        return 1.0
    return len(query_terms & activity_vocabulary(graph, user)) / len(query_terms)


def expert_candidates(
    graph: SocialContentGraph,
    query_terms: set[str],
    exclude: Container[Id] = frozenset(),
    limit: int = FALLBACK_EXPERT_LIMIT,
) -> list[Id]:
    """Users with the most activity on items matching the query terms.

    An ``act`` link counts once for its source when any query term is
    among its terms; only the query terms' postings of
    ``graph.activity()`` are read, and none without query terms.
    """
    if not query_terms:
        return []  # nothing can match: read no postings
    index = graph.activity().term_postings()
    matched: dict[Id, Id] = {}
    for term in query_terms:
        matched.update(index.get(term, {}))
    counts: dict[Id, int] = {}
    for src in matched.values():
        if src not in exclude:
            counts[src] = counts.get(src, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return [user for user, _ in ranked[:limit]]


def connection_basis(
    graph: SocialContentGraph,
    user_id: Id,
    keywords: tuple[str, ...],
    min_fit: float = 0.15,
    min_qualified: int = 2,
    max_experts: int = 10,
) -> SocialContentGraph:
    """The chosen social basis of a query, as a null graph.

    Semi-join reading: σN(id=u) ⋉ connect links picks the friends, a
    per-friend aggregation attaches the topical fit, and the expert
    fallback replaces the membership when too few friends qualify.
    """
    query_terms = set(keywords)
    friends = sorted(graph.activity().out(user_id).friends, key=repr)
    fit = {f: topical_fit(graph, f, query_terms) for f in friends}
    qualified = [f for f in friends if fit[f] >= min_fit]
    out = SocialContentGraph(catalog=graph.catalog)
    if len(qualified) >= min_qualified or not query_terms:
        for member in qualified or friends:
            out.add_node(graph.node(member).with_attrs(fit=fit[member]))
        out.add_node(Node(META_ID, type=META_TYPE, basis_kind="friends",
                          expert_fallback=0))
        return out
    experts = expert_candidates(graph, query_terms, exclude={user_id},
                                limit=max_experts)
    for expert in experts:
        out.add_node(graph.node(expert).with_attrs(fit=1.0))
    out.add_node(Node(META_ID, type=META_TYPE, basis_kind="experts",
                      expert_fallback=1))
    return out


def basis_keeper(
    graph: SocialContentGraph, delta: GraphDelta
) -> Callable[[Id, SocialContentGraph], bool]:
    """``keep(user, basis)``: is a :func:`connection_basis` result still
    true after the links-only *delta* that led to *graph*?

    A basis reads node records (a links-only step changes none), the
    user's ``connect`` targets and their ``act`` out-links — and, after
    the expert fallback, every ``act`` link.  So a friends-kind basis holds
    unless the user or a ``connect`` target of the user is the source of a
    changed link; an experts-kind one only if no ``act`` link changed and
    the user is no source.
    """
    sources: set[Id] = set()
    acts_changed = False
    for link in delta.touched_links():
        sources.add(link.src)
        acts_changed = acts_changed or link.has_type("act")
    # a non-source's out-links did not change: the new in-links tell who
    # has a source among its connect targets
    near_sources = sources | {
        link.src for source in sources for link in graph.in_links(source)
        if link.has_type("connect")
    }

    def keep(user: Id, basis: SocialContentGraph) -> bool:
        if basis.node(META_ID).value("basis_kind") == "experts":
            return not acts_changed and user not in sources
        return user not in near_sources

    return keep


# ---------------------------------------------------------------------------
# Strategy scoring over graphs
# ---------------------------------------------------------------------------


def resolve_auto_strategy(graph: SocialContentGraph) -> str:
    """The graph-side twin of the compiler's statistics-driven choice.

    The rule must match ``repro.plan.compiler``'s resolution (which reads
    the same signals off :class:`~repro.core.stats.GraphStats`) so a plan
    evaluated without the compiler agrees with its lowered form.
    """
    has_connect = has_act = has_sim = False
    for link in graph.links():
        if "connect" in link.types:
            has_connect = True
        if "act" in link.types:
            has_act = True
        if "sim_item" in link.types:
            has_sim = True
        if has_connect and has_act and has_sim:
            break
    return choose_strategy(has_connect, has_act, has_sim)


def choose_strategy(has_connect: bool, has_act: bool, has_sim: bool) -> str:
    """Shared auto-strategy rule over the three signal feeds."""
    if has_connect and has_act:
        return "friends"
    if has_sim:
        return "item_based"
    if has_act:
        return "similar_users"
    return "friends"


def friend_probe(
    graph: SocialContentGraph,
    members: list[tuple[Id, float]],
    candidates: Container[Id],
) -> tuple[dict[Id, float], dict[Id, dict[Id, float]]]:
    """Semi-join probe: each basis member's activities into the candidates.

    score(i) = Σ weight(u′) over members u′ with an ``act`` link onto i —
    the grouped aggregation of the paper's Example 4 reading.
    """
    scores: dict[Id, float] = {}
    endorsers: dict[Id, dict[Id, float]] = {}
    for member, weight in members:
        weight = max(weight, 0.1)
        for link in graph.out_links(member):
            if not link.has_type("act") or link.tgt not in candidates:
                continue
            scores[link.tgt] = scores.get(link.tgt, 0.0) + weight
            endorsers.setdefault(link.tgt, {})[member] = weight
    return scores, endorsers


def _friends_scores(
    graph: SocialContentGraph,
    candidates: Container[Id],
    basis: SocialContentGraph,
    user_id: Id,
    keywords: tuple[str, ...],
) -> tuple[dict, dict, bool]:
    """Friend/expert endorsement with the score-time Selma fallback."""
    meta = basis.node(META_ID) if basis.has_node(META_ID) else None
    expert_basis = bool(meta.value("expert_fallback", 0)) if meta else False
    members = [
        (node.id, 1.0 if expert_basis else float(node.value("fit", 1.0)))
        for node in basis.nodes()
        if node.id != META_ID
    ]
    scores, endorsers = friend_probe(graph, members, candidates)
    fallback = expert_basis
    if not scores and not expert_basis:
        # The friend basis produced nothing: rerun over topic experts
        # (the discoverer-level half of the Selma fallback).
        fallback = True
        experts = expert_candidates(graph, set(keywords), exclude={user_id})
        scores, endorsers = friend_probe(
            graph, [(expert, 1.0) for expert in experts], candidates
        )
    return scores, endorsers, fallback


def _similar_user_scores(
    graph: SocialContentGraph,
    candidates: Container[Id],
    user_id: Id,
    sim_threshold: float,
    act_type: str,
) -> tuple[dict, dict]:
    """Example 5's CF as a neighbourhood probe, with endorser provenance.

    The answer of the paper's nine-step recipe
    (``example5_collaborative_filtering``, the reference the parity suite
    holds this to) reached from adjacency alone: the requester's acted
    targets → their co-actors, of any node type → Jaccard of the two
    acted sets → threshold → the kept co-actors' act links onto
    item-typed candidates.  The average runs per *link*, as step 8
    composes one link per activity; co-actors are visited in repr order
    so neither the sums nor the endorser dicts depend on set iteration.
    Cost: |mine| × item popularity + Σ co-actor degree.
    """
    mine = {l.tgt for l in graph.out_links(user_id) if l.has_type(act_type)}
    co_actors = {
        link.src
        for target in mine
        for link in graph.in_links(target)
        if link.src != user_id and link.has_type(act_type)
    }
    sums: dict[Id, float] = {}
    counts: dict[Id, int] = {}
    endorsers: dict[Id, dict[Id, float]] = {}
    for other in sorted(co_actors, key=repr):
        acted = [l.tgt for l in graph.out_links(other) if l.has_type(act_type)]
        theirs = set(acted)
        shared = len(mine & theirs)
        sim = shared / (len(mine) + len(theirs) - shared)
        if sim <= sim_threshold:
            continue
        for item in acted:
            if item not in candidates or not graph.node(item).has_type("item"):
                continue
            sums[item] = sums.get(item, 0.0) + sim
            counts[item] = counts.get(item, 0) + 1
            endorsers.setdefault(item, {})[other] = sim
    return {item: sums[item] / counts[item] for item in sums}, endorsers


def _item_based_scores(
    graph: SocialContentGraph,
    candidates: Container[Id],
    user_id: Id,
) -> tuple[dict, dict]:
    """Content-based support over derived ``sim_item`` links."""
    scores: dict[Id, float] = {}
    supporting: dict[Id, dict[Id, float]] = {}
    mine = {l.tgt for l in graph.out_links(user_id) if l.has_type("act")}
    for past_item in mine:
        for link in graph.out_links(past_item):
            if not link.has_type("sim_item"):
                continue
            other = link.tgt
            if other not in candidates or other in mine:
                continue
            sim = float(link.value("sim", 0.0))
            scores[other] = scores.get(other, 0.0) + sim
            supporting.setdefault(other, {})[past_item] = sim
    return scores, supporting


def social_scores_graph(
    graph: SocialContentGraph,
    candidates: SocialContentGraph,
    basis: SocialContentGraph,
    strategy: str,
    user_id: Id,
    keywords: tuple[str, ...] = (),
    sim_threshold: float = 0.1,
    act_type: str = "visit",
) -> SocialContentGraph:
    """One strategy's social relevance, graph-encoded.

    *strategy* must be a member of :data:`COMPILED_STRATEGIES` or
    ``"auto"`` (resolved from the live graph — the compiler resolves it
    from statistics before lowering instead).
    """
    strategy, scores, endorsers, supporting, fallback = _strategy_scores(
        graph, {n.id for n in candidates.nodes()}, basis, strategy, user_id,
        keywords, sim_threshold, act_type,
    )
    return encode_social_result(
        graph, candidates, scores, endorsers, supporting, strategy, fallback
    )


def _strategy_scores(
    graph: SocialContentGraph,
    candidate_ids: Container[Id],
    basis: SocialContentGraph,
    strategy: str,
    user_id: Id,
    keywords: tuple[str, ...],
    sim_threshold: float,
    act_type: str,
) -> tuple[str, dict, dict, dict, bool]:
    """Shared strategy dispatch: (strategy, scores, endorsers, supporting,
    fallback) — consumed by both the standalone social stage and the fused
    social+combine physical form."""
    from repro.errors import ExpressionError

    if strategy == "auto":
        strategy = resolve_auto_strategy(graph)
    if strategy not in COMPILED_STRATEGIES:
        raise ExpressionError(
            f"unknown compiled social strategy {strategy!r}; "
            f"have {COMPILED_STRATEGIES}"
        )
    supporting: dict[Id, dict[Id, float]] = {}
    endorsers: dict[Id, dict[Id, float]] = {}
    fallback = False
    if strategy == "friends":
        scores, endorsers, fallback = _friends_scores(
            graph, candidate_ids, basis, user_id, keywords
        )
    elif strategy == "similar_users":
        meta = basis.node(META_ID) if basis.has_node(META_ID) else None
        fallback = bool(meta.value("expert_fallback", 0)) if meta else False
        scores, endorsers = _similar_user_scores(
            graph, candidate_ids, user_id, sim_threshold, act_type
        )
    else:
        meta = basis.node(META_ID) if basis.has_node(META_ID) else None
        fallback = bool(meta.value("expert_fallback", 0)) if meta else False
        scores, supporting = _item_based_scores(graph, candidate_ids, user_id)
    return strategy, scores, endorsers, supporting, fallback


def encode_social_result(
    graph: SocialContentGraph,
    candidates: SocialContentGraph,
    scores: dict[Id, float],
    endorsers: dict[Id, dict[Id, float]],
    supporting: dict[Id, dict[Id, float]],
    strategy: str,
    fallback: bool,
) -> SocialContentGraph:
    """Shared encoder for the social-score graph (scan and index paths).

    Both physical forms route through here, so the produced graph is
    record-for-record identical whichever access path the compiler picked.
    """
    out = SocialContentGraph(catalog=graph.catalog)
    for node in candidates.nodes():
        if node.id in scores:
            out.add_node(node._with_normalized(
                {"social_raw": (scores[node.id],)}
            ))
    for item, per_user in endorsers.items():
        for user, weight in per_user.items():
            if not out.has_node(user):
                out.add_node(graph.node(user) if graph.has_node(user)
                             else Node(user, type="user"))
            out.add_link(Link._from_normalized(
                f"endorse:{user}->{item}", user, item,
                {"type": (ENDORSE_TYPE,), "weight": (weight,)},
            ))
    for item, per_item in supporting.items():
        for supporter, weight in per_item.items():
            if not out.has_node(supporter):
                out.add_node(graph.node(supporter) if graph.has_node(supporter)
                             else Node(supporter, type="item"))
            out.add_link(Link._from_normalized(
                f"support:{supporter}->{item}", supporter, item,
                {"type": (SUPPORT_TYPE,), "weight": (weight,)},
            ))
    out.add_node(Node(META_ID, type=META_TYPE, strategy=strategy,
                      expert_fallback=int(fallback)))
    return out


# ---------------------------------------------------------------------------
# Score combination (endorsement merge into the final ranking)
# ---------------------------------------------------------------------------


def _max_normalized(scores: dict[Id, float]) -> dict[Id, float]:
    top = max(scores.values(), default=0.0)
    if top <= 0:
        return {i: 0.0 for i in scores}
    return {i: s / top for i, s in scores.items()}


def combine_scores_graph(
    candidates: SocialContentGraph,
    social: SocialContentGraph,
    alpha: float,
    drop_zero: bool = True,
) -> SocialContentGraph:
    """α·semantic + (1−α)·social over max-normalized components.

    Carries the social stage's provenance (endorse/support links and the
    marker node) through for items that survive, so downstream MSG
    assembly reads one graph.
    """
    semantic = {n.id: (n.score or 0.0) for n in candidates.nodes()}
    raw: dict[Id, float] = {}
    for node in social.nodes():
        value = node.value("social_raw")
        if value is not None:
            raw[node.id] = float(value)
    semantic_norm = _max_normalized(semantic)
    social_norm = _max_normalized(raw)
    out = SocialContentGraph(catalog=candidates.catalog)
    for node in candidates.nodes():
        sem = semantic_norm.get(node.id, 0.0)
        soc = social_norm.get(node.id, 0.0)
        combined = alpha * sem + (1 - alpha) * soc
        if drop_zero and combined <= 0.0:
            continue
        out.add_node(node.with_attrs(
            semantic_norm=sem,
            social_norm=soc,
            social_raw=raw.get(node.id),
            combined=combined,
        ))
    for link in social.links():
        if not out.has_node(link.tgt):
            continue  # provenance of a dropped item
        if not out.has_node(link.src):
            out.add_node(social.node(link.src))
        out.add_link(link)
    if social.has_node(META_ID):
        out.add_node(social.node(META_ID))
    return out


class SemanticOrder:
    """A σN result's semantic scores, ordered once per candidates value.

    Derived from one candidates graph (held as :attr:`candidates`, which
    a holder checks by identity): the score map in candidate order, its
    top score, how many scores are positive and the least of those, and
    — sorted on first use — the ``(item, score)`` rows in the ranking
    key's order.  The planner's sub-plan memo keeps one beside the
    ``"select"`` entry it derives from, so a warm request reads no
    candidate it does not return.
    """

    __slots__ = ("candidates", "scores", "top", "positive",
                 "least_positive", "_rows")

    def __init__(self, candidates: SocialContentGraph):
        self.candidates = candidates
        scores: dict[Id, float] = {}
        for node in candidates.nodes():
            value = node.attrs.get(SCORE_ATTR)
            scores[node.id] = value[0] if value else 0.0
        positives = [score for score in scores.values() if score > 0]
        self.scores = scores
        self.top = max(scores.values(), default=0.0)
        self.positive = len(positives)
        self.least_positive = min(positives, default=0.0)
        self._rows: list[tuple[Id, float]] | None = None

    def rows(self) -> list[tuple[Id, float]]:
        """``(item, score)`` in the ranking key's order: score desc, then
        item-id ``repr`` asc."""
        rows = self._rows
        if rows is None:
            rows = sorted(self.scores.items(), key=lambda row: repr(row[0]))
            rows.sort(key=itemgetter(1), reverse=True)  # stable
            self._rows = rows
        return rows

    def surviving(self, combined: Callable[[float], float]) -> int:
        """How many rows, from the top, *combined* maps above zero.

        *combined* must be non-decreasing in the score and zero at zero,
        so the survivors are a prefix of the positive rows: counted from
        the least positive score, searched only when rounding cut it.
        """
        if not self.positive or combined(self.least_positive) > 0.0:
            return self.positive
        return bisect_left(self.rows(), True, hi=self.positive,
                           key=lambda row: combined(row[1]) <= 0.0)


def fused_social_combine(
    graph: SocialContentGraph,
    candidates: SocialContentGraph,
    basis: SocialContentGraph,
    strategy: str,
    user_id: Id,
    alpha: float,
    keywords: tuple[str, ...] = (),
    sim_threshold: float = 0.1,
    act_type: str = "visit",
    drop_zero: bool = True,
    limit: int | None = None,
    order: SemanticOrder | None = None,
) -> "DecodedSocialResult":
    """Social scoring and α-combination, ranked to a window.

    The values of ``decode_social_result(combine_scores_graph(candidates,
    social_scores_graph(...)))`` — asserted by the differential parity
    suite — computed without building either graph: scores and
    provenance stay plain dicts, and only the best *limit* rows are
    ordered (``None`` ranks every survivor).  Score and provenance maps
    cover every surviving item, and ``matched`` counts them.

    The strategy kernels score the social set S (the candidates with a
    social score).  Every other candidate ranks by α·sem/sem_top alone,
    so under ``drop_zero``:

    * with α = 0 or no positive semantic score, no row outside S
      survives and only S is read;
    * with α > 0, a *limit* and a kept *order* (:class:`SemanticOrder`
      of *candidates*), the order is walked until *limit* rows outside S
      are taken, and on through the tie group of the last one (distinct
      scores may round to one combined value); ``matched`` and
      ``encoded_size`` come from the order's counts and membership;
    * otherwise every candidate is read.

    This is the compute kernel behind
    :class:`repro.plan.physical.FusedSocialCombineOp`.
    """
    walkable = order is not None
    if order is None:
        order = SemanticOrder(candidates)
    semantic = order.scores
    strategy, scores, endorsers, supporting, fallback = _strategy_scores(
        graph, semantic, basis, strategy, user_id, keywords,
        sim_threshold, act_type,
    )
    # max-normalisation as combine_scores_graph does it, inlined
    sem_top = order.top
    soc_top = max(scores.values(), default=0.0)
    beta = 1 - alpha

    def combine(item: Id, raw: float | None) -> tuple:
        sem = semantic[item]
        sem = sem / sem_top if sem_top > 0 else 0.0
        soc = raw / soc_top if raw is not None and soc_top > 0 else 0.0
        return item, sem, soc, alpha * sem + beta * soc

    def survives(item: Id) -> bool:
        return not drop_zero or combine(item, scores.get(item))[3] > 0.0

    social_only = sem_top <= 0 or alpha == 0
    if drop_zero and (social_only or alpha > 0 and walkable
                      and limit is not None and limit >= 0):
        rows = [
            row for row in (
                combine(item, raw) for item, raw in scores.items()
                if item in semantic
            ) if row[3] > 0.0
        ]
        matched = len(rows)
        if not social_only:
            # combine(item, None)'s combined value, as a function of sem
            alone = lambda sem: alpha * (sem / sem_top) + beta * 0.0  # noqa: E731
            matched += order.surviving(alone) - sum(
                1 for item in scores
                if item in semantic and alone(semantic[item]) > 0.0
            )
            rows.extend(_walk_outside(order, scores, combine, limit))
    else:
        rows = [
            row for row in (
                combine(item, scores.get(item)) for item in semantic
            ) if not drop_zero or row[3] > 0.0
        ]
        matched = len(rows)
    kept = {item: scores[item] for item in scores if item in semantic
            and survives(item)}
    # provenance exists only for scored items, so "scored and kept" is
    # "survived" for every key of the two maps
    endorsers = {i: e for i, e in endorsers.items() if i in kept}
    supporting = {i: s for i, s in supporting.items() if i in kept}
    return DecodedSocialResult(
        items=_rank_items(rows, limit),
        scores=kept,
        endorsers=endorsers,
        supporting_items=supporting,
        strategy=strategy,
        used_expert_fallback=fallback,
        matched=matched,
        encoded_size=_encoded_size(matched, semantic, survives, endorsers,
                                   supporting),
    )


def _walk_outside(
    order: SemanticOrder,
    scored: Container[Id],
    combine: Callable[[Id, float | None], tuple],
    limit: int,
) -> list:
    """The surviving rows outside *scored* that can reach the top *limit*.

    The first *limit* in the order, then the rest of the last one's tie
    group: distinct scores may round to one combined value, so the group
    may hold several runs of equal scores.  A run is in ``repr`` order,
    so past *limit* rows of one run the rest of it ranks below them: the
    walk jumps to the next run.
    """
    rows = order.rows()
    taken: list = []
    last = run = None
    in_run = 0
    at, end = 0, len(rows)
    while at < end:
        item, sem = rows[at]
        if item in scored:
            at += 1
            continue
        row = combine(item, None)
        if row[3] <= 0.0 or len(taken) >= limit and row[3] != last:
            break
        if sem != run:
            run, in_run = sem, 0
        elif in_run >= limit:
            at = bisect_right(rows, -sem, lo=at, key=_descending_score)
            continue
        taken.append(row)
        in_run += 1
        last = row[3]
        at += 1
    return taken


def _descending_score(row: tuple[Id, float]) -> float:
    return -row[1]


def _encoded_size(
    matched: int,
    candidates: Container[Id],
    survives: Callable[[Id], bool],
    endorsers: dict[Id, dict[Id, float]],
    supporting: dict[Id, dict[Id, float]],
) -> tuple[int, int]:
    """(nodes, links) of the combined graph ``Expr.evaluate`` builds.

    Its nodes are the *matched* survivors, the endorsers and supporters
    of survivors that are not survivors themselves, and the marker node;
    its links are one ``endorse`` / ``support`` edge per provenance pair.
    """
    providers: set = set()
    links = 0
    for provenance in (endorsers, supporting):
        for per in provenance.values():
            providers.update(per)
            links += len(per)
    outside = sum(1 for p in providers
                  if p not in candidates or not survives(p))
    return matched + outside + 1, links


@dataclass
class DecodedSocialResult:
    """A discovery pipeline's answer as plain values (the root's payload)."""

    #: (item, semantic_norm, social_norm, combined), best first — cut to
    #: the requested window when a limit was pushed down
    items: list[tuple[Id, float, float, float]] = field(default_factory=list)
    #: raw social scores of the surviving items
    scores: dict[Id, float] = field(default_factory=dict)
    endorsers: dict[Id, dict[Id, float]] = field(default_factory=dict)
    supporting_items: dict[Id, dict[Id, float]] = field(default_factory=dict)
    strategy: str = "friends"
    used_expert_fallback: bool = False
    #: surviving items before the window cut (``len(items)`` without one)
    matched: int = 0
    #: (nodes, links) the combined result graph would have — the root
    #: operator's EXPLAIN actual
    encoded_size: tuple[int, int] = (0, 0)
