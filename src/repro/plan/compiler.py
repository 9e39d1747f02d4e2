"""Logical → physical compilation with cost-based access-path selection.

``compile_plan`` is the single door between the algebra and execution:

1. the logical plan is rewritten by the rule optimizer
   (:func:`repro.core.optimizer.optimize` — fusion, pushdown, Lemma 1,
   idempotence, empty-folding);
2. each logical node is lowered to a physical operator, preserving DAG
   sharing;
3. where an alternative access path exists — keyword selection over the
   indexed item population — the cost model picks scan or index from
   :class:`~repro.core.stats.GraphStats` estimates (§6's access-path
   trade-off made a query-time, cost-driven choice).

The cost model is work-based, not output-based: both paths produce the
same cardinality, but a scan *tests* every node of the input (predicate
evaluation + tokenisation), while the index touches only the posting
entries of matching items — at a higher per-element price (hash probes,
score recomputation).  The crossover is therefore a selectivity threshold:
rare terms go to the index, terms matching most of the population stay on
the sequential scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.core.conditions import AttrEquals, Condition, HasType
from repro.core.expr import (
    CombineScoresE,
    ConnectionBasisE,
    Expr,
    InputE,
    LiteralE,
    SelectNodesE,
    SocialScoreE,
    plan_key,
)
from repro.core.expr import SelectLinksE
from repro.core.optimizer import DEFAULT_RULES, Rule, optimize
from repro.core.social import COMPILED_STRATEGIES, choose_strategy
from repro.core.stats import GraphStats
from repro.errors import QueryError
from repro.plan.physical import (
    COLUMNAR,
    INDEX,
    SCAN,
    ColumnarLinkScanOp,
    ColumnarScanOp,
    FusedSocialCombineOp,
    IndexKeywordScanOp,
    InputOp,
    LiteralOp,
    PhysicalOp,
    PhysicalPlan,
    ScanOp,
)

#: Valid access-path preferences for compilation.
ACCESS_MODES = ("auto", INDEX, SCAN)


@dataclass(frozen=True)
class CostModel:
    """Per-element work constants for the scan-vs-index choice.

    ``scan_cost_per_node`` prices one sequential predicate test (attribute
    lookups plus text tokenisation); ``index_cost_per_posting`` prices one
    posting-list touch (variant probes, idf lookups, score assembly).
    Postings are costlier per element, so the index wins exactly when the
    expected match fraction is below ``scan/posting`` (½ by default) — the
    classic crossover where random access loses to a sequential pass.
    """

    scan_cost_per_node: float = 1.0
    index_cost_per_posting: float = 2.0
    #: minimum estimated input population before a base-graph σN lowers
    #: to the columnar scan — cutting and caching columns for a tiny
    #: population costs more than row tests
    columnar_scan_min_nodes: float = 512.0
    #: minimum estimated base-graph link population before σL lowers to
    #: the columnar link scan
    columnar_scan_min_links: float = 512.0

    def scan_cost(self, input_nodes: float) -> float:
        return input_nodes * self.scan_cost_per_node

    def index_cost(self, expected_matches: float) -> float:
        return expected_matches * self.index_cost_per_posting


@dataclass(frozen=True)
class IndexBinding:
    """An attachable semantic index: what the compiler needs to know.

    ``provider`` materialises (lazily) the
    :class:`~repro.indexing.semantic.SemanticItemIndex`;
    ``scorer_provider`` exposes the scorer the index shares with the scan
    path, so compile-time eligibility can verify score parity without
    forcing the index build.
    """

    item_type: str
    provider: Callable[[], Any]
    scorer_provider: Callable[[], Any] | None = None


@dataclass(frozen=True)
class AccessDecision:
    """One recorded scan-vs-index choice, for EXPLAIN and tests."""

    op: str
    chosen: str
    scan_cost: float
    index_cost: float | None
    reason: str


@dataclass(frozen=True)
class StrategyDecision:
    """The cost-based social-strategy pick when the request left it open."""

    op: str
    chosen: str
    reason: str
    considered: tuple[str, ...] = COMPILED_STRATEGIES


class SocialPath(NamedTuple):
    """The lowered social stage: its resolved strategy and physical form
    (``"probe"`` for friend endorsement, ``"group-agg"`` otherwise)."""

    strategy: str
    form: str


def _scopes_item_population(condition: Condition, item_type: str) -> bool:
    """True when the structural part is exactly ``type = item_type``.

    That is the population the semantic index covers; any further
    structural predicate (or a different type scope) must take the scan
    path to keep index and scan results identical by construction.
    """
    if len(condition.predicates) != 1:
        return False
    predicate = condition.predicates[0]
    if isinstance(predicate, HasType):
        return predicate.type_name == item_type
    if isinstance(predicate, AttrEquals):
        return predicate.att == "type" and tuple(predicate.required) == (item_type,)
    return False


def _index_eligible(node: Expr, index: IndexBinding | None) -> bool:
    """Can this logical node be served from the semantic index at all?"""
    if index is None or not isinstance(node, SelectNodesE):
        return False
    if not isinstance(node.child, InputE):
        return False  # the index covers the base graph, not derived ones
    if not node.condition.has_keywords:
        return False
    if not _scopes_item_population(node.condition, index.item_type):
        return False
    # Score parity: the index computes the shared tf-idf, so the scan form
    # must use exactly that scorer.  A None scorer would fall back to the
    # library default S (coverage × log-tf), and any custom S is opaque —
    # both disqualify, or the access path would change the scores.
    shared = index.scorer_provider() if index.scorer_provider is not None else None
    return node.scorer is not None and node.scorer is shared


def _mark_memoisable(node: Expr, physical: PhysicalOp) -> None:
    """Tag deterministic base-graph stages for the sub-plan result memo.

    A stage qualifies when its result is a pure function of the base
    input graph and its own parameters — then one graph generation can
    serve every execution from the first result.  Today that is
    connection selection (small, per-user, re-derived on every query of
    the same user) and base-graph node selection (the σN candidate stage,
    identical across repeats of a query shape; all three physical forms
    produce the same records by the parity contract, but the form tag
    still keys separately so access-path experiments measure real work).
    Opaque scorer parameters key by identity inside ``plan_key``, so two
    scorers can never share an entry.
    """
    if not isinstance(node, (ConnectionBasisE, SelectNodesE)):
        return
    if not isinstance(node.child, InputE):  # type: ignore[attr-defined]
        return
    if isinstance(node, ConnectionBasisE):
        # keyed by user too: a write keeps the bases it left true
        physical.memo_key = ("basis", node.user_id, plan_key(node))
    else:
        physical.memo_key = (
            "select", physical.access_path or SCAN, plan_key(node)
        )


def _pruning_type(condition: Condition) -> tuple[Any | None, bool]:
    """(type value the condition's conjuncts pin, predicate-exact?).

    Safe to prune on because top-level predicates are conjunctive:
    ``HasType(t)`` means *t* is among the element's types, and the
    paper's type-equality superset semantics require every listed value
    — so any single required value bounds the satisfying set.  *exact*
    is True when the matched predicate demands nothing beyond membership
    of that one value — then the view's type bucket doesn't just
    bound the predicate, it *is* the predicate.  Nested disjunctions
    arrive as one opaque predicate object and never match here.
    """
    for predicate in condition.predicates:
        if isinstance(predicate, HasType):
            return predicate.type_name, True
        if isinstance(predicate, AttrEquals) and predicate.att == "type" \
                and predicate.required:
            return predicate.required[0], len(predicate.required) == 1
    return None, False


def _parent_counts(root: Expr) -> dict[int, int]:
    """Edges into each node of the (possibly DAG-shaped) logical plan.

    Fusion needs this: a social stage may only be absorbed into its
    combination when the combination is its *sole* consumer — a shared
    sub-plan must stay a standalone operator so every parent reads the
    same memoised result.
    """
    counts: dict[int, int] = {}
    seen: set[int] = set()

    def walk(node: Expr) -> None:
        for child in node.children():
            counts[id(child)] = counts.get(id(child), 0) + 1
            if id(child) not in seen:
                seen.add(id(child))
                walk(child)

    walk(root)
    return counts


def compile_plan(
    expr: Expr,
    stats: GraphStats,
    index: IndexBinding | None = None,
    access: str = "auto",
    cost_model: CostModel | None = None,
    rules: tuple[Rule, ...] = DEFAULT_RULES,
    key: Any = None,
) -> PhysicalPlan:
    """Compile a logical plan into an executable :class:`PhysicalPlan`.

    *access* constrains the access-path choice: ``"auto"`` lets the cost
    model decide, ``"index"`` forces the index wherever eligible, and
    ``"scan"`` refuses it everywhere.  Forcing the index on an ineligible
    selection silently degrades to scan — eligibility is a correctness
    boundary, not a preference.

    *key* lets a caller that already computed ``plan_key(expr)`` (the plan
    cache's lookup) pass it in instead of paying a second tree walk.

    Sufficiently large base-graph node and link scans lower to the
    columnar forms (:class:`ColumnarScanOp`, :class:`ColumnarLinkScanOp`),
    which evaluate the condition over the planner's columnar view
    instead of row records.
    """
    if access not in ACCESS_MODES:
        raise QueryError(f"unknown access mode {access!r}; have {ACCESS_MODES}")
    model = cost_model if cost_model is not None else CostModel()
    optimized, report = optimize(expr, rules)
    decisions: list[AccessDecision] = []
    strategy_state: dict[str, Any] = {"decision": None, "resolved": None}
    memo: dict[int, PhysicalOp] = {}
    parents = _parent_counts(optimized)

    def scan_form(node: Expr, children: tuple[PhysicalOp, ...]) -> PhysicalOp:
        """The scan-family physical form: columnar when it pays."""
        if isinstance(node, SelectNodesE) and isinstance(node.child, InputE):
            input_nodes = node.child.estimate(stats).nodes
            if input_nodes >= model.columnar_scan_min_nodes:
                prune_type, exact = _pruning_type(node.condition)
                covered = (
                    exact
                    and len(node.condition.predicates) == 1
                    and not node.condition.has_keywords
                    and node.scorer is None
                )
                pruned = (
                    f", covered by type {prune_type!r} buckets" if covered
                    else f", pruned to type {prune_type!r} buckets"
                    if prune_type is not None else ""
                )
                decisions.append(AccessDecision(
                    op=node.describe(),
                    chosen=COLUMNAR,
                    scan_cost=model.scan_cost(input_nodes),
                    index_cost=None,
                    reason=(
                        f"{input_nodes:.0f}-node base scan over the "
                        f"columnar view{pruned}"
                    ),
                ))
                return ColumnarScanOp(node, children, prune_type, covered)
        if isinstance(node, SelectLinksE) and isinstance(node.child, InputE):
            input_links = node.child.estimate(stats).links
            if input_links >= model.columnar_scan_min_links:
                prune_type, _exact = _pruning_type(node.condition)
                pruned = (
                    f", pruned to link-type {prune_type!r} buckets"
                    if prune_type is not None else ""
                )
                decisions.append(AccessDecision(
                    op=node.describe(),
                    chosen=COLUMNAR,
                    scan_cost=input_links * model.scan_cost_per_node,
                    index_cost=None,
                    reason=(
                        f"{input_links:.0f}-link base scan over the "
                        f"columnar view{pruned}"
                    ),
                ))
                return ColumnarLinkScanOp(node, children, prune_type)
        return ScanOp(node, children)

    def lower(node: Expr) -> PhysicalOp:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, CombineScoresE):
            physical = _lower_combine(node)
            memo[key] = physical
            return physical
        children = tuple(lower(child) for child in node.children())
        if isinstance(node, InputE):
            physical: PhysicalOp = InputOp(node, ())
        elif isinstance(node, LiteralE):
            physical = LiteralOp(node, ())
        elif isinstance(node, SocialScoreE):
            # no fusable combination: the eager compute, under the
            # strategy the compiler resolved (never re-resolved at run
            # time, so EXPLAIN and execution agree)
            path = _choose_social_path(node, stats, strategy_state)
            physical = ScanOp(node.pinned(path.strategy), children)
        elif _index_eligible(node, index) and access != SCAN:
            physical = _choose_select_path(
                node, children, stats, index, access, model, decisions,
                scan_form,
            )
        else:
            physical = scan_form(node, children)
        _mark_memoisable(node, physical)
        memo[key] = physical
        return physical

    def _lower_combine(node: CombineScoresE) -> PhysicalOp:
        """Lower the combination to the social root when it is safe.

        Safe means: the social stage is a compiled :class:`SocialScoreE`,
        the combination is its only consumer, and both read the *same*
        candidate sub-plan — the shape every discovery pipeline has.
        The social form, probe or grouped aggregation, runs inside the
        root.  Anything else lowers to the plain two-operator pipeline.
        """
        social = node.right
        fusable = (
            isinstance(social, SocialScoreE)
            and parents.get(id(social), 0) == 1
            and social.children()[1] is node.left
        )
        if fusable:
            social_children = tuple(lower(c) for c in social.children())
            path = _choose_social_path(social, stats, strategy_state)
            return FusedSocialCombineOp(
                node, social, social_children,
                strategy=path.strategy, form=path.form,
            )
        return ScanOp(node, tuple(lower(child) for child in node.children()))

    root = lower(optimized)
    return PhysicalPlan(
        root=root,
        logical=optimized,
        source=expr,
        rewrites=report,
        stats=stats,
        key=(key if key is not None else plan_key(expr), access),
        decisions=tuple(decisions),
        strategy_decision=strategy_state["decision"],
        resolved_strategy=strategy_state["resolved"],
    )


def _choose_select_path(
    node: SelectNodesE,
    children: tuple[PhysicalOp, ...],
    stats: GraphStats,
    index: IndexBinding,
    access: str,
    model: CostModel,
    decisions: list[AccessDecision],
    scan_form: Callable[..., PhysicalOp] = ScanOp,
) -> PhysicalOp:
    """Cost the two physical forms of an eligible keyword selection.

    *scan_form* builds the scan-family operator when the scan side wins —
    the compiler passes its columnar-aware constructor, so a selection
    the index does not win still scans columnar when its population is
    large enough.
    """
    input_nodes = node.child.estimate(stats).nodes
    scan_cost = model.scan_cost(input_nodes)
    matches = stats.keyword_match_fraction(node.condition.keywords) * input_nodes
    index_cost = model.index_cost(matches)
    if access == INDEX:
        chosen, reason = INDEX, "forced by request"
    elif index_cost < scan_cost:
        chosen, reason = INDEX, (
            f"expected {matches:.0f} postings cheaper than {input_nodes:.0f}-node scan"
        )
    else:
        chosen, reason = SCAN, (
            f"match fraction too high ({matches:.0f} of {input_nodes:.0f} nodes)"
        )
    decisions.append(
        AccessDecision(
            op=node.describe(),
            chosen=chosen,
            scan_cost=scan_cost,
            index_cost=index_cost,
            reason=reason,
        )
    )
    if chosen == INDEX:
        return IndexKeywordScanOp(node, children, index.item_type)
    return scan_form(node, children)


def _resolve_strategy(stats: GraphStats) -> tuple[str, str]:
    """Cost-based strategy pick from the connection-degree histograms.

    Shares its rule with :func:`repro.core.social.choose_strategy` (the
    evaluation-time twin): friend endorsement needs a connected *and*
    active population; without one, content support (derived ``sim_item``
    links) beats a similarity pass, which in turn beats an inert friends
    probe.
    """
    basis = stats.expected_basis_size()
    act_links = stats.link_types.get("act", 0)
    sim_links = stats.link_types.get("sim_item", 0)
    chosen = choose_strategy(
        stats.users_with_connections() > 0, act_links > 0, sim_links > 0
    )
    if chosen == "friends" and stats.users_with_connections() > 0:
        reason = (
            f"avg connection degree {basis:.1f} over "
            f"{stats.users_with_connections()} connected users with "
            f"{act_links} activities"
        )
    elif chosen == "item_based":
        reason = f"no connections; {sim_links} derived sim_item links"
    elif chosen == "similar_users":
        reason = f"no connections or sim_item links; {act_links} activities"
    else:
        reason = "no social signal in statistics; defaulting to friends"
    return chosen, reason


def _choose_social_path(
    node: SocialScoreE, stats: GraphStats, strategy_state: dict
) -> SocialPath:
    """Resolve the social stage's strategy; each has one physical form.

    Friend endorsement is the adjacency probe; the similarity strategies
    are one grouped aggregation pass.  Neither reads beyond the
    adjacency of nodes the requester led to.
    """
    resolved = node.strategy
    if resolved == "auto":
        resolved, reason = _resolve_strategy(stats)
        strategy_state["decision"] = StrategyDecision(
            op=node.describe(), chosen=resolved, reason=reason
        )
    strategy_state["resolved"] = resolved
    return SocialPath(resolved,
                      "probe" if resolved == "friends" else "group-agg")
