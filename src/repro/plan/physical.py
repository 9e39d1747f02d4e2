"""Physical operators: the executable layer below the logical algebra.

The logical plan (:mod:`repro.core.expr`) says *what* to compute; a
physical plan says *how*.  Most operators have exactly one sensible
implementation and lower to :class:`ScanOp`, which delegates to the
logical node's eager compute.  Where a real access-path choice exists —
keyword selection over the indexed item population — the compiler may
lower to :class:`IndexKeywordScanOp`, which reads
:class:`~repro.indexing.semantic.SemanticItemIndex` posting lists instead
of scanning every node (§6.2's "inverted lists are a natural index
structure"), with bit-for-bit identical scores by the index's parity
contract.

Execution profiles itself: every operator records its actual output
cardinality and wall time into the :class:`ExecContext`, so an executed
plan can be rendered EXPLAIN-style with estimated vs. actual cardinalities
per operator (:meth:`PhysicalPlan.render`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.expr import Expr, LiteralE, iter_plan_nodes
from repro.core.faults import fault_point
from repro.core.optimizer import OptimizeReport
from repro.core.graph import SocialContentGraph
from repro.core.social import SemanticOrder, fused_social_combine
from repro.core.stats import Card, GraphStats
from repro.errors import DeadlineError, ExpressionError
from repro.plan.columnar import ColumnarView, VectorCondition, link_subgraph

#: Access-path tags used in plan rendering and response metadata.
SCAN = "scan"
INDEX = "index"
#: Physical-form tag of the columnar scan.
COLUMNAR = "columnar-scan"

class ExecContext:
    """Mutable per-execution state: inputs, memo, and operator profiles."""

    def __init__(
        self,
        env: Mapping[str, SocialContentGraph],
        index_provider: Callable[[], Any] | None = None,
        view_provider: Callable[
            [SocialContentGraph], ColumnarView | None
        ] | None = None,
    ):
        self.env = env
        self.index_provider = index_provider
        #: base graph → its columnar view (None when the graph is not the
        #: one the provider cut its view from — the op degrades to a scan)
        self.view_provider = view_provider
        #: result-size bound pushed down from the caller (``None`` = no
        #: bound): the social root orders only the top k rows instead of
        #: the full candidate set
        self.topk: int | None = None
        #: per-operator results, keyed by physical node identity (the DAG
        #: dedup — shared sub-plans execute once, as in Expr.evaluate)
        self.memo: dict[int, SocialContentGraph] = {}
        #: per-operator (actual cardinality, elapsed seconds)
        self.actuals: dict[int, tuple[Card, float]] = {}
        #: id()s of result graphs aliased straight from env/literal inputs
        self.borrowed: set[int] = set()
        #: id()s of operators that degraded from their planned access path
        #: at runtime (a columnar scan falling back to the row scan)
        self.degraded: set[int] = set()
        #: operator id → plain-value output (the social root's ranking,
        #: handed to consumers instead of a graph)
        self.payloads: dict[int, Any] = {}
        #: the planner state's sub-plan result memo: ops carrying a
        #: ``memo_key`` — deterministic base-graph stages like the
        #: connection basis — reuse results across executions on that
        #: state's graph.  ``None`` disables (custom environments).
        self.result_cache: dict | None = None
        #: operator ids whose result came from the sub-plan memo
        self.subplan_hits: set[int] = set()
        #: absolute monotonic deadline for this execution (``None`` = no
        #: deadline — the check is then a single branch).  Cooperative:
        #: checked between operators, so one running kernel bounds the
        #: expiry lag
        self.deadline: float | None = None
        #: monotonic stamp when execution began (set by ``execute`` when
        #: a deadline is in force; gives ``DeadlineError.elapsed_s``)
        self.deadline_anchor = 0.0

    def check_deadline(self, stage: str | Callable[[], str]) -> None:
        """Cooperative deadline checkpoint — raise if the clock ran out.

        *stage* may be a callable so callers avoid building the label
        string on the (overwhelmingly common) non-expired path.
        """
        if self.deadline is None:
            return
        now = time.monotonic()
        if now < self.deadline:
            return
        label = stage() if callable(stage) else stage
        raise DeadlineError(label, now - self.deadline_anchor)


class PhysicalOp:
    """Base class of executable operators; children execute first."""

    #: access-path tag shown in EXPLAIN output (None = not an access choice)
    access_path: str | None = None

    def __init__(self, logical: Expr, children: Sequence["PhysicalOp"] = ()):
        self.logical = logical
        self.children = tuple(children)
        #: structural key under which this op's result may be memoised
        #: *across* executions of one graph generation (set by the
        #: compiler only for deterministic base-graph stages; ``None``
        #: means never)
        self.memo_key: Any = None

    def estimate(self, stats: GraphStats) -> Card:
        """Estimated *output* cardinality (access-path independent)."""
        return self.logical.estimate(stats)

    def describe(self) -> str:
        """One-line operator description for plan rendering."""
        return self.logical.describe()

    def execute(self, ctx: ExecContext) -> SocialContentGraph:
        """Run this operator, children first (memoised per execution)."""
        key = id(self)
        if key in ctx.memo:
            return ctx.memo[key]
        inputs = [child.execute(ctx) for child in self.children]
        return self.run_profiled(ctx, inputs)

    def run_profiled(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        """Run over already-evaluated inputs, recording the profile slot."""
        key = id(self)
        if key in ctx.memo:
            return ctx.memo[key]
        memo_key = self.memo_key
        cache = ctx.result_cache if memo_key is not None else None
        if cache is not None:
            cached = cache.get(memo_key)
            if cached is not None:
                ctx.subplan_hits.add(key)
                # cached results are shared across executions: never let
                # a caller mutate one (the root-result copy guard)
                ctx.borrowed.add(id(cached))
                self._record(ctx, cached, 0.0)
                return cached
        ctx.check_deadline(self.describe)
        start = time.perf_counter()
        result = self._run(ctx, inputs)
        elapsed = time.perf_counter() - start
        self._store_result_memo(ctx, result)
        self._record(ctx, result, elapsed)
        return result

    def _store_result_memo(
        self, ctx: ExecContext, result: SocialContentGraph
    ) -> None:
        """Publish a freshly computed result to the sub-plan memo.

        Marks the graph borrowed: the memo now owns it, so if it
        surfaces as the plan result the caller must get a copy (the
        borrow guard) — a hostile mutation cannot poison later
        executions.
        """
        if self.memo_key is not None and ctx.result_cache is not None:
            ctx.result_cache[self.memo_key] = result
            ctx.borrowed.add(id(result))

    def _record(
        self, ctx: ExecContext, result: SocialContentGraph, elapsed: float
    ) -> None:
        key = id(self)
        ctx.memo[key] = result
        ctx.actuals[key] = (Card(result.num_nodes, result.num_links), elapsed)

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        raise NotImplementedError


class InputOp(PhysicalOp):
    """Fetch a named base graph from the execution environment."""

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        name = self.logical.name  # type: ignore[attr-defined]
        if name not in ctx.env:
            raise ExpressionError(f"no input graph named {name!r} supplied")
        graph = ctx.env[name]
        ctx.borrowed.add(id(graph))
        return graph


class LiteralOp(PhysicalOp):
    """An inline constant graph."""

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        graph = self.logical.graph  # type: ignore[attr-defined]
        ctx.borrowed.add(id(graph))
        return graph


class ScanOp(PhysicalOp):
    """The default physical form: the logical operator's eager compute."""

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        return self.logical._compute(inputs)


class IndexKeywordScanOp(PhysicalOp):
    """σN over the item population served from inverted posting lists.

    Lowered only for keyword selections whose scope is exactly the indexed
    item type and whose scorer is the index's shared tf-idf (checked at
    compile time), so the produced null graph — matching items with their
    scores attached — is record-for-record what :class:`ScanOp` would
    build.  If the index provider disappears between compile and execute,
    the operator degrades to the scan compute rather than failing, and
    says so (EXPLAIN's ``(degraded→row scan)``, ``degraded_ops``).
    """

    access_path = INDEX

    def __init__(
        self, logical: Expr, children: Sequence[PhysicalOp], item_type: str
    ):
        super().__init__(logical, children)
        self.item_type = item_type
        self.keywords = logical.condition.keywords  # type: ignore[attr-defined]

    def describe(self) -> str:
        return f"{self.logical.describe()} [index:{self.item_type}]"

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        index = ctx.index_provider() if ctx.index_provider is not None else None
        if index is None:
            ctx.degraded.add(id(self))
            return self.logical._compute(inputs)
        graph = inputs[0]
        scores = index.candidates(self.keywords)
        return graph.null_graph(
            graph.node(item).with_score(score)
            for item, score in scores.items()
            if graph.has_node(item)
        )


class ColumnarScanOp(PhysicalOp):
    """σN over the planner's columnar view of the base graph.

    Lowered for node selections over a base input graph whose population
    is large enough to pay for columnar evaluation.  The operator's
    precompiled :class:`VectorCondition` runs over the view's columns —
    type buckets, dictionary-encoded attribute columns, term postings —
    exchanging compact position sets and gathering records only for the
    survivors, so the result is record-for-record the row scan's (the
    parity contract, held by the columnar differential suite) while the
    per-row predicate loop never runs on rows the columns excluded.

    If the view provider is missing at execution time — or cut its view
    from a different graph than the one bound in the environment — the
    operator degrades to the plain scan rather than risking drift.
    """

    access_path = COLUMNAR

    def __init__(self, logical: Expr, children: Sequence[PhysicalOp],
                 prune_type: Any | None = None, covered: bool = False):
        super().__init__(logical, children)
        #: type value the condition pins (conjunctive HasType /
        #: type-equality), enabling type-bucket pruning; None scans
        #: every row of the view
        self.prune_type = prune_type
        #: True when the compiler proved the condition ≡ the type pin
        #: alone (no keywords, no scorer, no further predicates): the
        #: bucket *is* the selection, no per-node test runs at all
        self.covered = covered
        #: the condition compiled for columnar evaluation (pure function
        #: of the condition — shared across executions)
        self.vector_condition = VectorCondition(
            logical.condition  # type: ignore[attr-defined]
        )

    def describe(self) -> str:
        if self.covered:
            prune = f":{self.prune_type}*"
        elif self.prune_type is not None:
            prune = f":{self.prune_type}"
        else:
            prune = ""
        return f"{self.logical.describe()} [columnar{prune}]"

    def _select(self, base: SocialContentGraph,
                view: ColumnarView) -> SocialContentGraph:
        if self.covered:
            # the bucket is the selection, verbatim (and cached: repeats
            # of a covered scan re-serve the materialised list)
            nodes = view.type_bucket_nodes(self.prune_type)
        else:
            nodes = self.vector_condition.select(
                view, self.logical.scorer,  # type: ignore[attr-defined]
            )
        return base.null_graph_unique(nodes)

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        provider = ctx.view_provider
        view = provider(inputs[0]) if provider is not None else None
        if view is None:
            ctx.degraded.add(id(self))
            return self.logical._compute(inputs)
        fault_point("physical.scan")
        return self._select(inputs[0], view)


class ColumnarLinkScanOp(ColumnarScanOp):
    """σL over the columnar view's link population.

    The link twin of :class:`ColumnarScanOp`, with the same view fetch,
    degrade and fault point: a condition pinning a type tests only that
    link-type bucket, and the result is the induced subgraph — selected
    links plus their endpoint records pulled from the base graph.  This
    is the form feeding semi-join probes whose left side is a base-graph
    link selection.
    """

    def describe(self) -> str:
        prune = f":{self.prune_type}" if self.prune_type is not None else ""
        return f"{self.logical.describe()} [columnar-links{prune}]"

    def _select(self, base: SocialContentGraph,
                view: ColumnarView) -> SocialContentGraph:
        return link_subgraph(base, self.vector_condition.select_links(
            view, self.logical.scorer,  # type: ignore[attr-defined]
            prune_type=self.prune_type,
        ))


class FusedSocialCombineOp(PhysicalOp):
    """The social root: scoring, α-combination and ranking in one operator.

    Every discovery pipeline ends here.  When the social stage's result
    feeds only the combination (the shape ``discovery_pipeline`` builds)
    the compiler fuses the pair whatever the social form — the adjacency
    probe for friend endorsement, grouped aggregation for the similarity
    strategies — and the kernel
    (:func:`repro.core.social.fused_social_combine`) computes scores and
    provenance as plain dicts, ranks only the caller's window
    (``ctx.topk``) and hands over the
    :class:`~repro.core.social.DecodedSocialResult` as the execution's
    payload.  No record is built: the operator's result graph is empty,
    and its EXPLAIN actual is the size the combined graph would have
    (``encoded_size``), so EXPLAIN reads the same numbers.

    Children are ``(graph, candidates, basis)`` — the social stage's
    inputs; the combination's candidate input is the same sub-plan, DAG
    -shared, so it still executes once.
    """

    def __init__(self, logical: Expr, social: Expr,
                 children: Sequence[PhysicalOp], strategy: str, form: str):
        super().__init__(logical, children)
        self.social = social
        self.strategy = strategy
        #: physical form of the fused social half ("probe" / "group-agg")
        self.form = form

    def describe(self) -> str:
        return f"combine+social⟨{self.strategy}⟩ [fused-{self.form}]"

    def _run(
        self, ctx: ExecContext, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        graph, candidates, basis = inputs
        ctx.payloads[id(self)] = fused_social_combine(
            graph,
            candidates,
            basis,
            strategy=self.strategy,
            user_id=self.social.user_id,  # type: ignore[attr-defined]
            alpha=self.logical.alpha,  # type: ignore[attr-defined]
            keywords=self.social.keywords,  # type: ignore[attr-defined]
            sim_threshold=self.social.sim_threshold,  # type: ignore[attr-defined]
            act_type=self.social.act_type,  # type: ignore[attr-defined]
            drop_zero=self.logical.drop_zero,  # type: ignore[attr-defined]
            limit=ctx.topk,
            order=self._semantic_order(ctx, candidates),
        )
        return SocialContentGraph(catalog=candidates.catalog)

    def _semantic_order(
        self, ctx: ExecContext, candidates: SocialContentGraph
    ) -> SemanticOrder | None:
        """The kept :class:`~repro.core.social.SemanticOrder` of
        *candidates*: in the sub-plan memo beside the σN entry it derives
        from, checked by identity against that value (``None`` without a
        memo, or when the candidates are not a memoised stage)."""
        select_key = self.children[1].memo_key
        cache = ctx.result_cache
        if cache is None or select_key is None:
            return None
        key = ("order", select_key)
        order = cache.get(key)
        if order is None or order.candidates is not candidates:
            order = SemanticOrder(candidates)
            cache[key] = order
        return order

    def _record(
        self, ctx: ExecContext, result: SocialContentGraph, elapsed: float
    ) -> None:
        super()._record(ctx, result, elapsed)
        size = ctx.payloads[id(self)].encoded_size
        ctx.actuals[id(self)] = (Card(*size), elapsed)


@dataclass(frozen=True)
class OperatorProfile:
    """One EXPLAIN row: an operator with estimated vs. actual cardinality."""

    op: str
    depth: int
    estimated: Card
    actual: Card | None
    elapsed_s: float
    access_path: str | None = None

    def line(self) -> str:
        actual = (
            f"act {self.actual.nodes:.0f}n/{self.actual.links:.0f}l"
            if self.actual is not None
            else "act -"
        )
        return (
            f"{'  ' * self.depth}{self.op}  "
            f"[est {self.estimated!r}  {actual}  "
            f"{self.elapsed_s * 1e3:.2f}ms]"
        )


@dataclass
class PlanExecution:
    """One execution of a physical plan: its answer + operator profiles.

    Operator profiles are *lazy*: rendering EXPLAIN rows re-estimates
    every operator against the statistics, which serving paths that never
    look at the plan should not pay for.  The raw execution context is
    kept instead and the rows materialise on first access.
    """

    plan: "PhysicalPlan"
    #: the root's result graph.  For a discovery pipeline (root
    #: :class:`FusedSocialCombineOp`) it is an empty graph — the answer is
    #: :attr:`payload`; ``Expr.evaluate`` of the same plan builds the
    #: combined graph the payload decodes.
    result: SocialContentGraph
    ctx: ExecContext
    cache_hit: bool = False
    #: operators that abandoned their planned access path at runtime
    degraded_ops: int = 0
    #: result bound pushed into the ranking stage (None = full ranking)
    topk: int | None = None
    _profiles_cache: tuple[OperatorProfile, ...] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def profiles(self) -> tuple[OperatorProfile, ...]:
        """Per-operator EXPLAIN rows (materialised on first access)."""
        if self._profiles_cache is None:
            self._profiles_cache = tuple(self.plan._profiles(self.ctx))
        return self._profiles_cache

    @property
    def op_actuals(self) -> dict:
        """Physical op → (actual cardinality, elapsed seconds).

        The raw profile map, keyed by op identity rather than render
        strings.
        """
        actuals = self.ctx.actuals
        return {
            op: actuals[id(op)]
            for op in PhysicalPlan._walk(self.plan.root, set())
            if id(op) in actuals
        }

    @property
    def payload(self) -> Any:
        """The root's plain-value answer, if it has one.

        For a discovery pipeline this is the social root's
        :class:`~repro.core.social.DecodedSocialResult`: the ranking cut
        to ``topk``, the survivor count ``matched``, and scores and
        provenance of every survivor.  ``None`` for plans whose root
        answers with its result graph.
        """
        return self.ctx.payloads.get(id(self.plan.root))

    def scores(self) -> dict:
        """The result as a score map (Def 1 null-graph reading).

        Unscored nodes map to 0.0 — exactly how the discovery pipeline
        reads a scoped-but-unscored candidate set.
        """
        return {node.id: (node.score or 0.0) for node in self.result.nodes()}

    @property
    def used_index(self) -> bool:
        return self.plan.uses_index

    def render(self) -> str:
        """EXPLAIN ANALYZE-style tree: every operator, est vs. actual."""
        topk = f"  top-k={self.topk}" if self.topk is not None else ""
        header = [
            f"access={self.plan.access_path}  "
            f"cache={'hit' if self.cache_hit else 'miss'}{topk}"
        ]
        if self.plan.rewrites.applied:
            header.append(f"rewrites: {', '.join(self.plan.rewrites.applied)}")
        return "\n".join(header + [p.line() for p in self.profiles])


class PhysicalPlan:
    """A compiled, executable plan with cardinality bookkeeping.

    Produced by :func:`repro.plan.compiler.compile_plan`; immutable once
    built, so one compiled plan can serve any number of executions (the
    plan cache relies on this).
    """

    def __init__(
        self,
        root: PhysicalOp,
        logical: Expr,
        source: Expr,
        rewrites: OptimizeReport,
        stats: GraphStats,
        key: Any,
        decisions: tuple = (),
        # StrategyDecision lives in the compiler, which imports this
        # module; typing it here would close an import cycle
        strategy_decision: Any = None,
        resolved_strategy: str | None = None,
    ):
        self.root = root
        self.logical = logical
        self.source = source
        self.rewrites = rewrites
        self.stats = stats
        self.key = key
        #: access-path decisions the compiler made (one per choice costed)
        self.decisions = decisions
        #: the cost-based strategy pick when the query left it open
        self.strategy_decision = strategy_decision
        #: concrete social strategy the lowered plan runs (None when the
        #: plan has no social stage)
        self.resolved_strategy = resolved_strategy

    @property
    def uses_index(self) -> bool:
        """True when any operator reads the semantic inverted index."""
        return any(
            op.access_path == INDEX for op in self._walk(self.root, set())
        )

    @property
    def access_path(self) -> str:
        """Dominant access path tag for response metadata."""
        return INDEX if self.uses_index else SCAN

    @staticmethod
    def _walk(op: PhysicalOp, seen: set) -> Iterator[PhysicalOp]:
        if id(op) in seen:
            return
        seen.add(id(op))
        yield op
        for child in op.children:
            yield from PhysicalPlan._walk(child, seen)

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        env: Mapping[str, SocialContentGraph],
        index_provider: Callable[[], Any] | None = None,
        view_provider: Callable[
            [SocialContentGraph], ColumnarView | None
        ] | None = None,
        result_cache: dict | None = None,
        topk: int | None = None,
        deadline: float | None = None,
    ) -> PlanExecution:
        """Run the plan; the result never aliases an input/literal graph.

        *topk* is an execution parameter, not part of the plan shape (so
        cached plans serve any k): the social root bounds its ranking to
        the top *k* rows instead of ordering the full candidate set.
        Scores and provenance are unaffected — only the ranking list is
        cut.

        *deadline* is an absolute monotonic timestamp (``None`` = none):
        cooperative checks between operators raise :class:`~repro.errors.DeadlineError` once it has
        passed, unwinding the execution promptly instead of finishing
        doomed work.
        """
        ctx = ExecContext(env, index_provider, view_provider)
        ctx.result_cache = result_cache
        ctx.topk = topk
        if deadline is not None:
            ctx.deadline = deadline
            ctx.deadline_anchor = time.monotonic()
        result = self.root.execute(ctx)
        if id(result) in ctx.borrowed:
            result = result.copy()
        return PlanExecution(
            plan=self, result=result, ctx=ctx,
            degraded_ops=len(ctx.degraded),
            topk=topk,
        )

    def _profiles(self, ctx: ExecContext, op: PhysicalOp | None = None,
                  depth: int = 0) -> Iterator[OperatorProfile]:
        op = op if op is not None else self.root
        actual, elapsed = ctx.actuals.get(id(op), (None, 0.0))
        description = op.describe()
        if id(op) in ctx.degraded:
            description += " (degraded→row scan)"
        if id(op) in ctx.subplan_hits:
            description += " (memo)"
        yield OperatorProfile(
            op=description,
            depth=depth,
            estimated=op.estimate(self.stats),
            actual=actual,
            elapsed_s=elapsed,
            access_path=op.access_path,
        )
        for child in op.children:
            yield from self._profiles(ctx, child, depth + 1)

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        """Pre-execution plan tree with estimates only."""
        lines = []

        def walk(op: PhysicalOp, depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{op.describe()}  [est {op.estimate(self.stats)!r}]"
            )
            for child in op.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        ops = sum(1 for _ in self._walk(self.root, set()))
        return (
            f"PhysicalPlan(ops={ops}, access={self.access_path}, "
            f"rewrites={len(self.rewrites.applied)})"
        )
