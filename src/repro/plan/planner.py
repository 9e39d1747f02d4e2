"""The query planner: compile-and-execute service over one live graph.

One :class:`QueryPlanner` is owned by each
:class:`~repro.discovery.discoverer.InformationDiscoverer` (and therefore
by each :class:`~repro.api.session.Session`).  It holds the pieces
compilation needs and serving must keep coherent:

* **statistics** — :class:`~repro.core.stats.GraphStats` with the term
  histogram, collected lazily once per graph generation and patched on
  every delta step: the only numbers plans are priced from;
* **the plan cache** — one :class:`~repro.plan.cache.PlanCache` per
  planner: compiled plans are keyed by (structural key, access, cost
  model) and stamped with the *plan generation*, which is not the data
  generation: a plan holds no data, so a write that touched only links
  and left the statistics where no plan could tell
  (:meth:`QueryPlanner.refresh`) keeps every resident plan; an attach, a
  full refresh or a node write stales them all at once and the next
  request of a shape recompiles it under the same key;
* **the index binding** — where the semantic inverted index lives and
  which population it covers, attached by the session;
* **the columnar view** — the live graph's population held column-wise,
  cut lazily once per generation for
  :class:`~repro.plan.physical.ColumnarScanOp`.

``discovery_pipeline`` is the serving entry point: it builds the whole
plan of a parsed query — σN candidates, connection basis, social scoring,
α-combination — and runs it through the compiler, which is how both
``Session.run`` and ``InformationDiscoverer.discover_query`` execute
every query.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

from repro.core.expr import (
    CombineScoresE,
    ConnectionBasisE,
    Expr,
    SocialScoreE,
    input_graph,
    plan_key,
)
from repro.core.delta import GraphDelta
from repro.core.graph import SocialContentGraph
from repro.core.social import basis_keeper
from repro.core.stats import GraphStats
from repro.plan.cache import PlanCache, ResultMemo
from repro.plan.columnar import ColumnarView, cut_columnar_view
from repro.plan.compiler import CostModel, IndexBinding, compile_plan
from repro.plan.physical import PhysicalPlan, PlanExecution

#: Name under which the planner binds its live graph in plan environments.
BASE_GRAPH = "G"

#: Compiled plans outlive a patched refresh until the node or the link
#: count has drifted by more than this share of what they were costed on.
PLAN_DRIFT = 1 / 8


def _plan_basis(stats: GraphStats) -> tuple:
    """What resident plans were costed on: the two counts access paths are
    priced by, and the three signals ``strategy="auto"`` resolves from —
    the one statistic a plan's *result* depends on."""
    return (
        stats.num_nodes,
        stats.num_links,
        (
            stats.users_with_connections() > 0,
            stats.link_types.get("act", 0) > 0,
            stats.link_types.get("sim_item", 0) > 0,
        ),
    )


def _drifted(costed: tuple, now: tuple) -> bool:
    return costed[2] != now[2] or any(
        abs(a - b) > PLAN_DRIFT * a for a, b in zip(costed[:2], now[:2])
    )


class QueryPlanner:
    """Compiles logical plans against a live graph, with a plan cache.

    *cache* defaults to a fresh :class:`PlanCache` of the planner's own.
    The live graph is frozen on adoption, so :attr:`generation` alone
    stamps what is derived from it.
    """

    def __init__(
        self,
        graph: SocialContentGraph,
        cost_model: CostModel | None = None,
        cache: PlanCache | None = None,
    ):
        self.graph = graph.freeze()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.cache = cache if cache is not None else PlanCache()
        #: bumped on every refresh/attach — stamps every derived structure
        self.generation = 0
        #: bumped when resident plans must go: an attach, a full refresh,
        #: a node-touching step, drifted statistics (see :meth:`refresh`)
        self._plan_generation = 0
        #: :func:`_plan_basis` of the statistics the resident plans were
        #: costed on (``None`` until the first statistics of a plan
        #: generation are collected)
        self._plan_basis: tuple | None = None
        self._stats: GraphStats | None = None
        self._stats_generation = -1
        self._index: IndexBinding | None = None
        #: lazily built *columnar* view of the live graph (node rows +
        #: link rows + lazy columns/buckets/postings), stamped with the
        #: generation it was cut under
        self._view: ColumnarView | None = None
        self._view_generation = -1
        #: generation-stamped memo of deterministic sub-plan results
        #: (connection bases, σN selections): repeated queries skip
        #: re-deriving them; bounded by entries *and* estimated bytes
        self._subplan_results = ResultMemo()
        self._subplan_generation = -1
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def refresh(
        self, graph: SocialContentGraph, delta: GraphDelta | None = None
    ) -> None:
        """Point at a (possibly new) graph and move the generation.

        Without *delta* everything derived is dropped: statistics rebuild
        lazily on the next compile, the columnar view re-cut on the next
        columnar scan, stale cache entries die on lookup — so
        back-to-back refreshes cost nothing (the session's dirty-flag
        discipline).

        With *delta* — the record changes that turn the current live
        graph into *graph*, nothing else having touched either — each
        structure keeps what the step cannot have changed, as a new
        object (the old ones may be serving a request).  The statistics
        are patched.  When the step touched only links, the view keeps
        its node side, the sub-plan memo its ``"select"`` entries, the
        semantic ``"order"`` of each, and every ``"basis"`` entry the
        step left true (:func:`~repro.core.social.basis_keeper`); the
        view's link side goes.
        Compiled plans hold no data, so they stay through a link-only
        step unless the statistics moved where a plan could tell: a
        count beyond :data:`PLAN_DRIFT`, or a signal
        ``strategy="auto"`` resolves from.  A step that touched a node
        keeps the statistics only (the scorer plans embed is replaced
        with the corpus).
        """
        with self._lock:
            before = self.generation
            old = self.graph
            stats = self._stats if self._stats_generation == before else None
            view = self._view if self._view_generation == before else None
            memo = self._subplan_results \
                if self._subplan_generation == before else None
            self.graph = graph.freeze()
            self.generation += 1
            self._stats = self._view = None
            after = self.generation
            if delta is not None and stats is not None:
                self._stats = stats.patched(delta, old, graph)
                self._stats_generation = after
            if delta is not None and delta.links_only:
                if view is not None:
                    self._view = cut_columnar_view(graph, node_side=view)
                    self._view_generation = after
                if memo is not None:
                    keeps_basis = basis_keeper(graph, delta)
                    self._subplan_results = memo.carried(
                        lambda key, result: key[0] in ("select", "order")
                        or keeps_basis(key[1], result)
                    )
                    self._subplan_generation = after
                if self._stats is not None and not _drifted(
                    self._plan_basis, _plan_basis(self._stats)
                ):
                    return
            self._plan_generation += 1
            self._plan_basis = (
                _plan_basis(self._stats) if self._stats is not None else None
            )

    def attach_index(
        self,
        item_type: str,
        provider: Callable[[], Any],
        scorer_provider: Callable[[], Any] | None = None,
    ) -> None:
        """Declare a semantic index over *item_type* nodes of the graph.

        *provider* materialises the index lazily (called only when a plan
        actually takes the index path); *scorer_provider* exposes the
        scorer shared with the scan path for the parity check.  Attaching
        changes what plans compile to, so it bumps the generation.
        """
        with self._lock:
            self._index = IndexBinding(
                item_type=item_type,
                provider=provider,
                scorer_provider=scorer_provider,
            )
            self.generation += 1
            self._plan_generation += 1

    @property
    def index_binding(self) -> IndexBinding | None:
        return self._index

    # -- the columnar view ----------------------------------------------------

    def columnar_view(self, graph: SocialContentGraph) -> ColumnarView | None:
        """The *columnar* view of *graph*.

        The view is cut from the *planner's* live graph (not the physical
        store) so analysis-derived records are in it too; requests for
        any other graph return ``None`` and the operator degrades to a
        full scan rather than scanning the wrong population.  One pass
        per graph generation pays for every columnar scan of that
        generation; the view's derived columns — type buckets, attribute
        columns, term postings — build lazily inside it and live just as
        long.
        """
        if graph is not self.graph:
            return None
        with self._lock:
            if self._view_generation != self.generation or \
                    self._view is None:
                self._view = cut_columnar_view(graph)
                self._view_generation = self.generation
            return self._view

    @property
    def stats(self) -> GraphStats:
        """Term-aware statistics of the live graph (lazy, per generation)."""
        now = self.generation
        if self._stats is None or self._stats_generation != now:
            with self._lock:
                if self._stats is None or self._stats_generation != now:
                    stats = GraphStats.of(self.graph, with_terms=True)
                    self._stats = stats
                    self._stats_generation = now
                    if self._plan_basis is None:
                        self._plan_basis = _plan_basis(stats)
        return self._stats

    # -- compilation ----------------------------------------------------------

    def compile(self, expr: Expr, access: str = "auto") -> tuple[PhysicalPlan, bool]:
        """The compiled plan for *expr*, and whether the cache served it.

        The (frozen) cost model rides in the key: ``cost_model`` is a
        plain attribute callers reassign, and a plan costed under another
        model must not be served.
        """
        structural_key = plan_key(expr)
        key = (structural_key, access, self.cost_model)
        stamp = self._plan_generation
        cached = self.cache.get(key, stamp)
        if cached is not None:
            return cached, True
        plan = compile_plan(
            expr,
            self.stats,
            index=self._index,
            access=access,
            cost_model=self.cost_model,
            key=structural_key,
        )
        self.cache.put(key, stamp, plan)
        return plan, False

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        expr: Expr,
        env: Mapping[str, SocialContentGraph] | None = None,
        access: str = "auto",
        topk: int | None = None,
        deadline: float | None = None,
    ) -> PlanExecution:
        """Compile (or fetch) and run a plan against the live graph.

        *topk* bounds the ranking stage's sorted output (an execution
        parameter — cached plans serve any k).  *deadline* is an absolute
        monotonic timestamp the execution's cooperative checks enforce.
        """
        plan, cache_hit = self.compile(expr, access)
        provider = self._index.provider if self._index is not None else None
        # the sub-plan memo assumes the default environment: a custom
        # env may bind G to a different graph than the memo was cut on
        run_env = env if env is not None else {BASE_GRAPH: self.graph}
        result_cache = self._subplan_cache() if env is None else None
        execution = plan.execute(
            run_env,
            index_provider=provider,
            view_provider=self.columnar_view,
            result_cache=result_cache,
            topk=topk,
            deadline=deadline,
        )
        execution.cache_hit = cache_hit
        return execution

    def _subplan_cache(self) -> ResultMemo:
        """The generation-stamped sub-plan result memo (entry- and byte-bound).

        The memo's own LRU handles the running budget; a stale generation
        (a refresh, an attach) *rebinds* a fresh memo rather than
        clearing in place — an in-flight execution still holds the old
        object and may write pre-invalidation results into it, which must
        land in the orphan, never in the memo new-generation queries read.
        """
        with self._lock:
            if self._subplan_generation != self.generation:
                self._subplan_results = ResultMemo()
                self._subplan_generation = self.generation
            return self._subplan_results

    def discovery_pipeline(
        self,
        # a parsed discovery query; typed loosely because the plan layer
        # must not import repro.discovery (layer DAG)
        query: Any,
        item_type: str = "item",
        scorer: Any = None,
        strategy: str = "friends",
        sim_threshold: float = 0.1,
        act_type: str = "visit",
        alpha: float = 0.5,
        drop_zero: bool = True,
        access: str = "auto",
        limit: int | None = None,
        deadline: float | None = None,
    ) -> PlanExecution:
        """Compile and run the *whole* discovery pipeline as one plan.

        semantic σN⟨C,S⟩ candidates → connection basis → social scoring
        (strategy-parameterised; ``"auto"`` lets the compiler pick from
        statistics) → α-combination.  The candidate sub-plan is shared
        between the scoring and combination stages (a DAG, as in Example
        4), so it executes once; EXPLAIN covers every operator of the
        pipeline and the plan cache covers the full query shape.  *limit*
        pushes the caller's result budget into the ranking stage (top-k
        instead of a full sort) without entering the plan shape.
        """
        condition = query.scope_condition(default_type=item_type)
        G = input_graph(BASE_GRAPH)
        candidates = G.select_nodes(
            condition, scorer if condition.has_keywords else None
        )
        basis = ConnectionBasisE(
            G,
            user_id=query.user_id,
            keywords=tuple(query.keywords),
        )
        social = SocialScoreE(
            G,
            candidates,
            basis,
            strategy=strategy,
            user_id=query.user_id,
            keywords=tuple(query.keywords),
            sim_threshold=sim_threshold,
            act_type=act_type,
        )
        root = CombineScoresE(candidates, social, alpha=alpha,
                              drop_zero=drop_zero)
        return self.execute(root, access=access, topk=limit,
                            deadline=deadline)

