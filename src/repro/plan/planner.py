"""The query planner: compile-and-execute service over one live graph.

One :class:`QueryPlanner` is owned by each
:class:`~repro.discovery.discoverer.InformationDiscoverer` (and therefore
by each :class:`~repro.api.session.Session`).  It holds the plan cache
and one :class:`PlanState`: everything derived from the live graph,
replaced whole on every refresh, so an execution reads one of them from
start to end:

* **statistics** — :class:`~repro.core.stats.GraphStats` with the term
  histogram, collected lazily once per state and patched on every delta
  step: the only numbers plans are priced from;
* **the plan stamp** — compiled plans live in one
  :class:`~repro.plan.cache.PlanCache` per planner, keyed by (structural
  key, access, cost model) and stamped with the state's stamp, which is
  not a data generation: a plan holds no data, so a write that touched
  only links and left the statistics where no plan could tell
  (:meth:`QueryPlanner.refresh`) keeps every resident plan; an attach, a
  full refresh or a node write stales them all at once and the next
  request of a shape recompiles it under the same key;
* **the index binding** — where the semantic inverted index over the
  state's graph lives and which population it covers;
* **the columnar view** — the live graph's population held column-wise,
  cut lazily once per state for
  :class:`~repro.plan.physical.ColumnarScanOp`;
* **the sub-plan memo** — deterministic stage results of the state's
  graph.

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


class PlanState:
    """What the planner derives from one frozen graph, replaced whole: an
    execution reads the state it started with, so a memo is only ever
    filled from its own graph.  Statistics and view are cut lazily."""

    def __init__(
        self,
        graph: SocialContentGraph,
        index: IndexBinding | None,
        stamp: int,
        basis: tuple | None = None,
        stats: GraphStats | None = None,
        view: ColumnarView | None = None,
        memo: ResultMemo | None = None,
    ):
        self.graph = graph
        #: where the semantic inverted index over *graph* lives, if any
        self.index = index
        #: the plan-cache stamp: moves when resident plans must go (an
        #: attach, a full refresh, a node-touching step, drifted stats)
        self.stamp = stamp
        #: :func:`_plan_basis` of the statistics the resident plans were
        #: costed on (``None`` until first collected)
        self.basis = basis
        #: deterministic sub-plan results (connection bases, σN
        #: selections, their semantic orders), entry- and byte-bound
        self.memo = memo if memo is not None else ResultMemo()
        self._stats = stats
        self._view = view
        self._lock = threading.Lock()

    @property
    def stats(self) -> GraphStats:
        """Term-aware statistics of the graph (collected on first use)."""
        if self._stats is None:
            with self._lock:
                if self._stats is None:
                    self._stats = GraphStats.of(self.graph, with_terms=True)
                    if self.basis is None:
                        self.basis = _plan_basis(self._stats)
        return self._stats

    def columnar_view(self, graph: SocialContentGraph) -> ColumnarView | None:
        """The *columnar* view of *graph*, cut from this state's graph
        (analysis-derived records included); ``None`` for any other
        graph, so the operator degrades to a full scan rather than
        scanning the wrong population."""
        if graph is not self.graph:
            return None
        if self._view is None:
            with self._lock:
                if self._view is None:
                    self._view = cut_columnar_view(graph)
        return self._view

    def successor(
        self,
        graph: SocialContentGraph,
        delta: GraphDelta | None,
        index: IndexBinding | None,
    ) -> "PlanState":
        """The state of *graph*, one step on from this one.

        Without *delta* nothing is carried.  With it — the record changes
        that turn this graph into *graph* — the statistics are patched;
        after a links-only step the view keeps its node side and the memo
        its ``"select"`` and ``"order"`` entries and every ``"basis"``
        entry the step left true (:func:`~repro.core.social.basis_keeper`),
        and the stamp stays unless the statistics moved where a plan could
        tell (:data:`PLAN_DRIFT`, or a signal ``strategy="auto"`` reads).
        """
        stats = self._stats
        stats = stats.patched(delta, self.graph, graph) \
            if delta is not None and stats is not None else None
        view = memo = None
        if delta is not None and delta.links_only:
            if self._view is not None:
                view = cut_columnar_view(graph, node_side=self._view)
            keeps_basis = basis_keeper(graph, delta)
            memo = self.memo.carried(
                lambda key, result: key[0] in ("select", "order")
                or keeps_basis(key[1], result)
            )
            if stats is not None and not _drifted(
                self.basis, _plan_basis(stats)
            ):
                return PlanState(graph, index, self.stamp, self.basis,
                                 stats, view, memo)
        basis = _plan_basis(stats) if stats is not None else None
        return PlanState(graph, index, self.stamp + 1, basis, stats, view,
                         memo)


class QueryPlanner:
    """Compiles logical plans against a live graph, with a plan cache.

    *cache* defaults to a fresh :class:`PlanCache` of the planner's own.
    :attr:`state` is replaced whole by :meth:`refresh` and
    :meth:`attach_index` (their callers order them); :meth:`compile` and
    :meth:`execute` read the state they are handed, or the current one.
    """

    def __init__(
        self,
        graph: SocialContentGraph,
        cost_model: CostModel | None = None,
        cache: PlanCache | None = None,
        index: IndexBinding | None = None,
    ):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.cache = cache if cache is not None else PlanCache()
        self.state = PlanState(graph.freeze(), index, 0)

    @property
    def graph(self) -> SocialContentGraph:
        """The live graph (the current state's)."""
        return self.state.graph

    @property
    def stats(self) -> GraphStats:
        """Term-aware statistics of the live graph (lazy, per state)."""
        return self.state.stats

    # -- lifecycle ------------------------------------------------------------

    def refresh(
        self,
        graph: SocialContentGraph,
        delta: GraphDelta | None = None,
        index: IndexBinding | None = None,
    ) -> PlanState:
        """Point at a (possibly new) graph; returns the new current state.

        *delta* — the record changes from the current live graph to
        *graph* — carries what the step cannot have changed
        (:meth:`PlanState.successor`).  *index* binds the semantic index
        over *graph* (default: the current binding).
        """
        old = self.state
        self.state = old.successor(
            graph.freeze(), delta, index if index is not None else old.index
        )
        return self.state

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
        changes what plans compile to, so it stales every resident plan.
        """
        old = self.state
        binding = IndexBinding(item_type, provider, scorer_provider)
        self.state = PlanState(old.graph, binding, old.stamp + 1, old.basis)

    # -- compilation ----------------------------------------------------------

    def compile(
        self, expr: Expr, access: str = "auto", state: PlanState | None = None
    ) -> tuple[PhysicalPlan, bool]:
        """The compiled plan for *expr*, and whether the cache served it.

        The (frozen) cost model rides in the key: ``cost_model`` is a
        plain attribute callers reassign, and a plan costed under another
        model must not be served.
        """
        state = self.state if state is None else state
        structural_key = plan_key(expr)
        key = (structural_key, access, self.cost_model)
        cached = self.cache.get(key, state.stamp)
        if cached is not None:
            return cached, True
        plan = compile_plan(
            expr,
            state.stats,
            index=state.index,
            access=access,
            cost_model=self.cost_model,
            key=structural_key,
        )
        self.cache.put(key, state.stamp, plan)
        return plan, False

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        expr: Expr,
        env: Mapping[str, SocialContentGraph] | None = None,
        access: str = "auto",
        topk: int | None = None,
        deadline: float | None = None,
        state: PlanState | None = None,
    ) -> PlanExecution:
        """Compile (or fetch) and run a plan against one state's graph.

        *state* defaults to the current one.  *topk* bounds the ranking
        stage's sorted output (an execution parameter — cached plans
        serve any k).  *deadline* is an absolute monotonic timestamp the
        execution's cooperative checks enforce.
        """
        state = self.state if state is None else state
        plan, cache_hit = self.compile(expr, access, state)
        index = state.index
        execution = plan.execute(
            env if env is not None else {BASE_GRAPH: state.graph},
            index_provider=index.provider if index is not None else None,
            view_provider=state.columnar_view,
            # the sub-plan memo assumes the default environment: a custom
            # env may bind G to a different graph than the memo was cut on
            result_cache=state.memo if env is None else None,
            topk=topk,
            deadline=deadline,
        )
        execution.cache_hit = cache_hit
        return execution

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
        state: PlanState | None = None,
    ) -> PlanExecution:
        """Compile and run the *whole* discovery pipeline as one plan.

        semantic σN⟨C,S⟩ candidates → connection basis → social scoring
        (strategy-parameterised; ``"auto"`` lets the compiler pick from
        statistics) → α-combination.  The candidate sub-plan is shared
        between the scoring and combination stages (a DAG, as in Example
        4), so it executes once; EXPLAIN covers every operator of the
        pipeline and the plan cache covers the full query shape.  *limit*
        pushes the caller's result budget into the ranking stage (top-k
        instead of a full sort) without entering the plan shape.  *state*
        is the planner state to run against (default: the current one).
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
                            deadline=deadline, state=state)

