"""Physical planning: logical → physical compilation, cost, cache, EXPLAIN.

The paper positions the social content algebra as "the foundation for the
optimization of" analysis and discovery; this package is where that
foundation carries weight.  Every serving query — ``Session.run``,
``InformationDiscoverer.discover_query`` — builds a logical
:class:`~repro.core.expr.Expr` plan and executes it through here:

* :mod:`repro.plan.compiler` — rule-optimize, then lower each logical
  operator to a physical one, choosing access paths (semantic-index
  keyword selection vs. full scan; columnar vs. row scan) and — when
  the request leaves it open — the social strategy itself, from a
  :class:`CostModel` fed by :class:`~repro.core.stats.GraphStats`; the
  social stage has one form per strategy, fused into the root;
* :mod:`repro.plan.physical` — the executable operators, self-profiling
  with per-operator actual cardinalities;
* :mod:`repro.plan.cache` — the planner's token-stamped LRU of compiled
  plans, invalidated wholesale by any graph change;
* :mod:`repro.plan.planner` — the per-session service tying the three
  together;
* :mod:`repro.plan.explain` — the frozen EXPLAIN view responses carry.

New physical strategies (more indexes, columnar scans) slot in as new
:class:`PhysicalOp` subclasses plus a lowering rule — no serving-path
rewrite required.
"""

from repro.plan.cache import (
    CacheStats,
    PlanCache,
    ResultMemo,
    shared_plan_cache,
)
from repro.plan.columnar import ColumnarView, VectorCondition
from repro.plan.compiler import (
    ACCESS_MODES,
    AccessDecision,
    CostModel,
    IndexBinding,
    StrategyDecision,
    compile_plan,
)
from repro.plan.explain import PlanExplain, explain_execution
from repro.plan.physical import (
    COLUMNAR,
    INDEX,
    SCAN,
    ColumnarLinkScanOp,
    ColumnarScanOp,
    ExecContext,
    FusedSocialCombineOp,
    IndexKeywordScanOp,
    InputOp,
    LiteralOp,
    OperatorProfile,
    PhysicalOp,
    PhysicalPlan,
    PlanExecution,
    ScanOp,
)
from repro.plan.planner import BASE_GRAPH, PlanState, QueryPlanner

__all__ = [
    "ACCESS_MODES",
    "AccessDecision",
    "BASE_GRAPH",
    "COLUMNAR",
    "CacheStats",
    "ColumnarLinkScanOp",
    "ColumnarScanOp",
    "ColumnarView",
    "CostModel",
    "ExecContext",
    "FusedSocialCombineOp",
    "INDEX",
    "IndexBinding",
    "IndexKeywordScanOp",
    "InputOp",
    "LiteralOp",
    "OperatorProfile",
    "PhysicalOp",
    "PhysicalPlan",
    "PlanCache",
    "PlanExecution",
    "PlanExplain",
    "PlanState",
    "QueryPlanner",
    "ResultMemo",
    "SCAN",
    "ScanOp",
    "StrategyDecision",
    "VectorCondition",
    "compile_plan",
    "explain_execution",
    "shared_plan_cache",
]
