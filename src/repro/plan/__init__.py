"""Physical planning: logical → physical compilation, cost, cache, EXPLAIN.

The paper positions the social content algebra as "the foundation for the
optimization of" analysis and discovery; this package is where that
foundation carries weight.  Every serving query — ``Session.run``,
``InformationDiscoverer.discover_query`` — builds a logical
:class:`~repro.core.expr.Expr` plan and executes it through here:

* :mod:`repro.plan.compiler` — rule-optimize, then lower each logical
  operator to a physical one, choosing access paths (semantic-index
  keyword selection vs. full scan; adjacency probe vs. the §6.2
  network-aware endorsement indexes for the social stage) and — when the
  request leaves it open — the social strategy itself, from a
  :class:`CostModel` fed by :class:`~repro.core.stats.GraphStats`;
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
    NETWORK_CLUSTERED,
    NETWORK_EXACT,
    SCAN,
    ColumnarLinkScanOp,
    ColumnarScanOp,
    EndorsementMergeOp,
    ExecContext,
    FusedSocialCombineOp,
    GroupedAggregationOp,
    IndexKeywordScanOp,
    InputOp,
    LiteralOp,
    OperatorProfile,
    PhysicalOp,
    PhysicalPlan,
    PlanExecution,
    ScanOp,
    SemiJoinProbeOp,
)
from repro.plan.planner import BASE_GRAPH, QueryPlanner

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
    "EndorsementMergeOp",
    "ExecContext",
    "FusedSocialCombineOp",
    "GroupedAggregationOp",
    "INDEX",
    "IndexBinding",
    "IndexKeywordScanOp",
    "InputOp",
    "LiteralOp",
    "NETWORK_CLUSTERED",
    "NETWORK_EXACT",
    "OperatorProfile",
    "PhysicalOp",
    "PhysicalPlan",
    "PlanCache",
    "PlanExecution",
    "PlanExplain",
    "QueryPlanner",
    "ResultMemo",
    "SCAN",
    "ScanOp",
    "SemiJoinProbeOp",
    "StrategyDecision",
    "VectorCondition",
    "compile_plan",
    "explain_execution",
    "shared_plan_cache",
]
