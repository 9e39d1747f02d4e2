"""First-class EXPLAIN: the user-facing view of one plan execution.

:class:`PlanExplain` is the frozen value carried on
:class:`~repro.api.request.SearchResponse` under ``explain=True``: the
rendered optimized plan, per-operator estimated vs. actual cardinalities,
the rewrites the optimizer applied, the access-path decisions the cost
model made, and whether the compiled plan came from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.compiler import AccessDecision, StrategyDecision
from repro.plan.physical import OperatorProfile, PlanExecution


@dataclass(frozen=True)
class PlanExplain:
    """Everything a caller needs to see how their query actually ran."""

    #: rendered optimized plan, one operator per line, est vs. actual
    text: str
    #: per-operator rows in plan (pre-order) position
    operators: tuple[OperatorProfile, ...]
    #: logical rewrite rules applied, in application order
    rewrites: tuple[str, ...]
    #: access-path choices the compiler costed (keyword index vs. scan,
    #: columnar vs. row scan)
    decisions: tuple[AccessDecision, ...]
    #: dominant access path ("index" or "scan")
    access_path: str
    #: True when the compiled plan came from the plan cache
    cache_hit: bool
    #: the cost-based social-strategy pick, when the query left it open
    strategy_decision: StrategyDecision | None = None
    #: concrete social strategy the plan ran (None: no social stage)
    resolved_strategy: str | None = None
    #: result bound pushed into the ranking stage (None = full ranking)
    topk: int | None = None

    def __str__(self) -> str:
        return self.text


def explain_execution(execution: PlanExecution) -> PlanExplain:
    """Freeze one :class:`PlanExecution` into its EXPLAIN view."""
    return PlanExplain(
        text=execution.render(),
        operators=execution.profiles,
        rewrites=tuple(execution.plan.rewrites.applied),
        decisions=execution.plan.decisions,
        access_path=execution.plan.access_path,
        cache_hit=execution.cache_hit,
        strategy_decision=execution.plan.strategy_decision,
        resolved_strategy=execution.plan.resolved_strategy,
        topk=execution.topk,
    )
