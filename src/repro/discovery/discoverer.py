"""The Information Discoverer (paper §3): query → Meaningful Social Graph.

    "The Information Discoverer parses the user query, constructs its
    internal representations (based on various semantic and social
    relevance computations), and evaluates them on the social content
    graph."

Pipeline per query:

1. parse (:mod:`repro.discovery.query`) and classify
   (:mod:`repro.discovery.classify`) the text;
2. build the *whole* remaining pipeline as one algebra plan and execute
   it through the physical compiler (:mod:`repro.plan`): semantic
   σN⟨C,S⟩ scoping (index vs. scan chosen cost-wise), connection
   selection (friend subset fit for the query, falling back to topic
   experts — Example 2), social relevance (friend endorsements by
   default, an adjacency probe; Example 5 CF and item-based available,
   one grouped aggregation; the strategy itself chosen cost-wise under
   ``"auto"``), and the ``α·semantic + (1-α)·social`` combination over
   max-normalised components (empty queries use social only, §4) —
   compiled once per shape into the stamped plan cache;
3. assemble the MSG.

There is one ranking path: every strategy name resolves to a parameter
record (:mod:`repro.discovery.strategies`) that selects a stage of that
plan, so every request gets EXPLAIN rows, the plan cache, top-k pushdown
and the cooperative deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Any, Callable

from repro.core import Id, SocialContentGraph
from repro.discovery.msg import MeaningfulSocialGraph, ScoredItem, assemble_msg
from repro.discovery.query import Query, parse_query
from repro.discovery.relevance import SemanticRelevance
from repro.discovery.strategies import (
    DEFAULT_STRATEGIES,
    SimilarUserStrategy,
    SocialScores,
    StrategyRecord,
    plan_strategy_name,
)
from repro.errors import DiscoveryError, QueryError
from repro.plan import PlanExecution, PlanState, QueryPlanner

#: Strategy name the compiler resolves from statistics; accepted beside
#: the registry's names.
AUTO = "auto"

#: CF parameters a plan carries when its strategy record has none of its
#: own (they only matter if "auto" resolves to similar_users).
_DEFAULT_CF = SimilarUserStrategy()


@dataclass
class DiscoveryConfig:
    """Tunables for the discovery pipeline."""

    #: semantic weight α in the combined score (1-α is social)
    alpha: float = 0.5
    #: how many results an MSG carries
    max_results: int = 20
    #: social strategy name from the registry
    strategy: str = "friends"
    #: drop items with a combined score of zero
    drop_zero: bool = True

    def __post_init__(self) -> None:
        alpha = self.alpha
        if isinstance(alpha, bool) or not isinstance(alpha, Real) \
                or not 0 <= alpha <= 1:
            raise QueryError(f"alpha must be a number in [0, 1], got {alpha!r}")
        limit = self.max_results
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise QueryError(f"max_results must be an int >= 1, got {limit!r}")
        if not isinstance(self.strategy, str):
            raise QueryError(
                f"strategy must be a strategy name, got {self.strategy!r}"
            )
        if not isinstance(self.drop_zero, bool):
            raise QueryError(f"drop_zero must be a bool, got {self.drop_zero!r}")


@dataclass(frozen=True)
class Generation:
    """One served state of the site: the graph and all that is derived
    from it, published whole by a :class:`~repro.api.Session` and read by
    a request from start to end."""

    #: graph, statistics, columnar view, sub-plan memo, plan stamp, index
    plan: PlanState
    #: the tf-idf scorer and the semantic index of the graph's items
    semantic: SemanticRelevance
    #: the Data Manager version the graph reflects
    version: int = 0
    #: the cursor epoch: moves with every generation a session publishes
    epoch: int = 0
    #: an analysis or ``invalidate()`` made the next generation due
    #: although the Data Manager did not move
    stale: bool = False

    @property
    def graph(self) -> SocialContentGraph:
        """The served (analysis-enriched) graph."""
        return self.plan.graph


@dataclass
class RankedDiscovery:
    """One query's combined ranking, cut to the limit it was asked for.

    The items list is totally ordered (score desc, item-id repr asc), so
    any ``[offset : offset+size]`` window of it is the same window of the
    full ranking — the property the session API's pagination rests on.
    Without a limit it is the full ranking.
    """

    query: Query
    items: list[ScoredItem]
    social: SocialScores
    used_expert_fallback: bool
    #: surviving (non-dropped) items before the limit cut
    matched: int
    #: the end-to-end physical-plan execution that produced this ranking
    execution: PlanExecution = field(compare=False)

    @property
    def total(self) -> int:
        """Number of rows ranked: ``len(items)``, at most the limit."""
        return len(self.items)


class InformationDiscoverer:
    """Evaluates queries into Meaningful Social Graphs."""

    def __init__(
        self,
        graph: SocialContentGraph,
        config: DiscoveryConfig | None = None,
        strategies: dict[str, StrategyRecord] | None = None,
        item_type: str = "item",
        index_factory: Callable[..., Any] | None = None,
    ):
        self.config = config or DiscoveryConfig()
        self.strategies = dict(strategies or DEFAULT_STRATEGIES)
        # fail at construction, not at the first query: every registered
        # value is a record and the configured default names one
        for record in self.strategies.values():
            plan_strategy_name(record)
        self._plan_strategy(self.config.strategy)
        # *index_factory* builds the semantic index a plan may take
        semantic = SemanticRelevance(graph, item_type, index_factory)
        #: compiles every query's plan
        self.planner = QueryPlanner(graph, index=semantic.binding())
        #: what a call that pins no generation reads; a session points it
        #: at every generation it publishes
        self.generation = Generation(self.planner.state, semantic)

    @property
    def semantic(self) -> SemanticRelevance:
        """The semantic relevance of :attr:`generation`."""
        return self.generation.semantic

    def strategy(self, name: str | None = None) -> StrategyRecord:
        """Resolve a strategy record by name (configured default when None)."""
        key = name or self.config.strategy
        record = self.strategies.get(key)
        if record is None:
            raise DiscoveryError(
                f"unknown social strategy {key!r}; "
                f"have {sorted([AUTO, *self.strategies])}"
            )
        return record

    # ------------------------------------------------------------------ main
    def discover(
        self,
        user_id: Id,
        text: str = "",
        structural=None,
        strategy: str | None = None,
        k: int | None = None,
    ) -> MeaningfulSocialGraph:
        """Run the full pipeline for one query."""
        query = parse_query(user_id, text, structural)
        return self.discover_query(query, strategy=strategy, k=k)

    def discover_query(
        self,
        query: Query,
        strategy: str | None = None,
        k: int | None = None,
    ) -> MeaningfulSocialGraph:
        """Evaluate an already-parsed query into an MSG of the best *k*."""
        limit = k if k is not None else self.config.max_results
        generation = self.generation
        ranking = self.rank(query, strategy=strategy, limit=limit,
                            generation=generation)
        return assemble_msg(
            generation.graph, query, ranking.items[:limit], ranking.social,
            ranking.used_expert_fallback,
        )

    def _plan_strategy(self, name: str) -> tuple[str, SimilarUserStrategy]:
        """(plan strategy name, the CF parameters it scores with).

        Unknown names raise.  ``"auto"`` may resolve to similar_users at
        compile time: it carries the registered record's parameters so
        the auto-resolved scoring matches an explicit request exactly.
        """
        if name == AUTO:
            canonical, record = AUTO, self.strategies.get("similar_users")
        else:
            record = self.strategy(name)
            canonical = plan_strategy_name(record)
        if not isinstance(record, SimilarUserStrategy):
            record = _DEFAULT_CF
        return canonical, record

    def rank(
        self,
        query: Query,
        strategy: str | None = None,
        alpha: float | None = None,
        access: str = "auto",
        limit: int | None = None,
        deadline: float | None = None,
        generation: Generation | None = None,
    ) -> RankedDiscovery:
        """Compute the combined ranking for an already-parsed query.

        The *whole* pipeline — semantic σN⟨C,S⟩ candidates, connection
        basis, strategy scoring, α-combination — runs as one compiled
        physical plan (Example 4/5's semi-join + aggregation reading), so
        EXPLAIN covers every stage and the plan cache covers the full
        query.  Per-item combined scores are independent of any result
        limit (normalisation runs over the full candidate set), so callers
        may window the returned list freely without reordering artifacts.

        *limit* pushes a result budget into the ranking stage (top-k
        selection instead of a full sort): the returned ``items`` carry
        only the best *limit* rows — identical to the full ranking's
        prefix — while ``matched`` counts every surviving item and the
        score and provenance maps still cover them all.  ``None`` keeps
        the full ranking.  A session passes the end of the requested
        window (``offset + size``, capped by ``k``).

        *generation* is the state to rank against (default:
        :attr:`generation`).
        """
        plan_strategy, cf = self._plan_strategy(strategy or self.config.strategy)
        weight = 0.0 if query.is_empty else (
            self.config.alpha if alpha is None else alpha
        )
        generation = self.generation if generation is None else generation
        semantic = generation.semantic
        execution = self.planner.discovery_pipeline(
            query,
            item_type=semantic.item_type,
            scorer=semantic.scorer if query.keywords else None,
            strategy=plan_strategy,
            sim_threshold=cf.sim_threshold,
            act_type=cf.act_type,
            alpha=weight,
            drop_zero=self.config.drop_zero,
            access=access,
            limit=limit,
            deadline=deadline,
            state=generation.plan,
        )
        # the social root hands the ranking over as plain values
        decoded = execution.payload
        social = SocialScores(
            strategy=decoded.strategy,
            scores=decoded.scores,
            endorsers=decoded.endorsers,
            supporting_items=decoded.supporting_items,
        )
        items = [
            ScoredItem(item_id=item, semantic=sem, social=soc, combined=combined)
            for item, sem, soc, combined in decoded.items
        ]
        return RankedDiscovery(
            query=query,
            items=items,
            social=social,
            used_expert_fallback=decoded.used_expert_fallback,
            matched=decoded.matched,
            execution=execution,
        )
