"""Reference semantic scoping and the whole hand-executed ranking.

:func:`semantic_candidates` is σN⟨C,S⟩ over the items through the eager
algebra; :func:`rank_reference` is the seed-era control flow of a whole
query — candidates, connection selection, strategy scoring with the
Selma fallback, max-normalisation, ``α·semantic + (1-α)·social`` and the
total (score desc, item-id repr asc) order — sharing nothing with the
plan layer.  The compiled twin is ``InformationDiscoverer.rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core import Id, SocialContentGraph, TfIdfScorer, select_nodes
from repro.core.scoring import ScoringFunction
from repro.discovery.msg import ScoredItem
from repro.discovery.query import Query
from repro.discovery.strategies import SocialScores

from oracle.connections import find_experts, select_connections
from oracle.strategies import SCORERS, score_friends, score_similar_users


def _max_normalized(scores: dict[Id, float]) -> dict[Id, float]:
    """Scores scaled into [0, 1] by their maximum (all 0 when it is ≤ 0)."""
    top = max(scores.values(), default=0.0)
    if top <= 0:
        return {i: 0.0 for i in scores}
    return {i: s / top for i, s in scores.items()}


@dataclass
class SemanticResult:
    """Scored semantic candidates for one query."""

    scores: dict[Id, float]

    @property
    def max_score(self) -> float:
        """Largest raw score (0 when no candidates)."""
        return max(self.scores.values(), default=0.0)

    def normalized(self) -> dict[Id, float]:
        """Scores scaled into [0, 1] (max-normalised)."""
        return _max_normalized(self.scores)


def semantic_candidates(
    graph: SocialContentGraph,
    query: Query,
    scorer: ScoringFunction | None = None,
    item_type: str = "item",
) -> SemanticResult:
    """Scope + score: σN⟨C,S⟩ over the items.

    Empty queries (recommendation mode) return every item with a
    neutral score of 0 — social relevance then decides alone (§4).
    *scorer* defaults to a corpus-aware tf-idf over the item population.
    """
    if query.is_empty:
        return SemanticResult(
            scores={n.id: 0.0 for n in graph.nodes_of_type(item_type)}
        )
    if scorer is None:
        scorer = TfIdfScorer(list(graph.nodes_of_type(item_type)))
    condition = query.scope_condition(default_type=item_type)
    selected = select_nodes(graph, condition, scorer=scorer)
    return SemanticResult(
        scores={n.id: (n.score or 0.0) for n in selected.nodes()}
    )


@dataclass
class ReferenceRanking:
    """One query's full reference ranking (the oracle's RankedDiscovery)."""

    items: list[ScoredItem]
    social: SocialScores
    used_expert_fallback: bool


def rank_reference(
    graph: SocialContentGraph,
    query: Query,
    strategy: str = "friends",
    alpha: float = 0.5,
    drop_zero: bool = True,
    scorer: ScoringFunction | None = None,
    item_type: str = "item",
    sim_threshold: float = 0.1,
    act_type: str = "visit",
) -> ReferenceRanking:
    """The hand-executed scoring pipeline for an already-parsed query."""
    semantic_result = semantic_candidates(graph, query, scorer, item_type)
    candidates = set(semantic_result.scores)

    selection = select_connections(graph, query.user_id, query.keywords)
    score = SCORERS[strategy]
    friend_based = score is score_friends
    if score is score_similar_users:
        score = partial(score, sim_threshold=sim_threshold, act_type=act_type)
    social = score(graph, query.user_id, candidates, selection)
    # Selma fallback: if the friend basis produced nothing (or experts
    # were already chosen), friend strategies rerun over experts.
    if (
        not social.scores
        and friend_based
        and not selection.used_expert_fallback
    ):
        selection.used_expert_fallback = True
        selection.experts = find_experts(
            graph, set(query.keywords), exclude={query.user_id}
        )
        social = score(graph, query.user_id, candidates, selection)

    semantic_norm = semantic_result.normalized()
    social_norm = _max_normalized(social.scores)
    weight = 0.0 if query.is_empty else alpha

    combined: list[ScoredItem] = []
    for item in candidates:
        sem = semantic_norm.get(item, 0.0)
        soc = social_norm.get(item, 0.0)
        total = weight * sem + (1 - weight) * soc
        if drop_zero and total <= 0.0:
            continue
        combined.append(
            ScoredItem(item_id=item, semantic=sem, social=soc, combined=total)
        )
    combined.sort(key=lambda s: (-s.combined, repr(s.item_id)))
    return ReferenceRanking(
        items=combined,
        social=social,
        used_expert_fallback=selection.used_expert_fallback,
    )
