"""Result diversification — the paper's own follow-up direction.

§7.2 cites "It takes variety to make a world: Diversification in
recommender systems" (Yu, Lakshmanan & Amer-Yahia, EDBT 2009 — the paper's
reference [30]) as the companion work on how recommendation lists should be
explained *and varied*.  This module implements the two classic
diversification objectives for SocialScope result lists:

* :func:`mmr_diversify` — Maximal Marginal Relevance: greedily pick the
  item maximising ``λ·relevance − (1−λ)·max-similarity-to-chosen``;
* :func:`coverage_diversify` — attribute coverage: greedily prefer items
  contributing an unseen attribute value (e.g. a new city or category)
  before refilling by pure relevance.

Similarity between items defaults to §7.2's ``ItemSim`` (tagger-set
Jaccard / derived ``sim_item`` links), so social provenance drives
diversity just as it drives explanations.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core import Id, SocialContentGraph
from repro.discovery.msg import MeaningfulSocialGraph
from repro.presentation.explanations import item_sim

Similarity = Callable[[Id, Id], float]


def _default_similarity(graph: SocialContentGraph) -> Similarity:
    activity = graph.activity()  # one relation: its item rows are kept

    def sim(a: Id, b: Id) -> float:
        return item_sim(activity, *sorted((a, b), key=repr))

    return sim


def mmr_diversify(
    msg: MeaningfulSocialGraph,
    k: int,
    lam: float = 0.7,
    similarity: Similarity | None = None,
) -> list[tuple[Id, float]]:
    """Maximal Marginal Relevance over an MSG's scored items.

    Returns (item, mmr score at selection time) pairs, best first.  ``lam``
    = 1 reduces to pure relevance ranking; ``lam`` = 0 to pure diversity.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be within [0, 1]")
    sim = similarity or _default_similarity(msg.graph)
    remaining = {s.item_id: s.combined for s in msg.items}
    chosen: list[tuple[Id, float]] = []
    while remaining and len(chosen) < k:
        best_item, best_value = None, float("-inf")
        for item, relevance in sorted(remaining.items(), key=lambda kv: repr(kv[0])):
            penalty = max(
                (sim(item, done) for done, _ in chosen), default=0.0
            )
            value = lam * relevance - (1 - lam) * penalty
            if value > best_value:
                best_item, best_value = item, value
        chosen.append((best_item, best_value))
        del remaining[best_item]
    return chosen


def coverage_diversify(
    msg: MeaningfulSocialGraph,
    k: int,
    attribute: str = "category",
) -> list[tuple[Id, float]]:
    """Attribute-coverage diversification.

    First pass greedily picks, in relevance order, only items whose
    *attribute* value has not been shown yet; a second pass refills the
    remaining slots by pure relevance.  Guarantees every value of the
    attribute present in the result set is represented before any value
    repeats (for k ≥ number of distinct values).
    """
    ranked = [(s.item_id, s.combined) for s in msg.items]
    seen_values: set[str] = set()
    picked: list[tuple[Id, float]] = []
    leftovers: list[tuple[Id, float]] = []
    for item, score in ranked:
        values = msg.graph.node(item).values(attribute) if msg.graph.has_node(item) else ()
        value = str(values[0]) if values else "(none)"
        if value not in seen_values:
            seen_values.add(value)
            picked.append((item, score))
        else:
            leftovers.append((item, score))
        if len(picked) >= k:
            return picked[:k]
    picked.extend(leftovers)
    return picked[:k]


def intra_list_similarity(
    items: Sequence[Id],
    graph: SocialContentGraph,
    similarity: Similarity | None = None,
) -> float:
    """Mean pairwise similarity of a result list (lower = more diverse).

    The standard diversity metric used to evaluate diversification; the
    diversification bench reports it for plain vs MMR vs coverage lists.
    """
    if len(items) < 2:
        return 0.0
    sim = similarity or _default_similarity(graph)
    total = 0.0
    pairs = 0
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            total += sim(a, b)
            pairs += 1
    return total / pairs if pairs else 0.0
