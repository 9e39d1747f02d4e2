"""Cluster-level inverted index with score upper bounds (paper §6.2, Eq 1).

    "Given a cluster C, the score of an item i in an index IL^C_k is
    computed as the upper-bound of scores of i for each user u ∈ C:
    score_k(i, C) = max_{u∈C} score_k(i, u).   (1)

    By storing score upper-bounds, top-k pruning algorithms can still be
    used.  However, score upper-bounds entail having to compute exact
    scores at query time for a specific user."

One inverted list per (tag, cluster) instead of per (tag, user): smaller
index, at the price of exact-score computation for every candidate the
upper-bound lists surface.  Query processing is a TA variant whose sorted
access reads upper bounds and whose "random access" computes the exact
user-specific score — exactly the overhead the paper describes, surfaced in
:class:`~repro.indexing.topk.QueryStats.exact_computations`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.core import Id
from repro.indexing.clustering import Clustering
from repro.indexing.inverted import ENTRY_BYTES, IndexReport
from repro.indexing.scores import ScoreF, ScoreG, TaggingData, f_count, g_sum
from repro.indexing.topk import QueryStats


class ClusteredIndex:
    """Per-(tag, cluster) inverted lists storing Eq 1 upper bounds."""

    def __init__(
        self,
        data: TaggingData,
        clustering: Clustering,
        f: ScoreF = f_count,
        g: ScoreG = g_sum,
    ):
        self.data = data
        self.clustering = clustering
        self.f = f
        self.g = g
        self.lists: dict[tuple[str, int], list[tuple[Id, float]]] = {}
        self._build()

    def _build(self) -> None:
        # Same inversion as the exact index, but scores max-merge into the
        # user's cluster list instead of the user's own list.
        accumulator: dict[tuple[str, int], dict[Id, float]] = {}
        for (item, tag), taggers in self.data.taggers.items():
            reached: dict[Id, set] = {}
            for tagger in taggers:
                for user in self.data.network.get(tagger, ()):
                    reached.setdefault(user, set()).add(tagger)
            for user, endorsers in reached.items():
                cluster = self.clustering.cluster_of.get(user)
                if cluster is None:
                    continue
                score = self.f(endorsers)
                bucket = accumulator.setdefault((tag, cluster), {})
                if score > bucket.get(item, 0.0):
                    bucket[item] = score
        for key, per_item in accumulator.items():
            self.lists[key] = sorted(
                per_item.items(), key=lambda kv: (-kv[1], repr(kv[0]))
            )

    # -- size -------------------------------------------------------------------

    def report(self) -> IndexReport:
        """Entry/list counts (bytes = entries x 10, as in the paper)."""
        return IndexReport(
            entries=sum(len(v) for v in self.lists.values()),
            lists=len(self.lists),
        )

    # -- querying -------------------------------------------------------------------

    def query(
        self, user: Id, keywords: Sequence[str], k: int
    ) -> tuple[list[tuple[Id, float]], QueryStats]:
        """Top-k for *user*: upper-bound TA + exact rescoring.

        Sorted access walks the user's cluster lists (upper bounds, sorted
        descending).  Every new candidate's **exact** score is computed
        from ``network(u) ∩ taggers(i, k)`` — the paper's query-time
        overhead.  Termination: the k-th exact score is ≥ the upper-bound
        threshold of everything not yet seen, which is sound because
        Eq 1 guarantees bound ≥ exact for every cluster member.
        """
        stats = QueryStats()
        cluster = self.clustering.cluster_of.get(user)
        if cluster is None:
            return [], stats
        lists = [self.lists.get((kw, cluster), []) for kw in keywords]
        n_lists = len(lists)
        if n_lists == 0:
            return [], stats
        positions = [0] * n_lists
        last_seen = [0.0] * n_lists
        exhausted = [len(entries) == 0 for entries in lists]
        exact: dict[Id, float] = {}
        heap: list[tuple[float, str]] = []

        while not all(exhausted):
            for li in range(n_lists):
                if exhausted[li]:
                    last_seen[li] = 0.0
                    continue
                item, bound = lists[li][positions[li]]
                stats.sorted_accesses += 1
                positions[li] += 1
                if positions[li] >= len(lists[li]):
                    exhausted[li] = True
                last_seen[li] = bound
                if item in exact:
                    continue
                score = self.data.score(item, user, keywords, self.f, self.g)
                stats.exact_computations += 1
                exact[item] = score
                if score > 0:
                    heapq.heappush(heap, (score, repr(item)))
                    if len(heap) > k:
                        heapq.heappop(heap)
            threshold = self.g(last_seen)
            if len(heap) == k and heap and heap[0][0] >= threshold:
                break
        stats.candidates = len(exact)
        ranked = sorted(
            ((i, s) for i, s in exact.items() if s > 0),
            key=lambda kv: (-kv[1], repr(kv[0])),
        )
        return ranked[:k], stats
