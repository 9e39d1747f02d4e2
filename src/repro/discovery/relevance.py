"""Semantic relevance: the scoring function S of a query's σN⟨C,S⟩ stage.

The first half of the paper's two-relevance vision: "The former [semantic
relevance] scopes the discovery to information relevant to John's current
needs as expressed by him" (§2.1).  Scoping and scoring run inside the
compiled plan (the candidate node of
:meth:`repro.plan.planner.QueryPlanner.discovery_pipeline`);
:class:`SemanticRelevance` owns what that node scores with — the
corpus-aware tf-idf scorer, built once and kept until the graph changes
(the alternative to "no ranking mechanism (e.g., tf-idf measure) based on
pure semantic relevance can differentiate them" is precisely that the
scores barely differentiate — which is what the social side then breaks).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core import SocialContentGraph, TfIdfScorer
from repro.plan import IndexBinding


class SemanticRelevance:
    """The semantic scoring function of one graph's item population, and
    its inverted index (built by *index_factory* from the graph,
    ``item_type`` and the scorer, whose idf it shares; none without one).
    Both are built on first use, once per value."""

    def __init__(
        self,
        graph: SocialContentGraph,
        item_type: str = "item",
        index_factory: Callable[..., Any] | None = None,
    ):
        self.graph = graph
        self.item_type = item_type
        self._index_factory = index_factory
        self._scorer: TfIdfScorer | None = None
        self._index: Any = None
        #: corpus passes and index builds so far, predecessors' included —
        #: the session engine asserts warm queries keep these at one
        self.builds = 0
        self.index_builds = 0
        self._lock = threading.RLock()

    @property
    def scorer(self) -> TfIdfScorer:
        """The scoring function S — corpus-aware tf-idf, built once."""
        if self._scorer is None:
            with self._lock:
                if self._scorer is None:
                    self._scorer = TfIdfScorer(
                        list(self.graph.nodes_of_type(self.item_type))
                    )
                    self.builds += 1
        return self._scorer

    def index(self) -> Any:
        """The semantic inverted index over the item population, built
        once (``None`` without a factory)."""
        if self._index is None and self._index_factory is not None:
            with self._lock:  # reentrant: the scorer may build under it
                if self._index is None:
                    self._index = self._index_factory(
                        self.graph, item_type=self.item_type,
                        scorer=self.scorer,
                    )
                    self.index_builds += 1
        return self._index

    def binding(self) -> IndexBinding | None:
        """How a plan over this graph reaches its index and the scorer the
        index shares (``None`` without a factory)."""
        if self._index_factory is None:
            return None
        return IndexBinding(self.item_type, self.index, lambda: self.scorer)

    def successor(
        self, graph: SocialContentGraph, keep_corpus: bool
    ) -> "SemanticRelevance":
        """The relevance of *graph*, the next served graph.  Under
        *keep_corpus* — the step touched only links, so the item records
        are the ones this scorer was built on — the scorer and the index
        are carried as the same objects, and plans keyed on the scorer
        keep hitting."""
        nxt = SemanticRelevance(graph, self.item_type, self._index_factory)
        nxt.builds, nxt.index_builds = self.builds, self.index_builds
        if keep_corpus:
            nxt._scorer, nxt._index = self._scorer, self._index
        return nxt
