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

from repro.core import SocialContentGraph, TfIdfScorer
from repro.core.scoring import ScoringFunction


class SemanticRelevance:
    """Owns the semantic scoring function of the item population."""

    def __init__(
        self,
        graph: SocialContentGraph,
        scorer: ScoringFunction | None = None,
        item_type: str = "item",
    ):
        self.graph = graph
        self.item_type = item_type
        self._custom_scorer = scorer
        self._scorer: ScoringFunction | None = scorer
        #: corpus passes performed so far — the session engine asserts warm
        #: queries keep this at one.
        self.builds = 0

    @property
    def scorer(self) -> ScoringFunction:
        """The scoring function S — corpus-aware tf-idf built lazily.

        Built on first use and cached until :meth:`invalidate`, so a warm
        session pays the corpus pass once across queries.
        """
        if self._scorer is None:
            self._scorer = TfIdfScorer(
                list(self.graph.nodes_of_type(self.item_type))
            )
            self.builds += 1
        return self._scorer

    def invalidate(
        self, graph: SocialContentGraph | None = None,
        keep_corpus: bool = False,
    ) -> None:
        """Point at a (possibly new) graph and drop the cached corpus state.

        A caller-supplied scorer is kept — its corpus is the caller's
        responsibility; only the default tf-idf is corpus-derived.  So is
        the default one under *keep_corpus*: the caller knows the item
        records of *graph* are the ones the scorer was built on (a step
        that touched only links), and plans keyed on the scorer object
        keep hitting.
        """
        if graph is not None:
            self.graph = graph
        if self._custom_scorer is None and not keep_corpus:
            self._scorer = None
