"""The Content Analyzer component (paper §3, Information Discovery layer).

    "The Content Analyzer derives new nodes (e.g., topics) and links (e.g.,
    similarities between users) through various analyses ... of the raw
    social content graph in an off-line fashion.  Those analyses can be
    specified and triggered automatically by the system itself or by a
    Social Content Administrator."

:class:`ContentAnalyzer` is a registry of named analyses.  Each analysis is
a pure function ``graph -> derived graph``; running one unions the derived
nodes/links into the working graph (so everything stays expressible in the
algebra — derivation is just ∪ with a computed graph).  A run log records
what was derived when, which the Data Manager's refresh logic can consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.association import mine_rules, transactions_from_graph
from repro.analysis.similarity import (
    item_similarity_links,
    user_similarity_links,
)
from repro.analysis.topics import derive_topics
from repro.core import Link, SocialContentGraph, union
from repro.errors import DiscoveryError

#: An analysis: consumes the current graph, returns a graph of derived
#: nodes/links to be unioned in.
Analysis = Callable[[SocialContentGraph], SocialContentGraph]


@dataclass
class AnalysisRun:
    """One entry of the analyzer's run log."""

    name: str
    derived_nodes: int
    derived_links: int


def _association_analysis(
    min_support: float = 0.05, min_confidence: float = 0.5
) -> Analysis:
    """Analysis deriving item→item ``match, assoc`` links from mined rules.

    Only single-item antecedent/consequent rules become links (a link has
    exactly two endpoints); larger rules would require hyper-edges, which
    the paper's model does not include.
    """

    def run(graph: SocialContentGraph) -> SocialContentGraph:
        transactions = transactions_from_graph(graph)
        rules = mine_rules(transactions, min_support=min_support,
                           min_confidence=min_confidence, max_size=2)
        out = SocialContentGraph(catalog=graph.catalog)
        for rule in rules:
            if len(rule.antecedent) != 1 or len(rule.consequent) != 1:
                continue
            (src,) = rule.antecedent
            (tgt,) = rule.consequent
            if not (graph.has_node(src) and graph.has_node(tgt)):
                continue
            for node_id in (src, tgt):
                if not out.has_node(node_id):
                    out.add_node(graph.node(node_id))
            out.add_link(Link(
                f"assoc:{src}->{tgt}", src, tgt,
                type="match, assoc",
                confidence=round(rule.confidence, 6),
                support=round(rule.support, 6),
                lift=round(rule.lift, 6),
                derived_by="association_rules",
            ))
        return out

    return run


class ContentAnalyzer:
    """Registry + runner for offline content analyses."""

    def __init__(self, graph: SocialContentGraph):
        self.graph = graph
        self.run_log: list[AnalysisRun] = []
        self._analyses: dict[str, Analysis] = {}
        # Built-in analyses (the two the paper names + similarity links).
        self.register("topics", lambda g: derive_topics(g).graph)
        self.register("user_similarity",
                      lambda g: user_similarity_links(g, basis="items"))
        self.register("network_similarity",
                      lambda g: user_similarity_links(g, basis="network"))
        self.register("item_similarity", item_similarity_links)
        self.register("association_rules", _association_analysis())

    def register(self, name: str, analysis: Analysis) -> None:
        """Register (or replace) an analysis under *name*.

        This is the Social Content Administrator's hook: any callable
        producing a derived graph participates on equal footing with the
        built-ins.
        """
        self._analyses[name] = analysis

    @property
    def available(self) -> list[str]:
        """Names of registered analyses."""
        return sorted(self._analyses)

    def run(self, name: str) -> AnalysisRun:
        """Run one analysis; its union with the graph, frozen, is the graph."""
        analysis = self._analyses.get(name)
        if analysis is None:
            raise DiscoveryError(
                f"unknown analysis {name!r}; available: {self.available}"
            )
        derived = analysis(self.graph)
        self.graph = union(self.graph, derived).freeze()
        entry = AnalysisRun(
            name=name,
            derived_nodes=derived.num_nodes,
            derived_links=derived.num_links,
        )
        self.run_log.append(entry)
        return entry

    def run_all(self, names: list[str] | None = None) -> list[AnalysisRun]:
        """Run several analyses in order (default: all registered)."""
        return [self.run(name) for name in (names or self.available)]
