"""Graph statistics and cardinality estimation for the logical optimizer.

The paper's stated motivation for an algebra is that ad-hoc graph code
"leaves the system with few opportunities for reuse, customization and
optimization".  A cost-based optimizer needs cardinality estimates; this
module provides the simple statistics the Data Manager maintains (node/link
counts and per-type histograms) and heuristic selectivity estimation for
the operators.

Estimates are deliberately coarse — the goal is plan *ordering*, not exact
prediction — and every constant is documented so the ablation bench can
show where the model is wrong.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from typing import Hashable, Sequence

from repro.core.conditions import AttrCompare, AttrEquals, Condition, HasType
from repro.core.delta import NODE, GraphDelta
from repro.core.graph import Id, SocialContentGraph
from repro.core.text import term_variants, tokenize

#: Selectivity assumed for a structural predicate we know nothing about.
DEFAULT_PREDICATE_SELECTIVITY = 0.5
#: Selectivity of a keyword scope (matching at least one term).
KEYWORD_SELECTIVITY = 0.3
#: Fraction of probe-side links expected to survive a semi-join.
SEMIJOIN_SELECTIVITY = 0.5


def _bump(counter: Counter, key: Hashable, step: int) -> None:
    """``counter[key] += step``, keeping no zero entry (``of`` has none)."""
    count = counter[key] + step
    if count:
        counter[key] = count
    else:
        del counter[key]


@dataclass
class GraphStats:
    """Summary statistics over one social content graph."""

    num_nodes: int = 0
    num_links: int = 0
    node_types: Counter = field(default_factory=Counter)
    link_types: Counter = field(default_factory=Counter)
    #: per-term document frequency over node texts (distinct tokens per
    #: node), collected only under ``with_terms=True`` — it costs a
    #: tokenisation pass, and only keyword-selectivity consumers (the
    #: physical compiler's scan-vs-index cost model) need it.
    term_doc_freq: Counter = field(default_factory=Counter)
    #: number of node documents the term histogram was collected over
    term_population: int = 0
    #: out-degree histograms of the §4 overlays: degree -> number of nodes
    #: with that many outgoing ``connect`` / ``act`` links.  Zero-degree
    #: nodes are not stored (derive them from the type histogram); the
    #: social-stage cost model reads expected basis sizes and endorsement
    #: reach off these.
    connect_degree_hist: Counter = field(default_factory=Counter)
    act_degree_hist: Counter = field(default_factory=Counter)

    @classmethod
    def of(cls, graph: SocialContentGraph,
           with_terms: bool = False) -> "GraphStats":
        """Collect statistics from a graph in one pass."""
        stats = cls(num_nodes=graph.num_nodes, num_links=graph.num_links)
        for node in graph.nodes():
            for t in node.types:
                stats.node_types[t] += 1
            if with_terms:
                for token in set(tokenize(node.text())):
                    stats.term_doc_freq[token] += 1
        if with_terms:
            stats.term_population = graph.num_nodes
        connect_out: Counter = Counter()
        act_out: Counter = Counter()
        for link in graph.links():
            for t in link.types:
                stats.link_types[t] += 1
            if "connect" in link.types:
                connect_out[link.src] += 1
            if "act" in link.types:
                act_out[link.src] += 1
        for degree in connect_out.values():
            stats.connect_degree_hist[degree] += 1
        for degree in act_out.values():
            stats.act_degree_hist[degree] += 1
        return stats

    def patched(self, delta: GraphDelta, old: SocialContentGraph,
                new: SocialContentGraph) -> "GraphStats":
        """The statistics of *new* = *old* advanced by *delta*, from these
        statistics of *old*: equal to ``of(new, ...)``, at the price of the
        records the step touched.  ``self`` is left as it was; histograms
        no change reaches are shared with it.
        """
        stats = GraphStats(
            num_nodes=new.num_nodes,
            num_links=new.num_links,
            node_types=self.node_types,
            link_types=Counter(self.link_types),
            term_doc_freq=self.term_doc_freq,
            term_population=self.term_population,
            connect_degree_hist=Counter(self.connect_degree_hist),
            act_degree_hist=Counter(self.act_degree_hist),
        )
        # the term histogram is collected over every node or not at all
        with_terms = self.term_population == old.num_nodes
        if not delta.links_only:
            stats.node_types = Counter(self.node_types)
            if with_terms:
                stats.term_doc_freq = Counter(self.term_doc_freq)
                stats.term_population = new.num_nodes
        sources: set[Id] = set()
        for kind, before, after in delta:
            for record, step in ((before, -1), (after, 1)):
                if record is None:
                    continue
                if kind != NODE:
                    sources.add(record.src)
                    for t in record.types:
                        _bump(stats.link_types, t, step)
                    continue
                for t in record.types:
                    _bump(stats.node_types, t, step)
                if with_terms:
                    for token in set(tokenize(record.text())):
                        _bump(stats.term_doc_freq, token, step)
        for source in sources:
            for graph, step in ((old, -1), (new, 1)):
                connect = act = 0
                for link in graph.out_links(source):
                    connect += "connect" in link.types
                    act += "act" in link.types
                if connect:
                    _bump(stats.connect_degree_hist, connect, step)
                if act:
                    _bump(stats.act_degree_hist, act, step)
        return stats

    # -- social-stage expectations -------------------------------------------

    def users_with_connections(self) -> int:
        """Number of nodes with at least one outgoing ``connect`` link."""
        return sum(self.connect_degree_hist.values())

    def active_users(self) -> int:
        """Number of nodes with at least one outgoing ``act`` link."""
        return sum(self.act_degree_hist.values())

    def expected_basis_size(self) -> float:
        """Expected friend-basis size of a random user.

        Total outgoing ``connect`` links over the user population (falling
        back to the connected population when the graph types no users) —
        the mean of the connection-degree histogram including its implicit
        zero bucket.
        """
        total = sum(d * c for d, c in self.connect_degree_hist.items())
        population = max(
            self.node_types.get("user", 0), self.users_with_connections(), 1
        )
        return total / population

    def avg_act_degree(self) -> float:
        """Mean activity out-degree of an *active* user.

        Conditional on acting at all: a basis member was selected because
        they are connected, and connected users who never act contribute
        nothing to either physical path, so the per-member probe work is
        priced off the active population.
        """
        total = sum(d * c for d, c in self.act_degree_hist.items())
        return total / max(self.active_users(), 1)

    def expected_endorsements(self) -> float:
        """Expected endorsement-probe reach: basis size × activity degree.

        An upper bound on the distinct items a friend basis endorses (the
        posting count of a network-index list); callers cap it by the
        candidate population.
        """
        return self.expected_basis_size() * self.avg_act_degree()

    # -- selectivity ---------------------------------------------------------

    def _type_fraction(self, type_name: str, of_links: bool) -> float:
        histogram = self.link_types if of_links else self.node_types
        total = self.num_links if of_links else self.num_nodes
        if total == 0:
            return 0.0
        return min(1.0, histogram.get(type_name, 0) / total)

    def keyword_match_fraction(self, keywords: Sequence[str]) -> float:
        """Estimated fraction of nodes matching ≥ 1 keyword (variant-aware).

        Uses the term histogram when collected (``of(..., with_terms=True)``):
        each term's document frequency is summed over its singular/plural
        variants, and terms combine under the independence assumption —
        ``1 - Π(1 - dfᵢ/N)``.  Without term statistics, falls back to the
        flat :data:`KEYWORD_SELECTIVITY` constant.
        """
        if not keywords:
            return 1.0
        if not self.term_doc_freq or self.term_population <= 0:
            return KEYWORD_SELECTIVITY
        population = self.term_population
        miss = 1.0
        for term in keywords:
            df = sum(
                self.term_doc_freq.get(variant, 0)
                for variant in dict.fromkeys(term_variants(term))
            )
            miss *= 1.0 - min(df, population) / population
        return max(0.0, min(1.0, 1.0 - miss))

    def condition_selectivity(self, condition: Condition, of_links: bool) -> float:
        """Estimated fraction of elements satisfying *condition*.

        Type-equality predicates use the type histogram; other predicates
        fall back to :data:`DEFAULT_PREDICATE_SELECTIVITY`; keyword scopes
        multiply in the keyword match fraction (term-histogram-driven when
        collected, :data:`KEYWORD_SELECTIVITY` otherwise).  Predicates are
        assumed independent (the usual System-R simplification).
        """
        selectivity = 1.0
        for predicate in condition.predicates:
            if isinstance(predicate, HasType):
                selectivity *= self._type_fraction(predicate.type_name, of_links)
            elif isinstance(predicate, AttrEquals) and predicate.att == "type":
                for required in predicate.required:
                    selectivity *= self._type_fraction(str(required), of_links)
            elif isinstance(predicate, AttrEquals) and predicate.att == "id":
                total = self.num_links if of_links else self.num_nodes
                selectivity *= 1.0 / max(total, 1)
            elif isinstance(predicate, AttrCompare) and predicate.att == "id":
                # id != x keeps nearly everything; other id ranges ~half.
                selectivity *= 1.0 if predicate.op == "!=" else 0.5
            else:
                selectivity *= DEFAULT_PREDICATE_SELECTIVITY
        if condition.has_keywords:
            selectivity *= self.keyword_match_fraction(condition.keywords)
        return max(0.0, min(1.0, selectivity))


@dataclass(frozen=True)
class Card:
    """Estimated cardinality of an operator's output."""

    nodes: float
    links: float

    def cost(self) -> float:
        """Scalar cost proxy: elements materialised."""
        return self.nodes + self.links

    def __repr__(self) -> str:
        return f"~{self.nodes:.0f}n/{self.links:.0f}l"
