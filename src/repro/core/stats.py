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

import threading
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


class CardinalityFeedback:
    """Execution-observed correction factors for the cost model.

    EXPLAIN already measures estimated vs. actual cardinality per
    operator; this is the loop that closes it: the planner reports each
    selection's (estimate, actual) after execution, keyed per keyword term
    and per type predicate, and future estimates multiply in the learned
    factor.  Corrections are exponentially smoothed (so one anomalous
    query cannot wreck the model) and hard-capped at *max_correction* in
    both directions (so the model can be wrong, but never unboundedly).

    Thread-safe: sessions observe from whatever thread executed the plan.
    """

    def __init__(self, max_correction: float = 8.0, smoothing: float = 0.5):
        if max_correction < 1.0:
            raise ValueError(
                f"max_correction must be >= 1, got {max_correction!r}"
            )
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing!r}")
        self.max_correction = max_correction
        self.smoothing = smoothing
        self._factors: dict[Hashable, float] = {}
        self._observations = 0
        self._lock = threading.Lock()

    def _clamp(self, factor: float) -> float:
        return max(1.0 / self.max_correction, min(self.max_correction, factor))

    def observe(self, key: Hashable, estimated: float, actual: float) -> None:
        """Record one estimated-vs-actual pair for *key*.

        The implied correction is ``actual / estimated`` relative to the
        factor already applied (the estimate the planner produced had the
        old factor baked in), smoothed into the stored factor.
        """
        if estimated <= 0.0 and actual <= 0.0:
            return  # nothing measurable on either side
        with self._lock:
            old = self._factors.get(key, 1.0)
            implied = self._clamp(
                old * (max(actual, 0.5) / max(estimated, 0.5))
            )
            blended = old + self.smoothing * (implied - old)
            self._factors[key] = self._clamp(blended)
            self._observations += 1

    def factor(self, key: Hashable) -> float:
        """The multiplicative correction learned for *key* (1.0 = none)."""
        return self._factors.get(key, 1.0)

    @property
    def observations(self) -> int:
        """Number of (estimate, actual) pairs fed back so far."""
        return self._observations

    def snapshot(self) -> dict[Hashable, float]:
        """Copy of the current correction table (diagnostics, tests)."""
        with self._lock:
            return dict(self._factors)

    def clear(self) -> None:
        with self._lock:
            self._factors.clear()

    # -- persistence --------------------------------------------------------

    def export_state(self) -> dict:
        """The learned corrections as a JSON-ready document.

        Keys are flat tuples of JSON scalars (``("term", t)``,
        ``("type", name, of_links)``, …), encoded as lists; a key holding
        a non-JSON value (possible for exotic ``attr_key`` values) is
        skipped rather than failing the whole export — losing one learned
        factor costs a few cold estimates, losing the snapshot costs the
        site.  The inverse is :meth:`load_state`.
        """
        with self._lock:
            factors = dict(self._factors)
            observations = self._observations
        entries = []
        for key, factor in sorted(factors.items(), key=repr):
            if isinstance(key, tuple) and all(
                isinstance(part, (str, int, float, bool)) for part in key
            ):
                entries.append([list(key), factor])
        return {
            "max_correction": self.max_correction,
            "smoothing": self.smoothing,
            "observations": observations,
            "factors": entries,
        }

    def load_state(self, state: dict) -> int:
        """Restore a table exported by :meth:`export_state`.

        Factors are re-clamped under *this* instance's ``max_correction``
        (the persisted table may come from a laxer configuration) and
        replace any current entries key by key.  Returns the number of
        factors restored; the observation count carries over so a
        restarted site reports how much evidence its model rests on.
        """
        loaded = 0
        with self._lock:
            for entry in state.get("factors", ()):
                key_parts, factor = entry
                self._factors[tuple(key_parts)] = self._clamp(float(factor))
                loaded += 1
            self._observations += int(state.get("observations", 0))
        return loaded

    @staticmethod
    def term_key(term: str) -> tuple:
        """Correction key for one keyword term's selectivity."""
        return ("term", term)

    @staticmethod
    def type_key(type_name: str, of_links: bool) -> tuple:
        """Correction key for one type predicate's selectivity."""
        return ("type", type_name, bool(of_links))

    @staticmethod
    def attr_key(att: str, value: Hashable) -> tuple:
        """Correction key for one attribute-value posting estimate."""
        return ("attr", att, value)

    @staticmethod
    def basis_key() -> tuple:
        """Correction key for the expected connection-basis size.

        Feeds the social *strategy* picker and the probe-vs-endorsement
        access choice: both read the raw connection-degree histograms,
        and this correction folds observed basis sizes back in.
        """
        return ("social", "basis")

    @staticmethod
    def endorse_key() -> tuple:
        """Correction key for the expected endorsement reach."""
        return ("social", "endorse")


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
    #: per-value counts of the *indexed* attributes (``attr → value →
    #: nodes carrying it``), collected only for the attributes named in
    #: ``of(..., indexed_attrs=...)`` — the attribute-index access path's
    #: posting-size estimate.
    attr_value_counts: dict = field(default_factory=dict)
    #: execution-observed correction factors (attached by the planner;
    #: ``None`` keeps estimates purely histogram-driven)
    feedback: CardinalityFeedback | None = None

    @classmethod
    def of(cls, graph: SocialContentGraph, with_terms: bool = False,
           indexed_attrs: Sequence[str] = ()) -> "GraphStats":
        """Collect statistics from a graph in one pass."""
        stats = cls(num_nodes=graph.num_nodes, num_links=graph.num_links)
        attr_counts: dict[str, Counter] = {
            att: Counter() for att in indexed_attrs
        }
        for node in graph.nodes():
            for t in node.types:
                stats.node_types[t] += 1
            for att, counter in attr_counts.items():
                for value in node.values(att):
                    counter[value] += 1
            if with_terms:
                for token in set(tokenize(node.text())):
                    stats.term_doc_freq[token] += 1
        stats.attr_value_counts = attr_counts
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
            attr_value_counts=self.attr_value_counts,
            feedback=self.feedback,
        )
        # the term histogram is collected over every node or not at all
        with_terms = self.term_population == old.num_nodes
        if not delta.links_only:
            stats.node_types = Counter(self.node_types)
            stats.attr_value_counts = {
                att: Counter(counts)
                for att, counts in self.attr_value_counts.items()
            }
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
                for att, counts in stats.attr_value_counts.items():
                    for value in record.values(att):
                        _bump(counts, value, step)
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
        zero bucket.  Execution-observed basis sizes fold back in through
        the :meth:`CardinalityFeedback.basis_key` correction, so the
        strategy picker and the social access-path choice sharpen with
        every served query instead of reading raw histograms forever.
        """
        total = sum(d * c for d, c in self.connect_degree_hist.items())
        population = max(
            self.node_types.get("user", 0), self.users_with_connections(), 1
        )
        expected = total / population
        if self.feedback is not None:
            expected *= self.feedback.factor(CardinalityFeedback.basis_key())
        return expected

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
        candidate population.  Carries the observed-reach correction
        (:meth:`CardinalityFeedback.endorse_key`) the planner feeds back
        from executed social stages.
        """
        reach = self.expected_basis_size() * self.avg_act_degree()
        if self.feedback is not None:
            reach *= self.feedback.factor(CardinalityFeedback.endorse_key())
        return reach

    def attr_value_count(self, att: str, value: Hashable) -> float:
        """Estimated posting size of one indexed attribute value.

        Reads the per-value histogram collected for registered
        attributes, corrected by any execution-observed factor for the
        pair; unknown attributes estimate half the population (nothing is
        known — the scan should win).
        """
        counter = self.attr_value_counts.get(att)
        if counter is None:
            estimate = self.num_nodes * DEFAULT_PREDICATE_SELECTIVITY
        else:
            estimate = float(counter.get(value, 0))
        if self.feedback is not None:
            estimate *= self.feedback.factor(
                CardinalityFeedback.attr_key(att, value)
            )
        return estimate

    # -- selectivity ---------------------------------------------------------

    def _type_fraction(self, type_name: str, of_links: bool) -> float:
        histogram = self.link_types if of_links else self.node_types
        total = self.num_links if of_links else self.num_nodes
        if total == 0:
            return 0.0
        fraction = histogram.get(type_name, 0) / total
        if self.feedback is not None:
            fraction *= self.feedback.factor(
                CardinalityFeedback.type_key(type_name, of_links)
            )
        return min(1.0, fraction)

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
            fraction = KEYWORD_SELECTIVITY
            if self.feedback is not None:
                for term in keywords:
                    fraction *= self.feedback.factor(
                        CardinalityFeedback.term_key(term)
                    )
            return max(0.0, min(1.0, fraction))
        population = self.term_population
        miss = 1.0
        for term in keywords:
            df = sum(
                self.term_doc_freq.get(variant, 0)
                for variant in dict.fromkeys(term_variants(term))
            )
            df_fraction = min(df, population) / population
            if self.feedback is not None:
                df_fraction = min(
                    1.0,
                    df_fraction
                    * self.feedback.factor(CardinalityFeedback.term_key(term)),
                )
            miss *= 1.0 - df_fraction
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
