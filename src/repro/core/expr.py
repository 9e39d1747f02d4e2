"""Algebra expression trees: declarative plans over social content graphs.

The paper's vision is "declarative, flexible, and optimizable graph analysis
and information discovery processes".  The operator functions in
:mod:`repro.core` evaluate eagerly; this module adds the *logical plan*
layer: an expression DAG that can be inspected, rewritten by the optimizer
(:mod:`repro.core.optimizer`), explained with cardinality estimates, and
finally evaluated against named input graphs.

Build plans fluently::

    from repro.core.expr import input_graph

    G = input_graph('G')
    john = G.select_nodes({'id': 101})
    friends = G.semi_join(john, ('src', 'src')).select_links({'type': 'friend'})
    plan = friends.union(...)
    result = plan.evaluate({'G': graph})

Sub-expressions shared between branches (a DAG, as in Example 4 where G1
feeds G3, G4 and G6) are evaluated once per :meth:`Expr.evaluate` call.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.core import aggregation, composition, patterns, selection, semijoin, setops
from repro.core.conditions import Condition, as_condition
from repro.core.graph import SocialContentGraph
from repro.core.stats import (
    Card,
    GraphStats,
    SEMIJOIN_SELECTIVITY,
)
from repro.errors import ExpressionError


class Expr:
    """Base class of all plan nodes."""

    #: Operator name used in plan rendering.
    op: str = "expr"

    def children(self) -> tuple["Expr", ...]:
        """Child expressions, left-to-right."""
        return ()

    def with_children(self, *children: "Expr") -> "Expr":
        """Rebuild this node with new children (used by the optimizer)."""
        raise NotImplementedError

    def _compute(
        self, inputs: Sequence[SocialContentGraph]
    ) -> SocialContentGraph:
        """Apply this operator to already-evaluated child results."""
        raise NotImplementedError

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        env: Mapping[str, SocialContentGraph],
        _cache: dict[int, SocialContentGraph] | None = None,
    ) -> SocialContentGraph:
        """Evaluate the plan against named input graphs.

        Shared sub-expressions (same object) are computed once.  Without
        an explicit *_cache*, the returned graph never aliases an input or
        literal graph — identity plans (``input(G)``, or rewrites like
        ``G ∪ G ⇒ G``) hand back a copy — so callers may mutate the result
        without poisoning the environment or any cached plan state.
        Supplying *_cache* opts into raw shared results: entries (and the
        return value) may alias environment graphs and must be treated as
        read-only.
        """
        if _cache is not None:
            return self._eval(env, _cache)
        result = self._eval(env, {})
        if any(result is graph for graph in env.values()) or any(
            isinstance(node, LiteralE) and result is node.graph
            for node in iter_plan_nodes(self)
        ):
            result = result.copy()
        return result

    def _eval(
        self,
        env: Mapping[str, SocialContentGraph],
        cache: dict[int, SocialContentGraph],
    ) -> SocialContentGraph:
        key = id(self)
        if key in cache:
            return cache[key]
        inputs = [child._eval(env, cache) for child in self.children()]
        result = self._compute(inputs)
        cache[key] = result
        return result

    # -- cardinality ----------------------------------------------------------

    def estimate(self, stats: GraphStats) -> Card:
        """Estimated output cardinality given base-graph statistics."""
        raise NotImplementedError

    # -- rendering --------------------------------------------------------------

    def describe(self) -> str:
        """One-line operator description for plan rendering."""
        return self.op

    def render(self, stats: GraphStats | None = None, indent: int = 0) -> str:
        """Pretty-print the plan tree, optionally with estimates."""
        pad = "  " * indent
        line = pad + self.describe()
        if stats is not None:
            line += f"  [{self.estimate(stats)!r}]"
        lines = [line]
        for child in self.children():
            lines.append(child.render(stats, indent + 1))
        return "\n".join(lines)

    # -- fluent builder ----------------------------------------------------------

    def select_nodes(self, condition: Any = None, scorer: Any = None,
                     keywords: Any = None) -> "SelectNodesE":
        """σN⟨C,S⟩ over this expression's result."""
        return SelectNodesE(self, as_condition(condition, keywords), scorer)

    def select_links(self, condition: Any = None, scorer: Any = None,
                     keywords: Any = None) -> "SelectLinksE":
        """σL⟨C,S⟩ over this expression's result."""
        return SelectLinksE(self, as_condition(condition, keywords), scorer)

    def union(self, other: "Expr") -> "UnionE":
        """∪ with another expression."""
        return UnionE(self, other)

    def intersect(self, other: "Expr") -> "IntersectE":
        """∩ with another expression."""
        return IntersectE(self, other)

    def minus(self, other: "Expr") -> "MinusE":
        """Node-Driven Minus \\."""
        return MinusE(self, other)

    def link_minus(self, other: "Expr") -> "LinkMinusE":
        """Link-Driven Minus \\·."""
        return LinkMinusE(self, other)

    def semi_join(self, other: "Expr", delta: tuple[str, str] = ("src", "src")) -> "SemiJoinE":
        """⋉δ with another expression."""
        return SemiJoinE(self, other, delta)

    def anti_semi_join(self, other: "Expr", delta: tuple[str, str] = ("src", "src"),
                       on: str = "endpoint") -> "AntiSemiJoinE":
        """⋉̄δ (anti) with another expression."""
        return AntiSemiJoinE(self, other, delta, on)

    def compose_with(self, other: "Expr", delta: tuple[str, str],
                     f: Any, link_type: str = "composed") -> "ComposeE":
        """∘⟨δ,F⟩ with another expression."""
        return ComposeE(self, other, delta, f, link_type)

    def aggregate_nodes(self, condition: Any, direction: str, att: str, agg: Any) -> "NodeAggE":
        """γN⟨C,d,att,A⟩."""
        return NodeAggE(self, as_condition(condition), direction, att, agg)

    def aggregate_links(self, condition: Any, att: str, agg: Any,
                        link_type: str = "agg") -> "LinkAggE":
        """γL⟨C,att,A⟩."""
        return LinkAggE(self, as_condition(condition), att, agg, link_type)

    def aggregate_pattern(self, pattern: patterns.PathPattern, att: str, agg: Any,
                          link_type: str = "agg") -> "PatternAggE":
        """γL⟨GP,att,A⟩ (Figure 2 style)."""
        return PatternAggE(self, pattern, att, agg, link_type)


class InputE(Expr):
    """A named base graph bound at evaluation time."""

    op = "input"

    def __init__(self, name: str):
        self.name = name

    def with_children(self, *children: Expr) -> "InputE":
        if children:
            raise ExpressionError("input takes no children")
        return self

    def _eval(self, env, cache):
        if self.name not in env:
            raise ExpressionError(f"no input graph named {self.name!r} supplied")
        return env[self.name]

    def estimate(self, stats: GraphStats) -> Card:
        return Card(stats.num_nodes, stats.num_links)

    def describe(self) -> str:
        return f"input({self.name})"


class LiteralE(Expr):
    """An inline constant graph."""

    op = "literal"

    def __init__(self, graph: SocialContentGraph):
        self.graph = graph

    def with_children(self, *children: Expr) -> "LiteralE":
        return self

    def _eval(self, env, cache):
        return self.graph

    def estimate(self, stats: GraphStats) -> Card:
        return Card(self.graph.num_nodes, self.graph.num_links)

    def describe(self) -> str:
        return f"literal({self.graph!r})"


class _Unary(Expr):
    def __init__(self, child: Expr):
        self.child = child

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)


class _Binary(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


class _Ternary(Expr):
    def __init__(self, first: Expr, second: Expr, third: Expr):
        self._children = (first, second, third)

    def children(self) -> tuple[Expr, ...]:
        return self._children


class SelectNodesE(_Unary):
    """σN⟨C,S⟩ plan node."""

    op = "select_nodes"

    def __init__(self, child: Expr, condition: Condition, scorer: Any = None):
        super().__init__(child)
        self.condition = condition
        self.scorer = scorer

    def with_children(self, *children: Expr) -> "SelectNodesE":
        (child,) = children
        return SelectNodesE(child, self.condition, self.scorer)

    def _compute(self, inputs):
        return selection.select_nodes(inputs[0], self.condition, self.scorer)

    def estimate(self, stats: GraphStats) -> Card:
        child = self.child.estimate(stats)
        sel = stats.condition_selectivity(self.condition, of_links=False)
        return Card(child.nodes * sel, 0.0)

    def describe(self) -> str:
        return f"σN {self.condition!r}"


class SelectLinksE(_Unary):
    """σL⟨C,S⟩ plan node."""

    op = "select_links"

    def __init__(self, child: Expr, condition: Condition, scorer: Any = None):
        super().__init__(child)
        self.condition = condition
        self.scorer = scorer

    def with_children(self, *children: Expr) -> "SelectLinksE":
        (child,) = children
        return SelectLinksE(child, self.condition, self.scorer)

    def _compute(self, inputs):
        return selection.select_links(inputs[0], self.condition, self.scorer)

    def estimate(self, stats: GraphStats) -> Card:
        child = self.child.estimate(stats)
        sel = stats.condition_selectivity(self.condition, of_links=True)
        links = child.links * sel
        return Card(min(child.nodes, 2 * links), links)

    def describe(self) -> str:
        return f"σL {self.condition!r}"


class UnionE(_Binary):
    """∪ plan node."""

    op = "union"

    def with_children(self, *children: Expr) -> "UnionE":
        return UnionE(*children)

    def _compute(self, inputs):
        return setops.union(inputs[0], inputs[1])

    def estimate(self, stats: GraphStats) -> Card:
        a, b = self.left.estimate(stats), self.right.estimate(stats)
        return Card(a.nodes + b.nodes, a.links + b.links)

    def describe(self) -> str:
        return "∪"


class IntersectE(_Binary):
    """∩ plan node."""

    op = "intersect"

    def with_children(self, *children: Expr) -> "IntersectE":
        return IntersectE(*children)

    def _compute(self, inputs):
        return setops.intersection(inputs[0], inputs[1])

    def estimate(self, stats: GraphStats) -> Card:
        a, b = self.left.estimate(stats), self.right.estimate(stats)
        return Card(min(a.nodes, b.nodes) * 0.5, min(a.links, b.links) * 0.5)

    def describe(self) -> str:
        return "∩"


class MinusE(_Binary):
    """Node-Driven Minus plan node."""

    op = "minus"

    def with_children(self, *children: Expr) -> "MinusE":
        return MinusE(*children)

    def _compute(self, inputs):
        return setops.minus(inputs[0], inputs[1])

    def estimate(self, stats: GraphStats) -> Card:
        a, b = self.left.estimate(stats), self.right.estimate(stats)
        nodes = max(0.0, a.nodes - b.nodes)
        frac = nodes / a.nodes if a.nodes else 0.0
        return Card(nodes, a.links * frac * frac)

    def describe(self) -> str:
        return "\\"


class LinkMinusE(_Binary):
    """Link-Driven Minus plan node."""

    op = "link_minus"

    def with_children(self, *children: Expr) -> "LinkMinusE":
        return LinkMinusE(*children)

    def _compute(self, inputs):
        return setops.link_minus(inputs[0], inputs[1])

    def estimate(self, stats: GraphStats) -> Card:
        a, b = self.left.estimate(stats), self.right.estimate(stats)
        links = max(0.0, a.links - b.links)
        return Card(min(a.nodes, 2 * links), links)

    def describe(self) -> str:
        return "\\·"


class SemiJoinE(_Binary):
    """⋉δ plan node."""

    op = "semi_join"

    def __init__(self, left: Expr, right: Expr, delta: tuple[str, str]):
        super().__init__(left, right)
        self.delta = tuple(delta)

    def with_children(self, *children: Expr) -> "SemiJoinE":
        return SemiJoinE(children[0], children[1], self.delta)

    def _compute(self, inputs):
        return semijoin.semi_join(inputs[0], inputs[1], self.delta)  # type: ignore[arg-type]

    def estimate(self, stats: GraphStats) -> Card:
        a = self.left.estimate(stats)
        links = a.links * SEMIJOIN_SELECTIVITY
        return Card(min(a.nodes, 2 * links) if links else a.nodes * SEMIJOIN_SELECTIVITY, links)

    def describe(self) -> str:
        return f"⋉{self.delta}"


class AntiSemiJoinE(_Binary):
    """⋉̄δ plan node (endpoint- or id-matching)."""

    op = "anti_semi_join"

    def __init__(self, left: Expr, right: Expr, delta: tuple[str, str], on: str = "endpoint"):
        super().__init__(left, right)
        self.delta = tuple(delta)
        self.on = on

    def with_children(self, *children: Expr) -> "AntiSemiJoinE":
        return AntiSemiJoinE(children[0], children[1], self.delta, self.on)

    def _compute(self, inputs):
        return semijoin.anti_semi_join(inputs[0], inputs[1], self.delta, self.on)  # type: ignore[arg-type]

    def estimate(self, stats: GraphStats) -> Card:
        a = self.left.estimate(stats)
        links = a.links * (1.0 - SEMIJOIN_SELECTIVITY)
        return Card(min(a.nodes, 2 * links) if links else a.nodes, links)

    def describe(self) -> str:
        return f"⋉̄{self.delta}/{self.on}"


class ComposeE(_Binary):
    """∘⟨δ,F⟩ plan node."""

    op = "compose"

    def __init__(self, left: Expr, right: Expr, delta: tuple[str, str],
                 f: Any, link_type: str = "composed"):
        super().__init__(left, right)
        self.delta = tuple(delta)
        self.f = f
        self.link_type = link_type

    def with_children(self, *children: Expr) -> "ComposeE":
        return ComposeE(children[0], children[1], self.delta, self.f, self.link_type)

    def _compute(self, inputs):
        return composition.compose(
            inputs[0], inputs[1], self.delta, self.f, self.link_type  # type: ignore[arg-type]
        )

    def estimate(self, stats: GraphStats) -> Card:
        a, b = self.left.estimate(stats), self.right.estimate(stats)
        # Expected matches under uniform endpoint distribution.
        anchors = max(stats.num_nodes, 1)
        links = a.links * b.links / anchors
        return Card(min(a.nodes + b.nodes, 2 * links), links)

    def describe(self) -> str:
        return f"∘{self.delta}"


class NodeAggE(_Unary):
    """γN plan node."""

    op = "aggregate_nodes"

    def __init__(self, child: Expr, condition: Condition, direction: str,
                 att: str, agg: Any):
        super().__init__(child)
        self.condition = condition
        self.direction = direction
        self.att = att
        self.agg = agg

    def with_children(self, *children: Expr) -> "NodeAggE":
        (child,) = children
        return NodeAggE(child, self.condition, self.direction, self.att, self.agg)

    def _compute(self, inputs):
        return aggregation.aggregate_nodes(
            inputs[0], self.condition, self.direction, self.att, self.agg  # type: ignore[arg-type]
        )

    def estimate(self, stats: GraphStats) -> Card:
        return self.child.estimate(stats)  # isomorphic output

    def describe(self) -> str:
        return f"γN⟨{self.condition!r},{self.direction},{self.att}⟩"


class LinkAggE(_Unary):
    """γL plan node."""

    op = "aggregate_links"

    def __init__(self, child: Expr, condition: Condition, att: str, agg: Any,
                 link_type: str = "agg"):
        super().__init__(child)
        self.condition = condition
        self.att = att
        self.agg = agg
        self.link_type = link_type

    def with_children(self, *children: Expr) -> "LinkAggE":
        (child,) = children
        return LinkAggE(child, self.condition, self.att, self.agg, self.link_type)

    def _compute(self, inputs):
        return aggregation.aggregate_links(
            inputs[0], self.condition, self.att, self.agg, self.link_type
        )

    def estimate(self, stats: GraphStats) -> Card:
        child = self.child.estimate(stats)
        sel = stats.condition_selectivity(self.condition, of_links=True)
        # Bundles collapse; assume mean bundle size 2.
        return Card(child.nodes, child.links * (1 - sel) + child.links * sel / 2)

    def describe(self) -> str:
        return f"γL⟨{self.condition!r},{self.att}⟩"


class PatternAggE(_Unary):
    """γL⟨GP,att,A⟩ plan node."""

    op = "aggregate_pattern"

    def __init__(self, child: Expr, pattern: patterns.PathPattern, att: str,
                 agg: Any, link_type: str = "agg"):
        super().__init__(child)
        self.pattern = pattern
        self.att = att
        self.agg = agg
        self.link_type = link_type

    def with_children(self, *children: Expr) -> "PatternAggE":
        (child,) = children
        return PatternAggE(child, self.pattern, self.att, self.agg, self.link_type)

    def _compute(self, inputs):
        return patterns.aggregate_pattern(
            inputs[0], self.pattern, self.att, self.agg, self.link_type
        )

    def estimate(self, stats: GraphStats) -> Card:
        child = self.child.estimate(stats)
        # One output link per (start, end) pair; heuristically sqrt of paths.
        paths = child.links ** max(1, len(self.pattern)) / max(child.nodes, 1.0)
        return Card(min(child.nodes, 2 * paths), paths)

    def describe(self) -> str:
        return f"γL⟨GP:{len(self.pattern)} hops,{self.att}⟩"


class ConnectionBasisE(_Unary):
    """Connection selection (Selma's problem) as a plan node.

    σN(id=u) ⋉ connect links, with a per-friend topical-fit aggregation
    and the expert fallback — produces the basis null graph the social
    scoring stage consumes (see :mod:`repro.core.social`).
    """

    op = "connection_basis"

    def __init__(self, child: Expr, user_id: Any, keywords: tuple = (),
                 min_fit: float = 0.15, min_qualified: int = 2,
                 max_experts: int = 10):
        super().__init__(child)
        self.user_id = user_id
        self.keywords = tuple(keywords)
        self.min_fit = min_fit
        self.min_qualified = min_qualified
        self.max_experts = max_experts

    def with_children(self, *children: Expr) -> "ConnectionBasisE":
        (child,) = children
        return ConnectionBasisE(child, self.user_id, self.keywords,
                                self.min_fit, self.min_qualified,
                                self.max_experts)

    def _compute(self, inputs):
        from repro.core.social import connection_basis

        return connection_basis(
            inputs[0], self.user_id, self.keywords,
            min_fit=self.min_fit, min_qualified=self.min_qualified,
            max_experts=self.max_experts,
        )

    def estimate(self, stats: GraphStats) -> Card:
        return Card(stats.expected_basis_size() + 1, 0.0)

    def describe(self) -> str:
        return f"basis⟨u={self.user_id},terms={len(self.keywords)}⟩"


class SocialScoreE(_Ternary):
    """The social scoring stage: strategy-parameterised semi-join probe
    plus grouped aggregation over (graph, candidates, basis).

    *strategy* is one of :data:`repro.core.social.COMPILED_STRATEGIES` or
    ``"auto"`` — the compiler resolves ``"auto"`` from statistics before
    lowering; direct evaluation resolves it from the live graph.
    """

    op = "social_score"

    def __init__(self, graph: Expr, candidates: Expr, basis: Expr,
                 strategy: str, user_id: Any, keywords: tuple = (),
                 sim_threshold: float = 0.1, act_type: str = "visit"):
        super().__init__(graph, candidates, basis)
        self.strategy = strategy
        self.user_id = user_id
        self.keywords = tuple(keywords)
        self.sim_threshold = sim_threshold
        self.act_type = act_type

    def with_children(self, *children: Expr) -> "SocialScoreE":
        graph, candidates, basis = children
        return SocialScoreE(graph, candidates, basis, self.strategy,
                            self.user_id, self.keywords,
                            self.sim_threshold, self.act_type)

    def pinned(self, strategy: str) -> "SocialScoreE":
        """This stage under an already-resolved strategy name.

        The compiler resolves ``"auto"`` from statistics and pins the
        choice here, so EXPLAIN reports what actually ran.
        """
        return SocialScoreE(*self.children(), strategy, self.user_id,
                            self.keywords, self.sim_threshold, self.act_type)

    def _compute(self, inputs):
        from repro.core.social import social_scores_graph

        return social_scores_graph(
            inputs[0], inputs[1], inputs[2], self.strategy, self.user_id,
            keywords=self.keywords, sim_threshold=self.sim_threshold,
            act_type=self.act_type,
        )

    def estimate(self, stats: GraphStats) -> Card:
        candidates = self._children[1].estimate(stats)
        reach = stats.expected_endorsements()
        items = min(candidates.nodes, reach)
        endorsers = min(stats.expected_basis_size(), reach)
        return Card(items + endorsers + 1, reach)

    def describe(self) -> str:
        return f"social⟨{self.strategy}⟩"


class CombineScoresE(_Binary):
    """α·semantic + (1−α)·social over (candidates, social scores).

    The endorsement-merge stage: max-normalises both components, merges
    them into one relevance score per item (§4's combination), and
    threads the social provenance through.
    """

    op = "combine"

    def __init__(self, candidates: Expr, social: Expr, alpha: float,
                 drop_zero: bool = True):
        super().__init__(candidates, social)
        self.alpha = alpha
        self.drop_zero = drop_zero

    def with_children(self, *children: Expr) -> "CombineScoresE":
        return CombineScoresE(children[0], children[1], self.alpha,
                              self.drop_zero)

    def _compute(self, inputs):
        from repro.core.social import combine_scores_graph

        return combine_scores_graph(inputs[0], inputs[1], self.alpha,
                                    self.drop_zero)

    def estimate(self, stats: GraphStats) -> Card:
        candidates = self.left.estimate(stats)
        social = self.right.estimate(stats)
        return Card(candidates.nodes + 1, social.links)

    def describe(self) -> str:
        return f"combine⟨α={self.alpha:g}⟩"


def input_graph(name: str = "G") -> InputE:
    """Entry point for fluent plan building."""
    return InputE(name)


def literal(graph: SocialContentGraph) -> LiteralE:
    """Wrap a constant graph as a plan node."""
    return LiteralE(graph)


#: Attribute names holding child expressions (not plan-node parameters).
_CHILD_FIELDS = ("child", "left", "right", "_children")


def same_expr(a: Expr, b: Expr) -> bool:
    """Structural identity of plans (used for idempotence rewrites).

    Conservative: parameters are compared by object identity, so this only
    detects sharing the way plans are actually built (reusing sub-plan
    objects), never false positives.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, InputE):
        return a.name == b.name  # type: ignore[attr-defined]
    if isinstance(a, LiteralE):
        return a.graph is b.graph  # type: ignore[attr-defined]
    params_a = {
        k: v for k, v in vars(a).items() if k not in _CHILD_FIELDS
    }
    params_b = {
        k: v for k, v in vars(b).items() if k not in _CHILD_FIELDS
    }
    if params_a.keys() != params_b.keys():
        return False
    for key in params_a:
        va, vb = params_a[key], params_b[key]
        if va is not vb and va != vb:
            return False
    ca, cb = a.children(), b.children()
    return len(ca) == len(cb) and all(same_expr(x, y) for x, y in zip(ca, cb))


def iter_plan_nodes(expr: Expr):
    """Yield every node of the plan DAG once (pre-order, dedup by id)."""
    seen: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(node.children()))


def _callable_ids(predicate: Any) -> tuple:
    """Identity tokens for opaque callables nested in a predicate tree.

    Predicate ``repr`` is structural for the declarative predicate classes,
    but a :class:`~repro.core.conditions.Lambda` renders only its label —
    two different functions under the same label must not collide in a
    cache key, so their identities are folded in explicitly.
    """
    from repro.core.conditions import And, Lambda, Not, Or

    if isinstance(predicate, Lambda):
        return (id(predicate.fn),)
    if isinstance(predicate, (And, Or)):
        return tuple(t for p in predicate.parts for t in _callable_ids(p))
    if isinstance(predicate, Not):
        return _callable_ids(predicate.inner)
    return ()


def _param_key(value: Any) -> Any:
    """A hashable token for one plan-node parameter.

    Plain data keys by value; conditions key by their structural ``repr``
    (plus identities of any embedded callables); everything else — scorers,
    aggregate functions, path patterns, graphs — keys by object identity,
    mirroring :func:`same_expr`'s conservative parameter comparison.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, tuple):
        return tuple(_param_key(v) for v in value)
    if isinstance(value, Condition):
        lambdas = tuple(t for p in value.predicates for t in _callable_ids(p))
        return ("cond", repr(value), lambdas)
    return ("obj", id(value))


def plan_key(expr: Expr) -> tuple:
    """Hashable structural key of a plan (the cacheable form of `same_expr`).

    Two plans with equal keys are observationally equivalent: they apply
    the same operators with the same parameters to the same inputs.  Unlike
    :func:`same_expr`, independently-built but identical conditions compare
    equal (their structural ``repr`` is the key), which is what lets a plan
    cache recognise a repeated request; opaque parameters (scoring
    functions, aggregate functions, literal graphs) still key by identity,
    so a key can never falsely match across different semantics.
    """
    if isinstance(expr, InputE):
        return ("input", expr.name)
    if isinstance(expr, LiteralE):
        return ("literal", id(expr.graph))
    params = tuple(
        (name, _param_key(value))
        for name, value in sorted(vars(expr).items())
        if name not in _CHILD_FIELDS
    )
    return (
        type(expr).__name__,
        params,
        tuple(plan_key(child) for child in expr.children()),
    )
