"""Unary selection operators (paper §5.1, Definitions 1 and 2).

Node Selection::

    σN⟨C,S⟩(G) = {v, v.score = S(v) | v ∈ nodes(G) ∧ v satisfies C}

Link Selection::

    σL⟨C,S⟩(G) = {ℓ, ℓ.score = S(ℓ) | ℓ ∈ links(G) ∧ ℓ satisfies C}

Node Selection "outputs a null graph consisting of nodes (and no links) of
the input graph that satisfy the node condition C"; Link Selection "outputs a
subgraph of the input graph induced by those links satisfying the selection
condition C".  Scores are attached only when the condition carries keywords
or a scoring function is explicitly supplied — pure structural selections
pass records through untouched so that repeated selection is cheap and
idempotent.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.conditions import Condition, Predicate, as_condition
from repro.core.graph import SocialContentGraph
from repro.core.scoring import ScoringFunction, resolve_scorer

ConditionLike = Condition | Mapping[str, Any] | Predicate | None


def select_nodes(
    graph: SocialContentGraph,
    condition: ConditionLike = None,
    scorer: ScoringFunction | None = None,
    keywords: str | Iterable[str] | None = None,
) -> SocialContentGraph:
    """Node Selection σN⟨C,S⟩(G) — Definition 1.

    Parameters
    ----------
    graph:
        The input social content graph.
    condition:
        A :class:`~repro.core.conditions.Condition`, a structural mapping
        (``{'type': 'city', 'rating__ge': 0.5}``), a bare predicate, or
        ``None`` for "all nodes".
    scorer:
        Optional scoring function S.  When omitted and the condition has
        keywords, the library default S is used (per the paper).
    keywords:
        Convenience: keywords to fold into a mapping/None condition.

    Returns
    -------
    A *null graph* (no links) containing the satisfying nodes; when scoring
    applies, each node carries ``score = S(v)``.
    """
    cond = as_condition(condition, keywords)
    return graph.null_graph_unique(
        select_matching_nodes(graph.nodes(), cond, scorer)
    )


def select_matching_nodes(
    nodes: Iterable[Any],
    cond: Condition,
    scorer: ScoringFunction | None = None,
) -> list:
    """The Node Selection kernel over an explicit node population.

    Shared by :func:`select_nodes` (whole-graph scan) and the plan
    layer's columnar scan (a type bucket's population): one body, so the
    two access paths cannot drift on predicate or scoring semantics.
    """
    want_scores = scorer is not None or cond.has_keywords
    scoring = resolve_scorer(scorer)
    selected = []
    for node in nodes:
        if not cond.satisfied_by(node):
            continue
        if want_scores:
            node = node.with_score(scoring(node, cond.keywords))
        selected.append(node)
    return selected


def select_matching_links(
    links: Iterable[Any],
    cond: Condition,
    scorer: ScoringFunction | None = None,
) -> list:
    """The Link Selection kernel over an explicit link population.

    Shared by :func:`select_links` (whole-graph scan) and the plan
    layer's columnar link scan (a link-type bucket's population): one
    body, so the two access paths cannot drift on predicate or scoring
    semantics.
    """
    want_scores = scorer is not None or cond.has_keywords
    scoring = resolve_scorer(scorer)
    selected = []
    for link in links:
        if not cond.satisfied_by(link):
            continue
        if want_scores:
            link = link.with_score(scoring(link, cond.keywords))
        selected.append(link)
    return selected


def select_links(
    graph: SocialContentGraph,
    condition: ConditionLike = None,
    scorer: ScoringFunction | None = None,
    keywords: str | Iterable[str] | None = None,
) -> SocialContentGraph:
    """Link Selection σL⟨C,S⟩(G) — Definition 2.

    Returns the subgraph of *graph* induced by the satisfying links: the
    links themselves plus their endpoint nodes.  When scoring applies, each
    link carries ``score = S(ℓ)``.
    """
    cond = as_condition(condition, keywords)
    return graph.subgraph_from_links(
        select_matching_links(graph.links(), cond, scorer)
    )
