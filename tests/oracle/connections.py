"""Reference connection selection (Selma's problem), hand-executed.

    "Selma's example illustrates the importance of analyzing the social
    connections of users and choosing the right subset of the connections
    as the basis for discovering socially-relevant results.  ...  Even if
    Selma does not have any friend with young babies, Y!Travel should
    still be able identify a group of 'experts' on the topic."

:func:`select_connections` scores each friend's *topical fit* to the query
(overlap between the friend's activity vocabulary and the query terms) and
returns the qualified subset; when too few friends qualify, it switches to
the expert fallback, and :func:`find_experts` supplies topic experts from
the whole user population.  The compiled twin is
``repro.core.social.connection_basis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import Id, SocialContentGraph
from repro.core.text import tokenize


def _activity_vocabulary(graph: SocialContentGraph, user: Id) -> set[str]:
    """Terms describing what a user acts on: item keywords/categories and
    the user's own tags."""
    vocabulary: set[str] = set()
    for link in graph.out_links(user):
        if not link.has_type("act"):
            continue
        for value in link.values("tags"):
            vocabulary.update(tokenize(str(value)))
        item = graph.node(link.tgt)
        for att in ("category", "keywords", "city"):
            for value in item.values(att):
                if isinstance(value, str):
                    vocabulary.update(tokenize(value))
    return vocabulary


@dataclass
class ConnectionSelection:
    """The chosen social basis for a query."""

    friends: list[Id]
    fit: dict[Id, float] = field(default_factory=dict)
    used_expert_fallback: bool = False
    experts: list[Id] = field(default_factory=list)

    @property
    def basis(self) -> list[Id]:
        """The users whose activities drive social relevance."""
        return self.experts if self.used_expert_fallback else self.friends


def friends_of(graph: SocialContentGraph, user: Id) -> list[Id]:
    """Direct connections of a user."""
    return sorted(
        {l.tgt for l in graph.out_links(user) if l.has_type("connect")},
        key=repr,
    )


def topical_fit(graph: SocialContentGraph, user: Id, query_terms: set[str]) -> float:
    """Fraction of query terms present in the user's activity vocabulary."""
    if not query_terms:
        return 1.0
    vocabulary = _activity_vocabulary(graph, user)
    return len(query_terms & vocabulary) / len(query_terms)


def select_connections(
    graph: SocialContentGraph,
    user: Id,
    keywords: tuple[str, ...],
    min_fit: float = 0.15,
    min_qualified: int = 2,
    max_experts: int = 10,
) -> ConnectionSelection:
    """Pick the friend subset fit for the query, or fall back to experts.

    A friend qualifies when its topical fit ≥ ``min_fit``.  If fewer
    than ``min_qualified`` friends qualify, the selection switches to
    topic experts (Example 2's requirement).
    """
    query_terms = set(keywords)
    friends = friends_of(graph, user)
    fit = {f: topical_fit(graph, f, query_terms) for f in friends}
    qualified = [f for f in friends if fit[f] >= min_fit]
    if len(qualified) >= min_qualified or not query_terms:
        return ConnectionSelection(friends=qualified or friends, fit=fit)
    experts = find_experts(graph, query_terms, exclude={user},
                           limit=max_experts)
    return ConnectionSelection(
        friends=qualified,
        fit=fit,
        used_expert_fallback=True,
        experts=experts,
    )


def find_experts(
    graph: SocialContentGraph,
    query_terms: set[str],
    exclude: set[Id] = frozenset(),
    limit: int = 10,
) -> list[Id]:
    """Users with the most activity on items matching the query terms.

    "identify a group of 'experts' on the topic" — expertise here is simply
    activity volume on matching items, the measurable proxy the synthetic
    workloads support.
    """
    counts: dict[Id, int] = {}
    for link in graph.links():
        if not link.has_type("act") or link.src in exclude:
            continue
        item = graph.node(link.tgt)
        item_terms = set(tokenize(item.text()))
        for value in link.values("tags"):
            item_terms.update(tokenize(str(value)))
        if query_terms & item_terms:
            counts[link.src] = counts.get(link.src, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return [user for user, _ in ranked[:limit]]
