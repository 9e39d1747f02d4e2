"""Derived similarity links between users and between items.

The social content graph contains information that "may be ... derived
(e.g., links describing similarities between users)" (paper §3).  This
module computes those derived ``match`` links:

* **user-user similarity** — Jaccard over the item sets users acted on
  (the same measure Example 5's collaborative filtering uses), or over
  their friend networks (the measure of Def 11);
* **item-item similarity** — cosine over tagger incidence vectors, the
  ``ItemSim`` of §7.2's content-based explanations.

All functions are pure: they *return* a graph of derived links (endpoints
included) that the Content Analyzer unions into the main graph, so derived
information is clearly provenance-marked (``derived_by`` attribute).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core import Id, Link, SocialContentGraph


def jaccard(a: set, b: set) -> float:
    """|a ∩ b| / |a ∪ b| (0 when both empty)."""
    if not a and not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)  # |a ∪ b|, without building it


def cosine(a: dict, b: dict) -> float:
    """Cosine over sparse weight dicts."""
    if not a or not b:
        return 0.0
    dot = sum(w * b[k] for k, w in a.items() if k in b)
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


def items_of_users(graph: SocialContentGraph, act_type: str = "act") -> dict[Id, set]:
    """user -> set of items they acted on (the paper's ``items(u)``)."""
    out: dict[Id, set] = {}
    for link in graph.links():
        if link.has_type(act_type):
            out.setdefault(link.src, set()).add(link.tgt)
    return out


def network_of_users(
    graph: SocialContentGraph, connect_type: str = "connect"
) -> dict[Id, set]:
    """user -> set of connected users (the paper's ``network(u)``).

    Both directions count: a connect link u→v puts v in network(u) and u in
    network(v) (friendship links are stored in both directions anyway).
    """
    out: dict[Id, set] = {}
    for link in graph.links():
        if link.has_type(connect_type):
            out.setdefault(link.src, set()).add(link.tgt)
            out.setdefault(link.tgt, set()).add(link.src)
    return out


def taggers_of_items(graph: SocialContentGraph, act_type: str = "act") -> dict[Id, set]:
    """item -> set of users who acted on it (the paper's ``taggers(i)``)."""
    out: dict[Id, set] = {}
    for link in graph.links():
        if link.has_type(act_type):
            out.setdefault(link.tgt, set()).add(link.src)
    return out


def _similarity_graph(
    base: SocialContentGraph,
    vectors: dict[Id, set],
    threshold: float,
    link_type: str,
    derived_by: str,
    measure: Callable[[set, set], float] = jaccard,
) -> SocialContentGraph:
    """All-pairs thresholded similarity links over *vectors*.

    Pairs are enumerated via shared elements (inverted index) so the cost
    is proportional to co-occurrence, not |V|²; links are emitted in both
    directions to keep derived similarity symmetric in the directed model.
    """
    out = SocialContentGraph(catalog=base.catalog)
    by_element: dict = {}
    for owner, elements in vectors.items():
        for element in elements:
            by_element.setdefault(element, set()).add(owner)
    candidate_pairs: set[tuple[Id, Id]] = set()
    for owners in by_element.values():
        ordered = sorted(owners, key=repr)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                candidate_pairs.add((a, b))
    for a, b in sorted(candidate_pairs, key=repr):
        sim = measure(vectors[a], vectors[b])
        if sim < threshold:
            continue
        for node_id in (a, b):
            if not out.has_node(node_id) and base.has_node(node_id):
                out.add_node(base.node(node_id))
        if not (out.has_node(a) and out.has_node(b)):
            continue
        out.add_link(Link(f"sim:{derived_by}:{a}->{b}", a, b,
                          type=f"match, {link_type}", sim=round(sim, 6),
                          derived_by=derived_by))
        out.add_link(Link(f"sim:{derived_by}:{b}->{a}", b, a,
                          type=f"match, {link_type}", sim=round(sim, 6),
                          derived_by=derived_by))
    return out


def user_similarity_links(
    graph: SocialContentGraph,
    threshold: float = 0.2,
    basis: str = "items",
    act_type: str = "act",
    connect_type: str = "connect",
) -> SocialContentGraph:
    """Derived user-user ``match, sim_user`` links.

    ``basis='items'`` uses tagging/visiting behaviour (Def 12's measure);
    ``basis='network'`` uses friend-set overlap (Def 11's measure).
    """
    if basis == "items":
        vectors = items_of_users(graph, act_type)
    elif basis == "network":
        vectors = network_of_users(graph, connect_type)
    else:
        raise ValueError(f"unknown similarity basis {basis!r}")
    return _similarity_graph(
        graph, vectors, threshold, "sim_user", f"user_similarity:{basis}"
    )


def item_similarity_links(
    graph: SocialContentGraph,
    threshold: float = 0.2,
    act_type: str = "act",
) -> SocialContentGraph:
    """Derived item-item ``match, sim_item`` links (Jaccard over taggers)."""
    vectors = taggers_of_items(graph, act_type)
    return _similarity_graph(
        graph, vectors, threshold, "sim_item", "item_similarity"
    )
