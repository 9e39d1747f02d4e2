"""Reference social relevance scorers, hand-executed.

Every scorer maps (graph, user, candidate items, connection basis) to
per-item social scores **with provenance** — the endorsing users behind
each score — since §7.2's explanations need exactly that:

* :func:`score_friends` — endorsement counts over a chosen connection
  basis (friends, or experts after the Selma fallback);
* :func:`score_similar_users` — Example 5's collaborative filtering, run
  through the algebra recipe;
* :func:`score_item_based` — content-based: items similar (derived
  ``sim_item`` links) to what the user already acted on.

The compiled twins are the ``*_scores`` kernels of ``repro.core.social``.
"""

from __future__ import annotations

from repro.core import Id, SocialContentGraph
from repro.core.recipes import example5_collaborative_filtering, recommendations_from
from repro.discovery.strategies import SocialScores

from oracle.connections import ConnectionSelection


def score_friends(
    graph: SocialContentGraph,
    user_id: Id,
    candidates: set[Id],
    basis: ConnectionSelection | None = None,
) -> SocialScores:
    """Count endorsements (activities) by the selected connection basis.

    score(i) = Σ_{u' in basis, u' acted on i} weight(u'), where weight is
    the connection's topical fit (1.0 for experts).
    """
    result = SocialScores(strategy="friends")
    members = basis.basis if basis is not None else []
    weights = {
        m: (basis.fit.get(m, 1.0) if basis and not basis.used_expert_fallback
            else 1.0)
        for m in members
    }
    for member in members:
        weight = max(weights.get(member, 1.0), 0.1)
        for link in graph.out_links(member):
            if not link.has_type("act") or link.tgt not in candidates:
                continue
            result.scores[link.tgt] = result.scores.get(link.tgt, 0.0) + weight
            result.endorsers.setdefault(link.tgt, {})[member] = weight
    return result


def score_similar_users(
    graph: SocialContentGraph,
    user_id: Id,
    candidates: set[Id],
    basis: ConnectionSelection | None = None,
    sim_threshold: float = 0.1,
    act_type: str = "visit",
) -> SocialScores:
    """Example 5's collaborative filtering as the scoring engine.

    Runs the nine-step algebra recipe over the activity graph; the ``score``
    attribute on the resulting ``recommend`` links is the social relevance;
    similar users who visited the item are the provenance.
    """
    result = SocialScores(strategy="similar_users")
    # The recipe needs a 'destination'-typed target; we accept any item
    # by parameterising dest_type with the item type.
    cf = example5_collaborative_filtering(
        graph,
        user_id,
        visit_type=act_type,
        dest_type="item",
        sim_threshold=sim_threshold,
    )
    for item, score in recommendations_from(cf, user_id):
        if item not in candidates:
            continue
        result.scores[item] = score
    # Provenance: similar users (weight = their similarity) who acted.
    my_items = {
        l.tgt for l in graph.out_links(user_id) if l.has_type(act_type)
    }
    user_items: dict[Id, set] = {}
    for link in graph.links():
        if link.has_type(act_type):
            user_items.setdefault(link.src, set()).add(link.tgt)
    for other, items in user_items.items():
        if other == user_id or not my_items:
            continue
        union_size = len(my_items | items)
        sim = len(my_items & items) / union_size if union_size else 0.0
        if sim <= sim_threshold:
            continue
        for item in items & set(result.scores):
            result.endorsers.setdefault(item, {})[other] = sim
    return result


def score_item_based(
    graph: SocialContentGraph,
    user_id: Id,
    candidates: set[Id],
    basis: ConnectionSelection | None = None,
) -> SocialScores:
    """Content-based: recommend items similar to the user's past items.

    Requires derived ``sim_item`` links (run the Content Analyzer's
    ``item_similarity`` first); score(i) = Σ ItemSim(i, i′) over the user's
    past items i′ — the ItemSim of §7.2's content-based explanation.
    """
    result = SocialScores(strategy="item_based")
    mine = {l.tgt for l in graph.out_links(user_id) if l.has_type("act")}
    for past_item in mine:
        for link in graph.out_links(past_item):
            if not link.has_type("sim_item"):
                continue
            other = link.tgt
            if other not in candidates or other in mine:
                continue
            sim = float(link.value("sim", 0.0))
            result.scores[other] = result.scores.get(other, 0.0) + sim
            result.supporting_items.setdefault(other, {})[past_item] = sim
    return result


#: The reference scorers by strategy name ("cf" is the query-API alias for
#: Example 5's collaborative filtering).
SCORERS = {
    "friends": score_friends,
    "similar_users": score_similar_users,
    "item_based": score_item_based,
    "cf": score_similar_users,
}
