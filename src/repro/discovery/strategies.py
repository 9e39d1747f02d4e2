"""Social relevance strategies (the recommendation side of discovery).

    "information discovery on social content sites requires the integration
    of two major paradigms: semantic relevance with respect to a query and
    social relevance in the spirit of recommendations." (§2.1)

A strategy is a *parameter record*: it names which social-scoring stage
the compiled plan runs (:class:`~repro.core.expr.SocialScoreE`, kernel in
:mod:`repro.core.social`) and carries that stage's parameters.  The
scoring itself has one implementation — the plan — so the records hold
no code:

* :class:`FriendBasedStrategy` — endorsement counts over a chosen
  connection basis (friends, or experts after the Selma fallback);
* :class:`SimilarUserStrategy` — Example 5's collaborative filtering
  (the paper's point: discovery tasks are algebra expressions, not
  ad-hoc code);
* :class:`ItemBasedStrategy` — content-based: items similar (derived
  ``sim_item`` links) to what the user already acted on.

Every strategy yields per-item social scores **with provenance**
(:class:`SocialScores`) — the endorsing users behind each score — since
§7.2's explanations need exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from repro.core import Id
from repro.errors import DiscoveryError, QueryError


@dataclass
class SocialScores:
    """Per-item social relevance with endorsement provenance."""

    strategy: str
    scores: dict[Id, float] = field(default_factory=dict)
    #: item -> endorsing users (for CF/friends) with their weight
    endorsers: dict[Id, dict[Id, float]] = field(default_factory=dict)
    #: item -> supporting items (for content-based) with their weight
    supporting_items: dict[Id, dict[Id, float]] = field(default_factory=dict)


class FriendBasedStrategy:
    """Count endorsements (activities) by the selected connection basis.

    score(i) = Σ_{u' in basis, u' acted on i} weight(u'), where weight is
    the connection's topical fit (1.0 for experts).  The simplest strategy
    and the one the Y!Travel examples describe first.
    """

    name = "friends"


class SimilarUserStrategy:
    """Example 5's collaborative filtering as the scoring stage.

    An item's social relevance is the average similarity of the users who
    acted on it (the recipe's ``recommend`` score); users whose *act_type*
    overlap with the requester exceeds *sim_threshold* and who acted on
    the item are the provenance.  Only co-actors can be similar, so the
    threshold is a Jaccard bound: a number in [0, 1) in practice, and
    never negative.
    """

    name = "similar_users"

    def __init__(self, sim_threshold: float = 0.1, act_type: str = "visit"):
        if isinstance(sim_threshold, bool) \
                or not isinstance(sim_threshold, Real) \
                or math.isnan(sim_threshold) or sim_threshold < 0:
            raise QueryError(
                f"sim_threshold must be a number >= 0, got {sim_threshold!r}"
            )
        if not isinstance(act_type, str) or not act_type:
            raise QueryError(
                f"act_type must be a link type name, got {act_type!r}"
            )
        self.sim_threshold = sim_threshold
        self.act_type = act_type


class ItemBasedStrategy:
    """Content-based: recommend items similar to the user's past items.

    Requires derived ``sim_item`` links (run the Content Analyzer's
    ``item_similarity`` first); score(i) = Σ ItemSim(i, i′) over the user's
    past items i′ — the ItemSim of §7.2's content-based explanation.
    """

    name = "item_based"


#: The record classes, in resolution order; a subclass resolves to its
#: base's plan stage.
STRATEGY_RECORDS = (FriendBasedStrategy, SimilarUserStrategy, ItemBasedStrategy)

StrategyRecord = FriendBasedStrategy | SimilarUserStrategy | ItemBasedStrategy


def plan_strategy_name(record: object) -> str:
    """The plan stage a strategy record selects.

    Anything that is not one of the record classes is rejected: a
    strategy cannot bring its own scoring code.
    """
    for cls in STRATEGY_RECORDS:
        if isinstance(record, cls):
            return cls.name
    raise DiscoveryError(
        f"{record!r} is not a strategy record; use one of "
        f"{[cls.__name__ for cls in STRATEGY_RECORDS]}"
    )


#: Registry used by the Information Discoverer.  "cf" is the query-API
#: alias for Example 5's collaborative filtering.
DEFAULT_STRATEGIES: dict[str, StrategyRecord] = {
    "friends": FriendBasedStrategy(),
    "similar_users": SimilarUserStrategy(),
    "item_based": ItemBasedStrategy(),
}
DEFAULT_STRATEGIES["cf"] = DEFAULT_STRATEGIES["similar_users"]
