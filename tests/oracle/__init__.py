"""Reference implementations the differential suites compare against.

The hand-executed discovery code the compiled plan pipeline superseded:
kept here, verbatim in behaviour, because the parity suites hold the
engine equal to it at 1e-9.  It goes through the eager algebra and plain
graph walks only — never ``repro.plan`` — and nothing under ``src/``
imports it (``tests/`` is on ``pythonpath``, so suites ``import oracle``
the way they ``import factories``).
"""

from oracle.connections import (
    ConnectionSelection,
    find_experts,
    friends_of,
    select_connections,
)
from oracle.ranking import (
    ReferenceRanking,
    SemanticResult,
    rank_reference,
    semantic_candidates,
)
from oracle.strategies import (
    SCORERS,
    score_friends,
    score_item_based,
    score_similar_users,
)

__all__ = [
    "ConnectionSelection", "select_connections", "find_experts",
    "friends_of",
    "SCORERS", "score_friends", "score_similar_users", "score_item_based",
    "SemanticResult", "semantic_candidates",
    "ReferenceRanking", "rank_reference",
]
