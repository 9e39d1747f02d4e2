"""Reference implementations the differential suites compare against.

The hand-executed discovery code the compiled plan pipeline superseded,
and the whole-site presentation loops (population-walking explanations,
the ``links()`` cut of the MSG, the membership scan) the adjacency reads
superseded, and the decoder of graph-encoded social results the serving
root no longer needs: kept here, verbatim in behaviour, because the parity suites
hold the engine equal to them at 1e-9.  They go through the eager algebra
and plain graph walks only — never ``repro.plan`` — and nothing under
``src/`` imports them (``tests/`` is on ``pythonpath``, so suites
``import oracle`` the way they ``import factories``).
"""

from oracle.connections import (
    ConnectionSelection,
    find_experts,
    friends_of,
    select_connections,
)
from oracle.explanations import (
    explain_collaborative,
    explain_content_based,
    explain_group,
    item_similarity,
    user_similarity,
)
from oracle.msg import (
    assemble_msg,
    endorser_group_grouping,
    social_grouping,
    structural_grouping,
    taggers_of,
    topical_grouping,
)
from oracle.page import organize_reference
from oracle.ranking import (
    ReferenceRanking,
    SemanticResult,
    rank_reference,
    semantic_candidates,
)
from oracle.social import decode_social_result
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
    "explain_collaborative", "explain_content_based", "explain_group",
    "item_similarity", "user_similarity",
    "assemble_msg", "endorser_group_grouping", "organize_reference",
    "taggers_of", "social_grouping", "topical_grouping",
    "structural_grouping",
    "decode_social_result",
]
