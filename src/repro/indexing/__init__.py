"""Activity-driven data management: §6.2's network-aware search indexes.

Network-aware scores (f=count, g=sum), per-(tag,user) inverted lists,
cluster-compressed lists with Eq 1 upper bounds, the three clustering
strategies of Definitions 11-13, Fagin-style top-k, and the index sizing
model behind the paper's 1 TB estimate.
"""

from repro.indexing.clustered import ClusteredIndex
from repro.indexing.clustering import (
    Clustering,
    STRATEGIES,
    behavior_clustering,
    exact_clustering,
    hybrid_clustering,
    network_clustering,
)
from repro.indexing.inverted import (
    ENTRY_BYTES,
    ExactUserIndex,
    GlobalPopularityIndex,
    IndexReport,
)
from repro.indexing.scores import TaggingData, f_count, g_sum
from repro.indexing.semantic import SemanticItemIndex
from repro.indexing.sizing import (
    MeasuredSizes,
    SizingEstimate,
    SizingScenario,
    measured_report,
    paper_scale_estimate,
)
from repro.indexing.topk import (
    QueryStats,
    brute_force,
    no_random_access,
    threshold_algorithm,
)

__all__ = [
    "TaggingData", "f_count", "g_sum",
    "ExactUserIndex", "GlobalPopularityIndex", "IndexReport", "ENTRY_BYTES",
    "Clustering", "network_clustering", "behavior_clustering",
    "hybrid_clustering", "exact_clustering", "STRATEGIES",
    "ClusteredIndex",
    "SemanticItemIndex",
    "threshold_algorithm", "no_random_access", "brute_force", "QueryStats",
    "SizingScenario", "SizingEstimate", "paper_scale_estimate",
    "MeasuredSizes", "measured_report",
]
