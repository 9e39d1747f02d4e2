"""The Information Discoverer half of the Information Discovery layer.

Query model and classification (Table 1), semantic + social relevance,
connection selection with expert fallback, and Meaningful Social Graph
construction.
"""

from repro.discovery.classify import (
    CATEGORICAL,
    ClassifiedQuery,
    GENERAL,
    QueryClassifier,
    SPECIFIC,
    UNCLASSIFIED,
)
from repro.discovery.discoverer import (
    DiscoveryConfig,
    Generation,
    InformationDiscoverer,
    RankedDiscovery,
)
from repro.discovery.msg import MeaningfulSocialGraph, ScoredItem, assemble_msg
from repro.discovery.query import Query, parse_query
from repro.discovery.relevance import SemanticRelevance
from repro.discovery.strategies import (
    DEFAULT_STRATEGIES,
    FriendBasedStrategy,
    ItemBasedStrategy,
    SimilarUserStrategy,
    SocialScores,
)

__all__ = [
    "Query", "parse_query",
    "QueryClassifier", "ClassifiedQuery",
    "GENERAL", "CATEGORICAL", "SPECIFIC", "UNCLASSIFIED",
    "SemanticRelevance",
    "FriendBasedStrategy", "SimilarUserStrategy", "ItemBasedStrategy",
    "SocialScores", "DEFAULT_STRATEGIES",
    "MeaningfulSocialGraph", "ScoredItem", "assemble_msg",
    "InformationDiscoverer", "DiscoveryConfig", "RankedDiscovery",
    "Generation",
]
