"""The Information Presentation layer (paper §3 and §7).

Grouping (social / topical / structural / endorser-group), group
meaningfulness and dimension choice, hierarchical zoom, ranking within and
across groups, and item/group explanations — all reading the base graph
through its :class:`~repro.core.activity.ActivityRelation`
(``graph.activity()``), never by a pass over the whole site.
"""

from repro.presentation.diversify import (
    coverage_diversify,
    intra_list_similarity,
    mmr_diversify,
)
from repro.presentation.explanations import (
    COLLABORATIVE,
    CONTENT_BASED,
    Explanation,
    GroupExplanation,
    explain_collaborative,
    explain_content_based,
    explain_group,
    item_similarity,
    user_similarity,
)
from repro.presentation.grouping import (
    Group,
    GroupingResult,
    endorser_group_grouping,
    social_grouping,
    structural_grouping,
    topical_grouping,
)
from repro.presentation.hierarchy import (
    Frame,
    HierarchicalPresenter,
    restrict_msg,
)
from repro.presentation.meaningful import (
    MeaningfulnessWeights,
    balance_score,
    choose_grouping,
    count_score,
    meaningfulness,
    quality_score,
)
from repro.presentation.organizer import (
    InformationOrganizer,
    OrganizerConfig,
    ResultEntry,
    ResultGroup,
    ResultPage,
)
from repro.presentation.ranking import RankedGroup, ResultSelector

__all__ = [
    "Group", "GroupingResult",
    "social_grouping", "topical_grouping", "structural_grouping",
    "endorser_group_grouping",
    "MeaningfulnessWeights", "meaningfulness", "choose_grouping",
    "count_score", "quality_score", "balance_score",
    "HierarchicalPresenter", "Frame", "restrict_msg",
    "ResultSelector", "RankedGroup",
    "Explanation", "GroupExplanation", "explain_content_based",
    "explain_collaborative", "explain_group", "item_similarity",
    "user_similarity", "CONTENT_BASED", "COLLABORATIVE",
    "InformationOrganizer", "OrganizerConfig",
    "ResultPage", "ResultGroup", "ResultEntry",
    "mmr_diversify", "coverage_diversify", "intra_list_similarity",
]
