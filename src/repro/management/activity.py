"""The Activity Manager: categorizing users by their activity (paper §3/§6).

    "Data Manager needs to make decisions on when and how to refresh parts
    of the social graph efficiently.  The Activity Manager helps in that
    regard by categorizing users based on their activities."

and from §6.2's further discussion:

    "a user who is highly connected may require more frequent
    synchronization of his network from social sites."

:class:`ActivityManager` assigns each user an activity category from their
recent activity count and a connectivity level from their degree, and turns
the two into a refresh interval (smaller = refresh more often) consumed by
:class:`repro.management.sync.SyncScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core import Id, SocialContentGraph


class ActivityCategory(str, Enum):
    """Coarse user activity bands."""

    HEAVY = "heavy"
    MEDIUM = "medium"
    LIGHT = "light"
    DORMANT = "dormant"


#: Default refresh interval (in scheduler ticks) per activity category.
DEFAULT_INTERVALS: dict[ActivityCategory, int] = {
    ActivityCategory.HEAVY: 1,
    ActivityCategory.MEDIUM: 4,
    ActivityCategory.LIGHT: 12,
    ActivityCategory.DORMANT: 48,
}

#: Connectivity multiplier: highly connected users sync even more often.
CONNECTIVITY_BOOST = 0.5  # interval x 0.5 when in the top connectivity band


@dataclass
class UserActivityProfile:
    """Per-user numbers the categorization is based on."""

    user_id: Id
    activities: int = 0
    connections: int = 0
    category: ActivityCategory = ActivityCategory.DORMANT
    refresh_interval: int = DEFAULT_INTERVALS[ActivityCategory.DORMANT]


class ActivityManager:
    """Categorizes users and derives refresh intervals."""

    def __init__(
        self,
        heavy_threshold: int = 10,
        medium_threshold: int = 4,
        light_threshold: int = 1,
        intervals: dict[ActivityCategory, int] | None = None,
        connectivity_quantile: float = 0.9,
    ):
        self.heavy_threshold = heavy_threshold
        self.medium_threshold = medium_threshold
        self.light_threshold = light_threshold
        self.intervals = dict(intervals or DEFAULT_INTERVALS)
        self.connectivity_quantile = connectivity_quantile
        self.profiles: dict[Id, UserActivityProfile] = {}

    def categorize(self, activities: int) -> ActivityCategory:
        """Map an activity count to a category."""
        if activities >= self.heavy_threshold:
            return ActivityCategory.HEAVY
        if activities >= self.medium_threshold:
            return ActivityCategory.MEDIUM
        if activities >= self.light_threshold:
            return ActivityCategory.LIGHT
        return ActivityCategory.DORMANT

    def analyze(self, graph: SocialContentGraph) -> dict[Id, UserActivityProfile]:
        """Profile every user node of *graph*.

        Activity = outgoing ``act`` links; connectivity = ``connect``
        degree (both directions).  The top ``1 - connectivity_quantile``
        fraction of users by connectivity get their interval halved.
        """
        profiles: dict[Id, UserActivityProfile] = {}
        for node in graph.nodes_of_type("user"):
            profiles[node.id] = UserActivityProfile(user_id=node.id)
        for link in graph.links():
            if link.has_type("act") and link.src in profiles:
                profiles[link.src].activities += 1
            elif link.has_type("connect"):
                if link.src in profiles:
                    profiles[link.src].connections += 1
                if link.tgt in profiles:
                    profiles[link.tgt].connections += 1

        degrees = sorted(p.connections for p in profiles.values())
        if degrees:
            cut_index = min(
                len(degrees) - 1,
                int(self.connectivity_quantile * len(degrees)),
            )
            connectivity_cut = degrees[cut_index]
        else:
            connectivity_cut = 0

        for profile in profiles.values():
            profile.category = self.categorize(profile.activities)
            interval = self.intervals[profile.category]
            if degrees and profile.connections >= connectivity_cut > 0:
                interval = max(1, int(interval * CONNECTIVITY_BOOST))
            profile.refresh_interval = interval
        self.profiles = profiles
        return profiles
