"""The Content Integrator (paper §3, Content Management layer).

    "it facilitates the incorporation of social information from remote
    sites through Content Integrator.  This has become increasingly
    important as open standards like OpenSocial become widely accepted."

:class:`ContentIntegrator` pulls profiles, connections and activities from
:class:`~repro.management.remote.RemoteSocialSite` instances (given user
permission grants) and converts them into graph records with external
provenance (``source=<site>`` attributes, store origin tracking).  It also
pushes locally-established connections back to the social sites — the
write-back path that distinguishes the Open Cartel model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core import Id, Link, Node
from repro.errors import PermissionDeniedError
from repro.management.remote import RemoteSocialSite
from repro.management.storage import GraphStore


@dataclass
class IntegrationReport:
    """What one integration pass imported."""

    site: str
    users: int = 0
    connections: int = 0
    activities: int = 0
    denied: int = 0


class ContentIntegrator:
    """Imports remote social data into a local :class:`GraphStore`."""

    def __init__(self, store: GraphStore, client_name: str,
                 on_import: Callable[[], None] | None = None):
        self.store = store
        self.client_name = client_name
        #: called after every import that wrote to the store: the owning
        #: Data Manager's version must move, or its readers keep serving
        #: the graph from before the pull
        self.on_import = on_import
        #: per-(site, user) high-water mark of imported activity sequence
        self._sync_marks: dict[tuple[str, Id], int] = {}

    # -------------------------------------------------------------- importing
    def import_user(
        self,
        site: RemoteSocialSite,
        user_id: Id,
        with_connections: bool = True,
        with_activities: bool = False,
    ) -> IntegrationReport:
        """Pull one user's social data from *site* (permission permitting).

        Imported nodes/links carry ``source=<site name>`` and are recorded
        with that origin in the store, so "locally owned" vs "externally
        integrated" (paper §3) stays queryable.
        """
        report = IntegrationReport(site=site.name)
        try:
            profile = site.get_profile(user_id, self.client_name)
        except PermissionDeniedError:
            report.denied += 1
            return report
        self.store.upsert_node(
            Node(user_id, type="user", name=profile.name,
                 interests=profile.interests or None, source=site.name),
            origin=site.name,
        )
        report.users += 1

        if with_connections:
            try:
                connections = site.get_connections(user_id, self.client_name)
            except PermissionDeniedError:
                report.denied += 1
                connections = set()
            for other in sorted(connections, key=repr):
                if not self.store.has_node(other):
                    # Shallow placeholder; full profile requires that user's
                    # own grant.
                    self.store.upsert_node(
                        Node(other, type="user", name=f"user{other}",
                             source=site.name),
                        origin=site.name,
                    )
                link_id = f"ext:{site.name}:{user_id}->{other}"
                self.store.upsert_link(
                    Link(link_id, user_id, other,
                         type="connect, friend", source=site.name),
                    origin=site.name,
                )
                report.connections += 1

        if with_activities:
            since = self._sync_marks.get((site.name, user_id), 0)
            try:
                activities = site.get_activities(
                    user_id, self.client_name, since=since
                )
            except PermissionDeniedError:
                report.denied += 1
                activities = []
            for activity in activities:
                if not self.store.has_node(activity.item_id):
                    self.store.upsert_node(
                        Node(activity.item_id, type="item",
                             name=str(activity.item_id), source=site.name),
                        origin=site.name,
                    )
                link_id = f"ext:{site.name}:act:{activity.sequence}"
                self.store.upsert_link(
                    Link(link_id, user_id, activity.item_id,
                         type=f"act, {activity.verb}", source=site.name,
                         **activity.payload),
                    origin=site.name,
                )
                report.activities += 1
                self._sync_marks[(site.name, user_id)] = max(
                    self._sync_marks.get((site.name, user_id), 0),
                    activity.sequence,
                )
        if self.on_import is not None:
            self.on_import()
        return report

    def import_all(
        self, site: RemoteSocialSite, with_activities: bool = False
    ) -> IntegrationReport:
        """Import every user registered on *site*."""
        total = IntegrationReport(site=site.name)
        for user_id in site.iter_users():
            r = self.import_user(site, user_id, with_activities=with_activities)
            total.users += r.users
            total.connections += r.connections
            total.activities += r.activities
            total.denied += r.denied
        return total

    # ------------------------------------------------------------- write-back
    def push_connection(
        self, site: RemoteSocialSite, user_id: Id, other: Id
    ) -> bool:
        """Propagate a locally-created connection back to the social site.

        Returns False when the user has not granted write scope (the
        connection then exists only locally — a "focused view" divergence).
        """
        try:
            site.push_connection(user_id, other, self.client_name)
        except PermissionDeniedError:
            return False
        return True

    def staleness(self, site: RemoteSocialSite, user_id: Id) -> int:
        """How many remote activities are newer than our last import."""
        mark = self._sync_marks.get((site.name, user_id), 0)
        return sum(
            1
            for a in site._activities  # site-internal view for measurement
            if a.user_id == user_id and a.sequence > mark
        )
