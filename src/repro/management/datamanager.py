"""The Data Manager: logical graph service over the physical store (§3).

    "the maintenance and retrieval of the social content graph through the
    Data Manager, which abstracts away the physical implementation of the
    graph."

:class:`DataManager` is what the upper layers talk to: it loads graphs into
the physical :class:`~repro.management.storage.GraphStore`, serves logical
snapshots plus overlay views, answers provenance questions, exposes
optimizer statistics, and owns the refresh machinery (integrator +
activity manager + scheduler) for externally-integrated data.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any

from repro.core import Id, Link, Node, SocialContentGraph
from repro.core.delta import LINK, NODE, Change, GraphDelta
from repro.core.faults import fault_point
from repro.core.serialize import link_to_dict, node_to_dict
from repro.management.activity import ActivityManager, UserActivityProfile
from repro.management.integrator import ContentIntegrator, IntegrationReport
from repro.management.remote import RemoteSocialSite
from repro.management.storage import DERIVED, GraphStore, LOCAL
from repro.management.sync import SyncScheduler
from repro.management.wal import (
    OP_DEL_LINK,
    OP_DEL_NODE,
    OP_LINK,
    OP_NODE,
    WalWriter,
)
from repro.core.stats import GraphStats

#: Record changes the in-memory feed holds; a reader further behind than
#: this resyncs in full.
CHANGE_LOG_BOUND = 1024


class DataManager:
    """Facade over physical storage + integration + refresh policy."""

    def __init__(self, site_name: str = "socialscope",
                 indexed_attributes: tuple[str, ...] = ("name",)):
        self.site_name = site_name
        self.store = GraphStore(indexed_attributes=indexed_attributes)
        # Every import that wrote is a (bulk) change of this manager's.
        # The hook holds the manager weakly: manager → integrator → hook
        # → manager would leave a dropped manager, store and all, to the
        # cycle collector.
        this = weakref.ref(self)
        self.integrator = ContentIntegrator(
            self.store, client_name=site_name,
            on_import=lambda: this()._imported(),
        )
        self.activity_manager = ActivityManager()
        #: held by every write and by :meth:`graph` from cut to stamp;
        #: reentrant, so code run inside :meth:`graph` may write
        self._lock = threading.RLock()
        #: the last logical graph served (frozen) and the version it
        #: reflects (-1: none yet, which no change feed reaches back to)
        self._served: SocialContentGraph | None = None
        self._served_version = -1
        self._version = 0
        #: the change feed: ``(version after the write, change)``, oldest
        #: first, complete for every version above ``_changes_floor``
        self._changes: deque[tuple[int, Change]] = deque()
        self._changes_floor = 0
        #: optional write-ahead log; once attached, every logical write
        #: (loads, upserts, deletes) appends an activity record before
        #: the call returns — recovery replays these past the snapshot
        self._wal: WalWriter | None = None
        #: high watermark: the WAL seq of the last write reflected here
        self._applied_seq = 0

    @property
    def version(self) -> int:
        """Monotone write counter — bumps whenever stored data changes.

        Upper layers (the session engine in particular) compare versions
        instead of graphs to decide whether cached per-graph state (tf-idf
        corpus, search indexes) is still valid.
        """
        return self._version

    def _imported(self) -> None:
        """An integration pull wrote to the store: a bulk change."""
        with self._lock:
            self._mark_changed_locked()

    def _mark_changed_locked(self, *changes: Change) -> None:
        """One accepted write: move the version and feed the change log.

        Called with the records the write touched, or with none for a
        *bulk* change (a load, an integration pull, a recovery) that the
        feed does not itemise — readers behind it resync in full.
        """
        self._version += 1
        if not changes:
            self._changes.clear()
            self._changes_floor = self._version
            return
        version = self._version
        self._changes.extend((version, change) for change in changes)
        while len(self._changes) > CHANGE_LOG_BOUND:
            self._changes_floor = self._changes.popleft()[0]

    def changes_since(self, version: int) -> GraphDelta | None:
        """The record changes that took the site from *version* to now.

        ``None`` when the feed cannot itemise the step: a bulk load, an
        integration pull or a recovery lies in between, or *version* is
        further back than the log reaches (or not one of this manager's).
        """
        with self._lock:
            return self._changes_since_locked(version)

    def _changes_since_locked(self, version: int) -> GraphDelta | None:
        if not self._changes_floor <= version <= self._version:
            return None
        recent: list[Change] = []
        for at, change in reversed(self._changes):
            if at <= version:
                break
            recent.append(change)
        recent.reverse()
        return GraphDelta(recent)

    def _continue_from(self, version: int, applied_seq: int) -> None:
        """Recovery continuity: no counter moves backwards across a crash.

        The jump is a bulk change — nothing that read the dead process's
        versions may take the feed for an account of what happened since.
        """
        with self._lock:
            self._mark_changed_locked()
            self._version = self._changes_floor = max(self._version, version)
            self._applied_seq = applied_seq

    # ------------------------------------------------------------ durability
    @property
    def wal(self) -> WalWriter | None:
        """The attached write-ahead log (None = in-memory only)."""
        return self._wal

    @property
    def applied_seq(self) -> int:
        """WAL seq of the last write this store reflects (0 = none)."""
        return self._applied_seq

    def attach_wal(self, wal: WalWriter) -> None:
        """Journal every subsequent logical write through *wal*.

        Writes already in the store are *not* retro-logged — they are the
        snapshot's job (:meth:`checkpoint`).  Integration pulls
        (:meth:`attach_remote`) write through the integrator below this
        facade and are likewise captured by the next checkpoint, not the
        log.
        """
        self._wal = wal

    def enable_wal(self, directory: str | Path, **kw: Any) -> WalWriter:
        """Attach a fresh :class:`WalWriter` under *directory* (convenience).

        The writer continues after this store's current watermark, so a
        manager recovered with ``resume_wal=False`` can re-enable
        journaling without re-numbering history.
        """
        wal = WalWriter(directory, next_seq=self._applied_seq + 1, **kw)
        self.attach_wal(wal)
        return wal

    def _log_locked(self, op: str, payload: dict[str, Any]) -> None:
        if self._wal is not None:
            self._applied_seq = self._wal.append(op, payload)

    def checkpoint(
        self, directory: str | Path, extra: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Write a recoverable site snapshot into *directory*.

        Durability order: the attached WAL (if any) is fsynced first, so
        the manifest's ``applied_seq`` watermark never references records
        the disk does not hold; the snapshot files commit atomically
        (manifest last); then the WAL rotates and segments fully covered
        by the snapshot are pruned.  ``extra`` rides along in the
        manifest for the upper layers (see
        :meth:`repro.api.Session.save`).
        """
        from repro.management import persist

        if self._wal is not None:
            self._wal.sync()
        manifest = persist.write_snapshot(self, directory, extra=extra)
        if self._wal is not None:
            self._wal.rotate()
            persist.walmod.prune_segments(
                self._wal.directory, self._applied_seq
            )
        return manifest

    @classmethod
    def recover(
        cls, directory: str | Path, *, resume_wal: bool = True
    ) -> "tuple[DataManager, Any]":
        """Rebuild a manager from a site snapshot + WAL tail.

        Returns ``(manager, report)`` where the report carries the
        manifest, the replayed-record count and whether a torn tail was
        truncated (see
        :func:`repro.management.persist.recover_data_manager`).
        """
        from repro.management import persist

        return persist.recover_data_manager(directory, resume_wal=resume_wal)

    # ------------------------------------------------------------------ load
    def load_graph(self, graph: SocialContentGraph, origin: str = LOCAL) -> None:
        """Bulk-load a logical graph into the store under one origin."""
        with self._lock:
            for node in graph.nodes():
                self.store.upsert_node(node, origin=origin)
                self._log_locked(
                    OP_NODE, {**node_to_dict(node), "origin": origin}
                )
            for link in graph.links():
                self.store.upsert_link(link, origin=origin)
                self._log_locked(
                    OP_LINK, {**link_to_dict(link), "origin": origin}
                )
            self._mark_changed_locked()

    def add_node(self, node: Node, origin: str = LOCAL) -> Node:
        """Insert/update one node."""
        store = self.store
        with self._lock:
            old = store.node(node.id) if store.has_node(node.id) else None
            stored = store.upsert_node(node, origin=origin)
            self._log_locked(
                OP_NODE, {**node_to_dict(stored), "origin": origin}
            )
            self._mark_changed_locked(Change(NODE, old, stored))
        return stored

    def add_link(self, link: Link, origin: str = LOCAL) -> Link:
        """Insert/update one link."""
        store = self.store
        with self._lock:
            old = store.link(link.id) if store.has_link(link.id) else None
            stored = store.upsert_link(link, origin=origin)
            self._log_locked(
                OP_LINK, {**link_to_dict(stored), "origin": origin}
            )
            self._mark_changed_locked(Change(LINK, old, stored))
        return stored

    def delete_node(self, node_id: Id) -> None:
        """Remove a node (incident links cascade, exactly as on replay)."""
        store = self.store
        with self._lock:
            old = store.node(node_id)
            cascaded = {
                link.id: link for link in
                chain(store.out_links(node_id), store.in_links(node_id))
            }
            store.delete_node(node_id)
            self._log_locked(OP_DEL_NODE, {"id": node_id})
            self._mark_changed_locked(
                *(Change(LINK, link, None) for link in cascaded.values()),
                Change(NODE, old, None),
            )

    def delete_link(self, link_id: Id) -> None:
        """Remove one link."""
        with self._lock:
            old = self.store.link(link_id)
            self.store.delete_link(link_id)
            self._log_locked(OP_DEL_LINK, {"id": link_id})
            self._mark_changed_locked(Change(LINK, old, None))

    def merge_derived(self, derived: SocialContentGraph) -> None:
        """Union a Content Analyzer derivation into the store."""
        self.load_graph(derived, origin=DERIVED)

    # ------------------------------------------------------------------ read
    def graph(self) -> SocialContentGraph:
        """The logical social content graph as of the last write.

        The graph is frozen: served again until the next write, and then
        *replaced*, never written to.  The next graph is cut from this one
        by ``patched(changes_since(...))``, which shares every adjacency
        set the step did not touch, so whoever still holds the old object
        keeps one whole state of the site.  When the feed cannot itemise
        the step the graph is re-snapshotted from the store; either way it
        iterates as ``store.snapshot()`` does.

        The graph is stamped with the version its delta was cut at, under
        the lock every write takes: a write that lands after the cut (the
        ``management.serve`` fault point sits there) is the next call's.
        """
        with self._lock:
            return self._graph_locked()

    def _graph_locked(self) -> SocialContentGraph:
        version = self._version
        if self._served_version != version:
            delta = self._changes_since_locked(self._served_version)
            served = (
                self._served.patched(delta) if delta is not None
                else self.store.snapshot().freeze()
            )
            fault_point("management.serve")
            self._served, self._served_version = served, version
        return self._served

    def graph_since(
        self, version: int
    ) -> tuple[SocialContentGraph, int, GraphDelta | None]:
        """One locked read: :meth:`graph`, the version it reflects, and
        the record changes from *version* to it (:meth:`changes_since`).
        A reader holding the graph served at *version* follows the step
        by that delta however many others read in between."""
        with self._lock:
            # cut before graph(): a write it lets in is the next read's
            delta = self._changes_since_locked(version)
            return self._graph_locked(), self._served_version, delta

    def statistics(self) -> GraphStats:
        """Cardinality statistics for the optimizer."""
        return self.store.graph_stats()

    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        """Attributes the physical store keeps value indexes for."""
        return self.store.indexed_attributes

    def provenance_summary(self) -> dict[str, tuple[int, int]]:
        """origin -> (nodes, links) counts: local / derived / per-site."""
        origins: dict[str, tuple[int, int]] = {}
        seen = set()
        for (kind, rid), origin in self.store._origins.items():
            seen.add(origin)
        for origin in sorted(seen):
            nodes, links = self.store.records_from(origin)
            origins[origin] = (len(nodes), len(links))
        return origins

    # ------------------------------------------------------------ integration
    def attach_remote(
        self, site: RemoteSocialSite, with_activities: bool = False
    ) -> IntegrationReport:
        """Import a remote site's users/connections (Open Cartel pull)."""
        return self.integrator.import_all(
            site, with_activities=with_activities
        )

    def build_scheduler(self, site: RemoteSocialSite) -> SyncScheduler:
        """Create an activity-driven refresh scheduler for *site*.

        Uses the current graph to profile users; callers run the returned
        scheduler on their simulated clock.
        """
        profiles: dict[Id, UserActivityProfile] = self.activity_manager.analyze(
            self.graph()
        )
        remote_users = set(site.iter_users())
        relevant = {u: p for u, p in profiles.items() if u in remote_users}
        return SyncScheduler(site, self.integrator, relevant)
