"""The change feed's unit: what a step of writes did, record by record.

A write to the site is an ``(old record, new record)`` pair — ``old`` is
``None`` for an insert, ``new`` is ``None`` for a delete, both are set for
an upsert that replaced a record.  A :class:`GraphDelta` is an ordered run
of such pairs: the in-memory twin of the WAL records the Data Manager
appends, and what it hands upward so that a derived structure can keep
whatever the step *cannot* have changed instead of being rebuilt from the
whole site.  ``SocialContentGraph.patched`` applies one; the consumers
read it for the records it touched.

Order matters and is the store's: a deleted node's incident links are
listed (as deletes) before the node itself, so applying the changes in
order never leaves a dangling link.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.core.graph import Link, Node

NODE = "node"
LINK = "link"


class Change(NamedTuple):
    """One record's step: insert (no *old*), delete (no *new*) or replace."""

    kind: str
    old: Node | Link | None
    new: Node | Link | None


class GraphDelta:
    """An ordered run of record changes between two states of one site."""

    __slots__ = ("changes", "links_only")

    def __init__(self, changes: Iterable[Change] = ()):
        self.changes: tuple[Change, ...] = tuple(changes)
        #: no node record was inserted, replaced or deleted — everything
        #: derived from node records alone survives the step
        self.links_only: bool = all(c.kind == LINK for c in self.changes)

    def __iter__(self) -> Iterator[Change]:
        return iter(self.changes)

    def __len__(self) -> int:
        return len(self.changes)

    def touched_links(self) -> Iterator[Link]:
        """Every link record the step removed or put in place."""
        for kind, old, new in self.changes:
            if kind == LINK:
                if old is not None:
                    yield old
                if new is not None:
                    yield new

    def __repr__(self) -> str:
        return f"GraphDelta({len(self.changes)} changes)"
