"""The planner-owned cache of compiled physical plans.

Keys are structural (:func:`repro.core.expr.plan_key` plus the access
preference and the cost model), so a repeated request — same condition,
same scorer, same shape — skips the optimizer and lowering entirely.  Every
entry is stamped with the planner's *plan generation* it was compiled
under — not the data generation, because a plan holds no data; a lookup
under any other stamp misses and drops the entry, so
whatever stales plans (an attach, a full refresh, a node write, drifted
statistics) does so without eagerly walking the cache, and the
recompiled plan replaces the stale one under the same key.

Entries hold *plans*, never results: a cached plan re-executes against the
live graph, and :meth:`PhysicalPlan.execute` guarantees its result aliases
no shared state, so cache hits cannot observe a caller's mutations.

Each :class:`~repro.plan.planner.QueryPlanner` owns one
:class:`PlanCache`; :class:`ResultMemo` is the planner's sub-plan result
memo, which holds *graphs* and is therefore bounded by estimated bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Hashable

from repro.core.social import SemanticOrder
from repro.plan.physical import PhysicalPlan

#: Rough heap footprint of one graph record in a memoised result: the
#: record object, its attrs dict, and its slot in the graph's id maps.
NODE_BYTES = 320
LINK_BYTES = 400
#: Fixed overhead of one memoised result graph.
GRAPH_BYTES = 256


def estimate_graph_bytes(graph: Any) -> int:
    """Byte estimate of one result graph held by the sub-plan memo."""
    return (
        GRAPH_BYTES
        + graph.num_nodes * NODE_BYTES
        + graph.num_links * LINK_BYTES
    )


def _estimate_bytes(value: Any) -> int:
    """Byte estimate of one memo entry: a result graph, or the semantic
    order of one, whose rows cost what that graph's nodes do."""
    if isinstance(value, SemanticOrder):
        return GRAPH_BYTES + len(value.scores) * NODE_BYTES
    return estimate_graph_bytes(value)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting for one plan cache."""

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Thread-safe LRU of ``key → (stamp, PhysicalPlan)``, at most *maxsize*."""

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize!r}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, stamp: Any) -> PhysicalPlan | None:
        """The cached plan for *key* compiled under *stamp*, or None.

        A stamp mismatch counts as a miss and drops the stale entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == stamp:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[1]
            if entry is not None:
                # stale: compiled against an old graph
                del self._entries[key]
            self._misses += 1
            return None

    def put(self, key: Hashable, stamp: Any, plan: PhysicalPlan) -> None:
        """Insert (or replace) an entry, evicting LRU past *maxsize*.

        Stamps only grow, and every hit or insert moves its entry to the
        warm end — so entries of an older stamp, which no lookup can hit
        again, sit together at the cold end and are dropped here (not
        counted as evictions) instead of pinning their plans, and the
        scorers those hold, until *maxsize* newer ones arrive.  (A stamp
        moves with the plan generation: after a node write every keyword
        shape comes back under a new key, its scorer being a new object.)
        """
        with self._lock:
            self._entries[key] = (stamp, plan)
            self._entries.move_to_end(key)
            while next(iter(self._entries.values()))[0] < stamp:
                self._entries.popitem(last=False)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
            )


class ResultMemo:
    """The sub-plan result memo: an LRU of graphs with a byte budget.

    Holds deterministic base-graph stage results (connection bases, σN
    selections, and the :class:`~repro.core.social.SemanticOrder` of a
    σN selection, keyed ``("order", select key)``) for one planner
    state, and is replaced with it, never cleared.  Unlike the plan
    caches this stores *result graphs*, whose footprint varies by orders of
    magnitude — so the bound is an estimated byte budget
    (:func:`estimate_graph_bytes`), not just an entry count.  Thread
    -safe: gateway threads execute plans concurrently on one session,
    so memoisable operators touch the memo from several threads at
    once, and the LRU / byte-accounting updates are multi-step.  The
    dict-style surface (``get`` / ``[]=`` / ``in``) is what the physical
    layer speaks.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 32 * 1024 * 1024):
        if max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive, got {max_entries!r}"
            )
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: key → (result graph, its estimated bytes), least recently used
        #: first (a plain dict: a hit moves its entry to the end)
        self._entries: dict[Hashable, tuple[Any, int]] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return default
            self._entries[key] = entry
            return entry[0]

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __setitem__(self, key: Hashable, graph: Any) -> None:
        nbytes = _estimate_bytes(graph)
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self._bytes -= replaced[1]
            self._entries[key] = (graph, nbytes)
            self._bytes += nbytes
            while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                self._bytes -= self._entries.pop(next(iter(self._entries)))[1]
                self.evictions += 1

    def carried(self, keep: Callable[[Hashable, Any], bool]) -> "ResultMemo":
        """A new memo holding this one's entries for which
        ``keep(key, result)`` holds, in LRU order.

        A new object, as every invalidation makes one: an execution in
        flight still writes its results into the memo it started with.
        """
        memo = ResultMemo(self.max_entries, self.max_bytes)
        with self._lock:
            memo._entries = entries = self._entries.copy()
            memo._bytes = self._bytes
        for key, (graph, nbytes) in list(entries.items()):
            if not keep(key, graph):
                del entries[key]
                memo._bytes -= nbytes
        return memo

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes(self) -> int:
        """Estimated resident footprint of the memoised results."""
        with self._lock:
            return self._bytes


def shared_plan_cache() -> SimpleNamespace:
    # The frozen benchmarks/e2e (inputs.py, direct.py) call
    # ``shared_plan_cache().reset()`` to start from an empty plan cache;
    # every new planner now does by construction, so ``reset()`` does
    # nothing.  Goes in the next benchmark PR (ROADMAP 2(c)).
    return SimpleNamespace(reset=lambda: None)
