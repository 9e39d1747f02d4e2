"""Version-keyed caches of compiled physical plans.

Keys are structural (:func:`repro.core.expr.plan_key` plus the access
preference), so a repeated request — same condition, same scorer, same
shape — skips the optimizer and lowering entirely.  Every entry is stamped
with the generation of the graph it was compiled against; a lookup under
any other generation misses, which is how Data-Manager writes and session
refreshes invalidate stale plans without eagerly walking the cache.

Entries hold *plans*, never results: a cached plan re-executes against the
live graph, and :meth:`PhysicalPlan.execute` guarantees its result aliases
no shared state, so cache hits cannot observe a caller's mutations.

Two granularities:

* :class:`PlanCache` — one owner, the original per-planner LRU;
* :class:`SharedPlanCache` — one per *process*
  (:func:`shared_plan_cache`), serving every planner at once so sessions
  answering the same hot queries amortize compilation across each other.
  Shared entries are additionally *anchored* to the graph object they
  were compiled against (a weak reference, identity-compared on lookup)
  — two planners can never exchange plans across different graphs even
  if their namespaced keys and generation counters happen to collide —
  and inserts pass a frequency-based admission policy: once the cache is
  full, a key must have missed ``admit_after`` times before it may evict
  a resident plan (a TinyLFU-style doorkeeper, so one-off queries cannot
  flush the hot set).
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.plan.physical import PhysicalPlan

#: Rough heap footprint of one compiled physical operator (the op object,
#: its logical node, conditions, the vector-condition tables).  Plans are
#: small next to results; the estimate only needs to rank them.
PLAN_OP_BYTES = 2_048

#: Rough heap footprint of one graph record in a memoised result: the
#: record object, its attrs dict, and its slot in the graph's id maps.
NODE_BYTES = 320
LINK_BYTES = 400
#: Fixed overhead of one memoised result graph.
GRAPH_BYTES = 256


def estimate_plan_bytes(plan: Any) -> int:
    """Byte estimate of one compiled plan (operator-count driven).

    Non-plan payloads (tests stub entries with sentinels) charge one
    operator's worth.
    """
    root = getattr(plan, "root", None)
    if root is None:
        return GRAPH_BYTES + PLAN_OP_BYTES
    ops = sum(1 for _ in PhysicalPlan._walk(root, set()))
    return GRAPH_BYTES + ops * PLAN_OP_BYTES


def estimate_graph_bytes(graph: Any) -> int:
    """Byte estimate of one result graph held by the sub-plan memo."""
    return (
        GRAPH_BYTES
        + graph.num_nodes * NODE_BYTES
        + graph.num_links * LINK_BYTES
    )


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting for one plan cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    #: inserts the admission policy turned away (SharedPlanCache only)
    rejects: int = 0
    #: estimated bytes currently resident
    bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Thread-safe LRU of ``key → (generation, PhysicalPlan)``.

    Bounded two ways: *maxsize* caps the entry count and *max_bytes*
    (when given) caps the estimated resident footprint — a handful of
    deep pipeline plans should not be able to pin as much memory as a
    thousand single-selection ones just because the entry count says
    they fit.
    """

    def __init__(self, maxsize: int = 256, max_bytes: int | None = None):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize!r}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- byte bookkeeping (always called under the lock) -----------------------

    def _drop_locked(self, key: Hashable) -> None:
        del self._entries[key]
        self._bytes -= self._sizes.pop(key, 0)

    def _evict_over_budget_locked(self) -> None:
        while len(self._entries) > 1 and (
            len(self._entries) > self.maxsize
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            evicted, _ = self._entries.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted, 0)
            self._evictions += 1

    def get(self, key: Hashable, generation: Any,
            anchor: Any = None) -> PhysicalPlan | None:
        """The cached plan for *key* compiled under *generation*, or None.

        A generation mismatch counts as a miss and drops the stale entry.
        (*anchor* exists for signature compatibility with
        :class:`SharedPlanCache`; a single-owner cache has no use for it.)
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == generation:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[1]
            if entry is not None:
                # stale: compiled against an old graph
                self._drop_locked(key)
            self._misses += 1
            return None

    def put(self, key: Hashable, generation: Any, plan: PhysicalPlan,
            anchor: Any = None) -> None:
        """Insert (or refresh) an entry, evicting LRU past either budget."""
        nbytes = estimate_plan_bytes(plan)
        with self._lock:
            if key in self._entries:
                self._bytes -= self._sizes.get(key, 0)
            self._entries[key] = (generation, plan)
            self._entries.move_to_end(key)
            self._sizes[key] = nbytes
            self._bytes += nbytes
            self._evict_over_budget_locked()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0

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
                bytes=self._bytes,
            )


class SharedPlanCache(PlanCache):
    """The process-wide plan cache: anchored entries, admission-gated.

    See the module docstring for the two safety layers on top of the LRU:
    weak *anchor* identity (an entry only serves the exact graph object it
    was compiled against) and the ``admit_after`` doorkeeper (a full cache
    only evicts for keys that have proven they repeat).
    """

    def __init__(self, maxsize: int = 1024, admit_after: int = 2,
                 max_bytes: int | None = 64 * 1024 * 1024):
        super().__init__(maxsize, max_bytes=max_bytes)
        if admit_after < 1:
            raise ValueError(
                f"admit_after must be >= 1, got {admit_after!r}"
            )
        self.admit_after = admit_after
        #: miss frequency per key — the doorkeeper's evidence of reuse
        self._seen: Counter = Counter()
        self._rejects = 0

    @staticmethod
    def _anchor_alive(ref: Any, anchor: Any) -> bool:
        if ref is None:
            return anchor is None
        target = ref()
        # a dead referent must never match — not even an anchor of None —
        # or a recycled graph address could inherit a stale plan
        return target is not None and target is anchor

    def get(self, key: Hashable, generation: Any,
            anchor: Any = None) -> PhysicalPlan | None:
        """Anchored lookup; every miss feeds the admission frequency."""
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry[0] == generation
                and self._anchor_alive(entry[2], anchor)
            ):
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[1]
            if entry is not None:
                # stale generation or dead anchor
                self._drop_locked(key)
            self._misses += 1
            self._seen[key] += 1
            if len(self._seen) > 8 * self.maxsize:
                self._age_locked()
            return None

    def _age_locked(self) -> None:
        """Halve all frequencies, dropping zeros (TinyLFU-style aging)."""
        self._seen = Counter({
            key: count // 2
            for key, count in self._seen.items()
            if count // 2 > 0
        })

    def put(self, key: Hashable, generation: Any, plan: PhysicalPlan,
            anchor: Any = None) -> None:
        """Insert if resident, the cache has room, or the key earned it.

        "Room" is judged against both budgets: a cache full by entry
        count *or* by estimated bytes only evicts for keys that have
        proven they repeat.
        """
        ref = weakref.ref(anchor) if anchor is not None else None
        nbytes = estimate_plan_bytes(plan)
        with self._lock:
            full = len(self._entries) >= self.maxsize or (
                self.max_bytes is not None
                and self._bytes + nbytes > self.max_bytes
            )
            if (
                key not in self._entries
                and full
                and self._seen[key] < self.admit_after
            ):
                self._rejects += 1
                return
            if key in self._entries:
                self._bytes -= self._sizes.get(key, 0)
            self._entries[key] = (generation, plan, ref)
            self._entries.move_to_end(key)
            self._sizes[key] = nbytes
            self._bytes += nbytes
            self._evict_over_budget_locked()

    def reset(self) -> None:
        """Drop entries, frequencies *and* counters (test isolation)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0
            self._seen.clear()
            self._hits = self._misses = self._evictions = 0
            self._rejects = 0

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                rejects=self._rejects,
                bytes=self._bytes,
            )


class ResultMemo:
    """The sub-plan result memo: an LRU of graphs with a byte budget.

    Holds deterministic base-graph stage results (connection bases, σN
    selections) for one graph generation.  Unlike the plan caches this
    stores *result graphs*, whose footprint varies by orders of
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
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            self._entries.move_to_end(key)
            return entry

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __setitem__(self, key: Hashable, graph: Any) -> None:
        nbytes = estimate_graph_bytes(graph)
        with self._lock:
            if key in self._entries:
                self._bytes -= self._sizes.get(key, 0)
            self._entries[key] = graph
            self._entries.move_to_end(key)
            self._sizes[key] = nbytes
            self._bytes += nbytes
            while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                evicted, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(evicted, 0)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes(self) -> int:
        """Estimated resident footprint of the memoised results."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0


_shared_cache: SharedPlanCache | None = None
_shared_cache_lock = threading.Lock()


def shared_plan_cache() -> SharedPlanCache:
    """The process-wide cache every :class:`QueryPlanner` defaults to."""
    global _shared_cache
    if _shared_cache is None:
        with _shared_cache_lock:
            if _shared_cache is None:
                _shared_cache = SharedPlanCache()
    return _shared_cache
