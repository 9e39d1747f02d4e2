"""The session engine: a warm, incrementally-refreshed serving stack.

One :class:`Session` owns the wired Figure 1 layers — Data Manager at the
bottom, Content Analyzer + Information Discoverer in the middle,
Information Organizer on top — and serves :class:`SearchRequest` after
:class:`SearchRequest` without tearing anything down between queries:

* **one served generation** — what a request reads of the site is one
  frozen :class:`~repro.discovery.Generation`, pinned at entry.  When
  the Data Manager moved past it (or an analysis marked it stale) the
  request first publishes the next one under the session lock; a
  request that waited there takes that one.  A write is followed by its
  record changes when they describe the whole step, so each derived
  structure keeps what they cannot have changed — for a vote: the
  tf-idf corpus, the semantic index, the node side of the scan columns,
  compiled plans (see :meth:`repro.plan.QueryPlanner.refresh`).
  ``stats.delta_refreshes`` counts the refreshes that went that way;
  the full resync is the one fallback;
* **compiled serving** — every request's *whole* pipeline (semantic
  σN⟨C,S⟩ scoping, connection selection, social strategy scoring,
  α-combination) is built as one algebra plan and executed through the
  physical compiler (:mod:`repro.plan`): rule-optimized, lowered with
  cost-based access-path choices — scan vs. the lazily built
  :class:`~repro.indexing.semantic.SemanticItemIndex` for keyword
  scoping (identical results by eligibility) — and a cost-based
  strategy pick under ``strategy="auto"`` — compiled once per plan
  shape into a stamped plan cache, and profiled per operator
  for first-class EXPLAIN (``SearchRequest.explain=True`` →
  ``SearchResponse.plan``);
* **deterministic pagination** — the full combined ranking is a total
  order, so ``page``/``cursor`` windows never duplicate or drop items.

A request's one bound is the *deadline* :meth:`Session.run` takes; an
execution that raises reaches its caller as that exception (the serving
gateway turns it into a typed :class:`~repro.api.RequestFailure`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from repro.analysis import ContentAnalyzer
from repro.api.builder import QueryBuilder
from repro.api.request import (
    PageInfo,
    SearchRequest,
    SearchResponse,
    decode_cursor,
    encode_cursor,
)
from repro.core import Id, SocialContentGraph
from repro.discovery import (
    DiscoveryConfig,
    Generation,
    InformationDiscoverer,
    MeaningfulSocialGraph,
    ScoredItem,
    assemble_msg,
    parse_query,
)
from repro.discovery.discoverer import RankedDiscovery
from repro.discovery.query import Query
from repro.errors import DeadlineError, QueryError
from repro.indexing import SemanticItemIndex
from repro.management import DataManager
from repro.plan import (
    INDEX,
    QueryPlanner,
    SCAN,
    explain_execution,
)
from repro.presentation import (
    HierarchicalPresenter,
    InformationOrganizer,
    OrganizerConfig,
)


@dataclass
class SessionConfig:
    """End-to-end configuration of the stack (formerly SocialScopeConfig)."""

    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    organizer: OrganizerConfig = field(default_factory=OrganizerConfig)
    #: analyses to run automatically on construction (names from the
    #: ContentAnalyzer registry); empty = none.
    auto_analyses: tuple[str, ...] = ()
    #: inert: the store is one partition.  The field stays only because
    #: the frozen ``benchmarks/e2e/direct.py`` passes ``shards=``; it goes
    #: in the next benchmark PR.
    shards: int = 1
    #: inert: every scan runs on the calling thread.  The field, its two
    #: accepted spellings and :meth:`Session.close` stay only because the
    #: frozen ``benchmarks/e2e/direct.py`` passes ``parallelism=`` and
    #: calls ``close()``; all three go in the next benchmark PR.
    parallelism: str = "auto"

    def __post_init__(self) -> None:
        shards = self.shards
        if isinstance(shards, bool) or not isinstance(shards, int) \
                or shards < 1:
            raise QueryError(f"shards must be an int >= 1, got {shards!r}")
        if self.parallelism not in ("auto", "never"):
            raise QueryError(
                'parallelism="processes": the process backend was removed; '
                "every scan runs in-process"
                if self.parallelism == "processes" else
                f"parallelism must be 'auto' or 'never', "
                f"got {self.parallelism!r}"
            )


@dataclass
class SessionStats:
    """Work counters a warm session accumulates (thread-safe increments)."""

    queries: int = 0
    refreshes: int = 0
    #: of those, the ones patched from the Data Manager's change feed
    delta_refreshes: int = 0
    #: corpus passes for tf-idf (mirrors SemanticRelevance.builds)
    tfidf_builds: int = 0
    #: semantic index constructions
    index_builds: int = 0
    #: queries whose candidates came from the semantic index
    index_queries: int = 0
    #: queries that fell back to the scan path
    scan_queries: int = 0
    #: physical plans compiled (plan-cache misses)
    plan_compiles: int = 0
    #: queries served by an already-compiled plan
    plan_cache_hits: int = 0


def _check_deadline(
    deadline: float | None, started: float, stage: str
) -> None:
    """Raise the plan executor's typed error when *deadline* has passed."""
    if deadline is None:
        return
    now = time.monotonic()
    if now >= deadline:
        raise DeadlineError(stage, now - started)


class _Evaluation(NamedTuple):
    """One request's evaluated state, shared by run/discover/explain."""

    query: Query
    ranking: RankedDiscovery
    window: list[ScoredItem]
    offset: int
    size: int
    total: int


class Session:
    """A long-lived query session over one social content site."""

    def __init__(
        self,
        data_manager: DataManager,
        config: SessionConfig | None = None,
    ):
        self.config = config or SessionConfig()
        self.data_manager = data_manager
        graph, version, _ = data_manager.graph_since(version=-1)
        self.analyzer = ContentAnalyzer(graph)
        self.stats = SessionStats()
        #: publishes generations; also guards the stats and the recipes
        self._lock = threading.Lock()
        #: site incarnation — 0 for a freshly built session, bumped by
        #: every :meth:`restore`; embedded in cursors so pre-crash tokens
        #: cannot alias a restarted epoch counter
        self.boot = 0
        #: recently served plan shapes, recorded for cache warming:
        #: :meth:`save` persists them and :meth:`restore` replays them
        #: through the new session's planner so the first real request
        #: after a restart hits an already-compiled plan
        self._warm_recipes: list[dict[str, object]] = []
        # the semantic index builds lazily, when a plan takes it
        self.discoverer = InformationDiscoverer(
            graph, config=self.config.discovery,
            index_factory=SemanticItemIndex,
        )
        self.organizer = InformationOrganizer(config=self.config.organizer)
        #: the published generation: read unlocked, replaced under the lock
        self._gen = self.discoverer.generation = replace(
            self.discoverer.generation, version=version
        )
        for name in self.config.auto_analyses:
            self.analyze(name)

    #: how many plan shapes :meth:`save` persists for cache warming
    _WARM_RECIPE_CAP = 64

    # ------------------------------------------------------------ construction
    @classmethod
    def from_graph(
        cls,
        graph: SocialContentGraph,
        config: SessionConfig | None = None,
    ) -> "Session":
        """Build a session around an existing logical graph."""
        dm = DataManager()
        dm.load_graph(graph)
        return cls(dm, config)

    # ------------------------------------------------------------- durability
    def save(self, directory: str | Path) -> dict[str, Any]:
        """Checkpoint the whole serving site into *directory*.

        The data manager writes the site snapshot + rotates its WAL
        (:meth:`~repro.management.DataManager.checkpoint`); the session's
        own state rides along in the manifest's ``extra`` mapping — the
        refresh epoch and boot token (cursor continuity), the analysis
        log (derivations are cheap and re-derivable, so they are re-run
        on restore rather than snapshotted) and the plan-cache warming
        recipes.  Nothing the planner prices plans from is persisted: the
        statistics are re-collected from the recovered graph.
        """
        gen = self._fresh()
        with self._lock:
            recipes = [dict(r) for r in self._warm_recipes]
        analyses = list(dict.fromkeys(
            entry.name for entry in self.analyzer.run_log
        ))
        extra: dict[str, Any] = {
            "session": {
                "epoch": gen.epoch,
                "boot": self.boot,
                "analyses": analyses,
                "warm_recipes": recipes,
            }
        }
        return self.data_manager.checkpoint(directory, extra=extra)

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        config: SessionConfig | None = None,
        warm: bool = True,
    ) -> "Session":
        """Rebuild a serving session from a site snapshot (warm restart).

        Recovery = snapshot + WAL-tail replay for the data, then session
        continuity: persisted analyses re-run over the recovered graph,
        the refresh epoch fast-forwards (never backwards), the boot token
        bumps so cursors minted by the dead incarnation are rejected with
        a typed :class:`~repro.errors.RestartCursorError`, and — under
        ``warm`` — the persisted plan shapes recompile through this
        session's planner so the first real request hits the plan cache.
        Keys of ``extra`` this build does not read (such as an older
        build's ``"feedback"`` table) are ignored.
        """
        dm, report = DataManager.recover(directory)
        session = cls(dm, config)
        state = report.extra.get("session", {})
        for name in state.get("analyses", ()):
            session.analyze(name)
        gen, epoch = session._fresh(), int(state.get("epoch", 0))
        with session._lock:  # the epoch never goes back
            session._gen = replace(gen, epoch=max(gen.epoch, epoch))
        session.boot = int(state.get("boot", 0)) + 1
        if warm:
            session._replay_recipes(state.get("warm_recipes", ()))
        return session

    def _record_recipe_locked(self, request: SearchRequest) -> None:
        """Remember a served plan shape for post-restart cache warming.

        Only structural-free shapes are recorded (a structural
        :class:`~repro.core.Condition` has no stable JSON identity) and
        only JSON-clean user ids; repeats move to the back of the list so
        the cap keeps the most recently served shapes.  Caller holds the
        session lock.
        """
        if request.structural is not None:
            return
        if not isinstance(request.user_id, (str, int)):
            return
        recipe: dict[str, Any] = {
            "user_id": request.user_id,
            "text": request.text,
            "strategy": request.strategy,
            "alpha": request.alpha,
            "k": request.k,
            "use_index": request.use_index,
        }
        if recipe in self._warm_recipes:
            self._warm_recipes.remove(recipe)
        self._warm_recipes.append(recipe)
        del self._warm_recipes[:-self._WARM_RECIPE_CAP]

    def _replay_recipes(
        self, recipes: Iterable[Mapping[str, Any]]
    ) -> None:
        """Compile persisted plan shapes through this session's planner.

        Compiled plans are not persisted — warming re-evaluates each
        recorded shape here, compiling it into this session's plan cache
        against the recovered graph's statistics.  Best-effort:
        a recipe that no longer evaluates (user deleted mid-WAL, say) is
        skipped, never fatal.
        """
        kept = [dict(r) for r in recipes][-self._WARM_RECIPE_CAP:]
        with self._lock:
            self._warm_recipes = kept
        for recipe in kept:
            try:
                request = SearchRequest(
                    user_id=recipe["user_id"],
                    text=str(recipe.get("text") or ""),
                    strategy=recipe.get("strategy"),
                    alpha=recipe.get("alpha"),
                    k=recipe.get("k"),
                    use_index=recipe.get("use_index"),
                )
                self._evaluate(request)
            except Exception:
                continue

    # ---------------------------------------------------------------- content
    @property
    def graph(self) -> SocialContentGraph:
        """The current (possibly analysis-enriched) social content graph:
        the served graph of the generation a request would pin now."""
        return self._fresh().graph

    @property
    def epoch(self) -> int:
        """The published generation's cursor epoch: it moves with every
        generation, and cursors minted at another one are refused."""
        return self._gen.epoch

    def analyze(self, name: str) -> None:
        """Run one Content Analyzer analysis over the site as it is now (a
        pending write is followed first) and mark the generation stale."""
        if self._gen.version != self.data_manager.version:
            self._refresh()
        with self._lock:
            self.analyzer.run(name)
            self._gen = replace(self._gen, stale=True)

    def invalidate(self) -> None:
        """Mark the generation stale; the next request publishes a new one.

        Nothing is rebuilt here, and back-to-back invalidations cost
        nothing.
        """
        with self._lock:
            self._gen = replace(self._gen, stale=True)

    def _fresh(self) -> Generation:
        """The generation a request pins: the published one, unless the
        site has moved past it.  The warm path takes no lock."""
        gen = self._gen
        if gen.version != self.data_manager.version or gen.stale:
            gen = self._refresh()
        return gen

    def _refresh(self) -> Generation:
        """Publish the generation of the site as it is now; return it.

        Single-flight: a thread that waited on the lock while another
        published takes that generation.  A Data Manager step is followed
        by its record changes when they describe the whole step: no
        analysis has derived links into the working graph (they are
        functions of the data and re-derive in full) and the generation
        is not stale.  The changes come with the served graph in one
        read, so another reader of the manager does not force a resync.
        """
        manager = self.data_manager
        with self._lock:
            gen = self._gen
            if gen.version == manager.version and not gen.stale:
                return gen
            graph, version, delta = manager.graph_since(gen.version)
            if gen.stale or self.analyzer.run_log:
                delta = None
            if version != gen.version:
                # the working graph follows the manager; analyses
                # re-derive over it
                rerun = dict.fromkeys(e.name for e in self.analyzer.run_log)
                self.analyzer.graph = graph
                for name in rerun:
                    self.analyzer.run(name)
            graph = self.analyzer.graph
            links_only = delta is not None and delta.links_only
            semantic = gen.semantic.successor(graph, keep_corpus=links_only)
            plan = self.planner.refresh(graph, delta, semantic.binding())
            self._gen = self.discoverer.generation = Generation(
                plan, semantic, version=version, epoch=gen.epoch + 1
            )
            self.stats.refreshes += 1
            self.stats.delta_refreshes += delta is not None
            return self._gen

    # ---------------------------------------------------------------- planning
    @property
    def planner(self) -> QueryPlanner:
        """The session's query planner (owned by the discoverer)."""
        return self.discoverer.planner

    def close(self) -> None:
        """An empty lifecycle hook (see the comment in :class:`SessionConfig`)."""

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- indexes
    @property
    def semantic_index(self) -> SemanticItemIndex:
        """The current generation's semantic inverted index (built lazily,
        carried across votes)."""
        return self._fresh().semantic.index()

    # ---------------------------------------------------------------- serving
    def query(self, user_id: Id) -> QueryBuilder:
        """Start a fluent query for *user_id* (see :class:`QueryBuilder`)."""
        return QueryBuilder(self, user_id)

    def run(
        self, request: SearchRequest, deadline: float | None = None
    ) -> SearchResponse:
        """Evaluate one structured request into an organized response.

        *deadline* is the request's absolute monotonic deadline — the
        gateway's end-to-end budget — carried into plan execution and
        checked again before the MSG is cut and before the page is
        organized; running past it raises
        :class:`~repro.errors.DeadlineError`, so no stage starts for a
        caller that has gone.  It is per call, never session state: one
        session serves several concurrent requests.
        """
        started = time.monotonic() if deadline is not None else 0.0
        gen = self._fresh()
        ev = self._evaluate(request, gen, deadline=deadline)
        query, window, offset, size, total = (
            ev.query, ev.window, ev.offset, ev.size, ev.total,
        )
        ranking = ev.ranking
        index_used = ev.ranking.execution.used_index
        _check_deadline(deadline, started, "assemble_msg")
        msg = assemble_msg(
            gen.graph, query, window, ranking.social,
            ranking.used_expert_fallback,
        )
        _check_deadline(deadline, started, "organize")
        # When the caller named a window size (k or page_size), the flat
        # list covers the whole window; otherwise the configured flat_k
        # cap applies (the historical facade behavior).
        explicit = request.k is not None or request.page_size is not None
        page = self.organizer.organize(
            msg,
            dimension=request.grouping,
            flat_k=size if explicit else None,
        )
        end = offset + len(window)
        next_cursor = (
            encode_cursor(end, size, gen.epoch, boot=self.boot)
            if end < total else None
        )
        info = PageInfo(
            page=offset // size + 1,
            page_size=size,
            offset=offset,
            returned=len(window),
            total_items=total,
            next_cursor=next_cursor,
        )
        with self._lock:
            self._record_recipe_locked(request)
            self.stats.queries += 1
            if index_used:
                self.stats.index_queries += 1
            else:
                self.stats.scan_queries += 1
            if ev.ranking.execution.cache_hit:
                self.stats.plan_cache_hits += 1
            else:
                self.stats.plan_compiles += 1
            # the builds of the generation chain (carried over votes)
            self.stats.tfidf_builds = gen.semantic.builds
            self.stats.index_builds = gen.semantic.index_builds
        return SearchResponse(
            request=request,
            page=page,
            page_info=info,
            items=tuple(s.item_id for s in window),
            index_used=index_used,
            resolved={
                "strategy": request.strategy or self.config.discovery.strategy,
                "social_strategy": ranking.social.strategy,
                "alpha": (request.alpha if request.alpha is not None
                          else self.config.discovery.alpha),
                "offset": offset,
                "size": size,
                "epoch": gen.epoch,
            },
            plan=(explain_execution(ev.ranking.execution)
                  if request.explain else None),
        )

    # ---------------------------------------------------------------- internals
    @staticmethod
    def _parse(request: SearchRequest) -> Query:
        return parse_query(request.user_id, request.text, request.structural)

    @staticmethod
    def _access_mode(request: SearchRequest) -> str:
        """Map the request's ``use_index`` onto a compiler access mode.

        ``None`` lets the cost model choose; ``True`` forces the index
        wherever *eligible* — structural predicates scope beyond the
        indexed item population, so the compiler still scans them, keeping
        index and scan results identical by construction.
        """
        if request.use_index is None:
            return "auto"
        return INDEX if request.use_index else SCAN

    def _window(
        self, request: SearchRequest, gen: Generation
    ) -> tuple[int, int]:
        """Resolve (offset, size) from page/page_size/k or a cursor.

        A cursor minted at another generation than *gen* is rejected: the
        ranking it pointed into is not the one this request reads, and
        serving it would break the no-duplicates/no-drops pagination
        guarantee.
        """
        size = (
            request.page_size
            if request.page_size is not None
            else (request.k if request.k is not None
                  else self.config.discovery.max_results)
        )
        if request.cursor is not None:
            offset, cursor_size, epoch = decode_cursor(
                request.cursor, expected_boot=self.boot
            )
            if epoch != gen.epoch:
                raise QueryError(
                    f"stale cursor: issued at refresh epoch {epoch}, "
                    f"session is now at {gen.epoch}; restart pagination"
                )
            return offset, cursor_size
        return (request.page - 1) * size, size

    def _evaluate(
        self,
        request: SearchRequest,
        gen: Generation | None = None,
        deadline: float | None = None,
    ) -> "_Evaluation":
        """The shared evaluation pipeline: parse → compile → rank → cut,
        over *gen* (default: the generation a request would pin now).

        Both :meth:`run` and :meth:`discover` go through here, so plan
        compilation, budgeting and windowing cannot drift between them.
        The *whole* pipeline — semantic candidates, connection basis,
        social scoring, α-combination — is one compiled physical plan;
        access-path and strategy routing live in the compiler's cost
        model, not here.
        """
        gen = self._fresh() if gen is None else gen
        query = self._parse(request)
        offset, size = self._window(request, gen)
        # Window pushdown: the ranking stage orders only the rows up to
        # the window's end.  ``k`` caps the ranking even when page_size
        # drives the window, so ``.limit(4).page_size(2)`` means two
        # pages, then exhaustion.
        limit = offset + size
        if request.k is not None:
            limit = min(limit, request.k)
        ranking = self.discoverer.rank(
            query,
            strategy=request.strategy,
            alpha=request.alpha,
            access=self._access_mode(request),
            limit=limit,
            deadline=deadline,
            generation=gen,
        )
        total = ranking.matched
        if request.k is not None:
            total = min(total, request.k)
        return _Evaluation(
            query=query,
            ranking=ranking,
            window=ranking.items[offset : offset + size],
            offset=offset,
            size=size,
            total=total,
        )

    # ---------------------------------------------------- discovery passthrough
    def discover(self, request: SearchRequest) -> MeaningfulSocialGraph:
        """Evaluate a request only as far as the MSG (no presentation)."""
        gen = self._fresh()
        ev = self._evaluate(request, gen)
        return assemble_msg(
            gen.graph, ev.query, ev.window, ev.ranking.social,
            ev.ranking.used_expert_fallback,
        )

    def explore(self, request: SearchRequest) -> HierarchicalPresenter:
        """Zoomable hierarchical presentation of a request's results."""
        msg = self.discover(request)
        return self.organizer.hierarchy(msg)
