"""The process backend: parity, scatter, invalidation, degrade, deadline.

The acceptance net of the multicore executor: every query answers
identically (1e-9 on scores) across {never, processes} × {1, 2, 7
shards}; the two-phase scatter sends each worker one message per
operator and survives concurrent executions; slab generations
invalidate worker-resident columns on in-place writes; a poisoned
worker degrades the execution to the in-process path mid-plan without
changing the answer; a hung worker costs the caller its deadline, not
the reply timeout; and the σL residual vectorization and the
endorsement merge hold parity against their row-wise references.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import factories
from repro.core import Condition, Node, input_graph
from repro.core.conditions import AttrCompare, HasAttr, Lambda, Or
from repro.core.selection import select_matching_links
from repro.discovery import InformationDiscoverer, parse_query
from repro.errors import DeadlineError
from repro.plan import (
    CostModel,
    ProcessShardPool,
    QueryPlanner,
    ShardedScanOp,
    VectorCondition,
)
from repro.plan.columnar import cut_columnar_views
from repro.plan.parallel import _ProcessWorker
from repro.core.partition import shard_of

TOL = 1e-9

#: σN conditions exercising cover, prune, postings and residual regimes.
NODE_CONDITIONS = (
    Condition({"type": "item"}),
    Condition({"type": "item"}, keywords="topic0"),
    Condition({"type": "user"}),
    Condition({"name": "item 1"}),
    Condition({"type": "item"}, keywords="topic1 thing"),
)


def process_planner(graph, shards, mode="processes",
                    min_rows=0.0) -> QueryPlanner:
    """A planner with sharding unthrottled and the process floor set."""
    planner = QueryPlanner(
        graph,
        cost_model=CostModel(shard_scan_min_nodes=0.0,
                             process_min_rows=min_rows),
        parallelism=mode,
    )
    if shards > 1:
        planner.attach_shards(shards)
    return planner


# ---------------------------------------------------------------------------
# Cross-backend parity
# ---------------------------------------------------------------------------


class TestCrossBackendParity:
    """{never, processes} × {1, 2, 7 shards} — one answer."""

    def test_scan_matrix_matches_monolithic(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        exprs = [input_graph("G").select_nodes(c) for c in NODE_CONDITIONS]
        mono = QueryPlanner(graph)
        reference = [mono.execute(e).result for e in exprs]
        for shards in (1, 2, 7):
            for mode in ("never", "processes"):
                planner = process_planner(graph, shards, mode)
                try:
                    for expr, ref in zip(exprs, reference):
                        got = planner.execute(expr)
                        assert got.result.same_as(ref), (shards, mode)
                finally:
                    planner.close()

    def test_ranking_parity_across_backends(self):
        graph = factories.social_site_graph()
        query = parse_query("u0", "topic0 thing")
        for strategy in ("friends", "similar_users", "item_based"):
            reference = InformationDiscoverer(graph).rank(
                query, strategy=strategy
            )
            for shards in (2, 7):
                for mode in ("never", "processes"):
                    discoverer = InformationDiscoverer(graph)
                    planner = discoverer.planner
                    planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
                    planner.attach_shards(shards)
                    planner.parallelism = mode
                    try:
                        got = discoverer.rank(query, strategy=strategy)
                        assert [s.item_id for s in got.items] == [
                            s.item_id for s in reference.items
                        ]
                        for a, b in zip(got.items, reference.items):
                            assert a.combined == pytest.approx(
                                b.combined, abs=TOL
                            )
                            assert a.social == pytest.approx(
                                b.social, abs=TOL
                            )
                        assert got.social.scores == pytest.approx(
                            reference.social.scores, abs=TOL
                        )
                    finally:
                        planner.close()

    def test_process_execution_tags_executor_and_workers(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 3)
        try:
            # covered scans never ship; a keyword scan is prune-only
            execution = planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic0")
            ))
            assert execution.executor.startswith("processes(")
            assert execution.process_served
            rendered = execution.render()
            assert "pid:" in rendered
            assert "ship=" in rendered and "scan=" in rendered
        finally:
            planner.close()

    def test_scatter_sends_each_worker_one_message(self, monkeypatch):
        """7 shards over 2 workers: every shard answers, two messages."""
        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 7)
        planner._process_pool = ProcessShardPool(num_workers=2)
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        )
        sent: list[tuple[int, str]] = []
        real_send = _ProcessWorker.send

        def counting_send(worker, message):
            sent.append((worker.process.pid, message[0]))
            real_send(worker, message)

        monkeypatch.setattr(_ProcessWorker, "send", counting_send)
        try:
            execution = planner.execute(expr)
            pids = planner.process_pool.worker_pids
            assert len(set(pids)) == 2 and os.getpid() not in pids
            # one operator scattered: one scan message per worker (after
            # the one slab ship each), whatever the shard count
            assert sorted(sent) == sorted(
                [(pid, "slabs") for pid in pids]
                + [(pid, "scan") for pid in pids]
            )
            rows = [p for p in execution.profiles if p.shard is not None]
            assert [p.shard for p in rows] == list(range(7))
            assert [p.worker for p in rows] == [
                f"pid:{pids[shard % 2]}" for shard in range(7)
            ]
            assert planner.process_pool.scans_run == 7
            assert execution.result.same_as(
                QueryPlanner(graph).execute(expr).result
            )
        finally:
            planner.close()


# ---------------------------------------------------------------------------
# Slab generations: in-place writes invalidate worker-resident columns
# ---------------------------------------------------------------------------


class TestEpochInvalidation:
    def test_in_place_writes_reship_and_answer_fresh(self):
        graph = factories.social_site_graph(num_items=6)
        planner = process_planner(graph, 2)
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="thing")
        )
        try:
            before = planner.execute(expr)
            assert before.result.num_nodes == 6
            pool = planner.process_pool
            assert pool.ships_run == 1
            # same epoch: the resident slabs serve without a re-ship
            planner.execute(expr)
            assert pool.ships_run == 1
            graph.add_node(Node("i-live", type="item", name="in-place",
                                keywords="topic0 thing"))
            after = planner.execute(expr)
            assert after.result.has_node("i-live")
            assert after.result.num_nodes == 7
            assert pool.ships_run == 2
            graph.remove_node("i-live")
            assert not planner.execute(expr).result.has_node("i-live")
            assert pool.ships_run == 3
        finally:
            planner.close()


# ---------------------------------------------------------------------------
# Runtime degrade: a poisoned worker must not change the answer
# ---------------------------------------------------------------------------


class TestDegradeToThreads:
    """The processes → sequential rung (the class name predates it)."""

    def test_poisoned_worker_degrades_mid_plan(self):
        from repro.testing import armed_faults, worker_killer

        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        seq = QueryPlanner(graph)
        poisoned = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        )
        try:
            # healthy run first, so workers exist to poison
            warm = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            )
            planner.execute(warm)
            pool = planner.process_pool
            # A worker killed *between* plans is reaped and respawned at
            # the next slab ship (the pool self-heals), so breaking the
            # pool needs a deterministic mid-plan death: the fault point
            # fires right before the next pipe request.
            with armed_faults(
                {"parallel.worker_request": worker_killer(times=1)}
            ):
                execution = planner.execute(poisoned)
            assert execution.result.same_as(seq.execute(poisoned).result)
            assert execution.executor.endswith(
                "+sequential (degraded→sequential)"
            )
            assert not execution.process_served
            assert pool.broken
            # broken pool: later plans skip the backend entirely
            later = input_graph("G").select_nodes({"name": "item 1"})
            again = planner.execute(later)
            assert not again.executor.startswith("processes")
            assert again.result.same_as(seq.execute(later).result)
        finally:
            planner.close()

    def test_reset_recovers_the_pool(self):
        from repro.testing import armed_faults, worker_killer

        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        try:
            planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            ))
            pool = planner.process_pool
            bad = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic0")
            )
            # deterministic mid-plan worker death (between-plans kills
            # are reaped and respawned at ship time — see above)
            with armed_faults(
                {"parallel.worker_request": worker_killer(times=1)}
            ):
                planner.execute(bad)
            assert pool.broken
            pool.reset()
            assert not pool.broken
            ships_before = pool.ships_run
            fresh = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic1")
            )
            execution = planner.execute(fresh)
            assert execution.executor.startswith("processes(")
            assert pool.ships_run == ships_before + 1
            assert execution.result.same_as(
                QueryPlanner(graph).execute(fresh).result
            )
        finally:
            planner.close()


class TestSelfHealing:
    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_breaker_probe_respawns_workers_after_cooldown(self):
        """The ladder heals itself: open → half-open probe → respawn."""
        from repro.testing import armed_faults, worker_killer

        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        seq = QueryPlanner(graph)
        try:
            planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            ))
            pool = planner.process_pool
            pool.breaker.cooldown_s = 0.05  # fast probe for the test
            bad = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic0")
            )
            # deterministic mid-plan worker death (between-plans kills
            # are reaped and respawned at ship time, never tripping the
            # breaker)
            with armed_faults(
                {"parallel.worker_request": worker_killer(times=1)}
            ):
                planner.execute(bad)
            assert pool.broken
            # within the cooldown the backend is skipped, no probe spent
            skipped = planner.execute(input_graph("G").select_nodes(
                {"name": "item 1"}
            ))
            assert not skipped.executor.startswith("processes")
            time.sleep(0.06)
            # cooldown elapsed: the next eligible plan is the recovery
            # probe — dead workers are reaped, respawned, re-shipped
            fresh = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic1")
            )
            execution = planner.execute(fresh)
            assert execution.executor.startswith("processes(")
            assert not pool.broken
            assert pool.breaker.stats().recoveries == 1
            assert execution.result.same_as(seq.execute(fresh).result)
        finally:
            planner.close()

    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_worker_kill_fault_degrades_without_changing_answers(self):
        """The chaos fault point kills the worker mid-request; parity holds."""
        from repro.testing import armed_faults, worker_killer

        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        seq = QueryPlanner(graph)
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        )
        try:
            planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            ))
            with armed_faults(
                {"parallel.worker_request": worker_killer(times=1)}
            ):
                execution = planner.execute(expr)
            assert execution.result.same_as(seq.execute(expr).result)
            assert "degraded→sequential" in execution.executor
            assert "pool:processes→sequential" in execution.resilience
            assert planner.process_pool.broken
        finally:
            planner.close()

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="platform has no SIGSTOP")
    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_worker_killed_between_send_and_gather_degrades(
        self, monkeypatch
    ):
        """Both workers got their message; one dies before it replies.

        The victim is stopped just before its send (so it cannot answer
        early) and killed at the first gather-phase receive.
        """
        from repro.testing import armed_faults

        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        seq = QueryPlanner(graph)
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        )
        victims: list = []

        def stop_first(name, worker, **info):
            if not victims:
                victims.append(worker.process)
                os.kill(worker.process.pid, signal.SIGSTOP)

        real_receive = _ProcessWorker.receive

        def killing_receive(worker, timeout):
            if victims and victims[0].is_alive():
                victims[0].kill()
                victims[0].join(timeout=5.0)
            return real_receive(worker, timeout)

        try:
            planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            ))
            monkeypatch.setattr(_ProcessWorker, "receive", killing_receive)
            with armed_faults({"parallel.worker_request": stop_first}):
                execution = planner.execute(expr)
            assert victims and not victims[0].is_alive()
            assert execution.result.same_as(seq.execute(expr).result)
            assert "degraded→sequential" in execution.executor
            assert "pool:processes→sequential" in execution.resilience
            assert not execution.process_served
            assert planner.process_pool.broken
        finally:
            planner.close()

    def test_raising_process_execution_retries_in_process(self, monkeypatch):
        """Not a worker fault, yet the backend was attached: retry once."""
        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        expr = input_graph("G").select_nodes(
            Condition({"type": "item"}, keywords="topic0")
        )

        def broken_gather(op, view, rows):
            raise RuntimeError("gather bug")

        # only process-served shards gather; the in-process kernel
        # never calls it
        monkeypatch.setattr(ShardedScanOp, "_gather", broken_gather)
        try:
            execution = planner.execute(expr)
            assert execution.executor == "sequential"
            assert execution.resilience == ("pool:processes→sequential",)
            assert execution.result.same_as(
                QueryPlanner(graph).execute(expr).result
            )
            assert planner.process_pool.breaker.stats().failures == 1
            # with no backend attached there is no rung left: it raises
            planner.parallelism = "never"
            monkeypatch.setattr(
                ShardedScanOp, "_kernel",
                lambda op, view: broken_gather(op, view, ()),
            )
            with pytest.raises(RuntimeError, match="gather bug"):
                planner.execute(input_graph("G").select_nodes(
                    Condition({"type": "item"}, keywords="thing")
                ))
        finally:
            planner.close()


# ---------------------------------------------------------------------------
# Deadlines: a hung worker costs the caller its budget, not the reply timeout
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="platform has no SIGSTOP")
class TestGatherDeadline:
    @pytest.mark.usefixtures("deadlock_watchdog")
    def test_stopped_worker_expires_the_deadline_not_the_timeout(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        seq = QueryPlanner(graph)
        try:
            planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            ))
            pool = planner.process_pool
            stopped = pool.worker_pids[0]
            os.kill(stopped, signal.SIGSTOP)
            try:
                started = time.monotonic()
                with pytest.raises(DeadlineError):
                    planner.execute(
                        input_graph("G").select_nodes(
                            Condition({"type": "item"}, keywords="topic0")
                        ),
                        deadline=started + 0.3,
                    )
                elapsed = time.monotonic() - started
            finally:
                os.kill(stopped, signal.SIGCONT)
            assert 0.3 <= elapsed < 5.0  # nowhere near the 60 s timeout
            # expiry is not a worker fault: the circuit stays closed and
            # the next execution drains the late replies and is served
            assert not pool.broken
            fresh = input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic1")
            )
            execution = planner.execute(fresh)
            assert execution.executor.startswith("processes(")
            assert execution.process_served
            assert "degraded" not in execution.executor
            assert execution.result.same_as(seq.execute(fresh).result)
            assert pool.worker_pids[0] == stopped  # same workers, healed
        finally:
            planner.close()


# ---------------------------------------------------------------------------
# Shipping eligibility: picklability and the auto row floor
# ---------------------------------------------------------------------------


class TestShippability:
    def test_opaque_residuals_pin_the_plan_in_process(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 2)
        threshold = 0.0  # closure state: the lambda cannot pickle
        expr = input_graph("G").select_nodes(Condition(
            {"type": "item"},
            predicates=[Lambda(lambda n: (n.score or 1.0) > threshold)],
        ))
        try:
            plan, _ = planner.compile(expr)
            assert not plan.process_shippable
            execution = planner.execute(expr)
            assert not execution.executor.startswith("processes")
            assert execution.result.same_as(
                QueryPlanner(graph).execute(expr).result
            )
        finally:
            planner.close()

    def test_auto_mode_respects_the_row_floor(self):
        graph = factories.social_site_graph(num_users=10, num_items=16)
        # default floor (50k rows × shards): this site is far below it
        planner = process_planner(graph, 2, mode="auto",
                                  min_rows=50_000.0)
        try:
            execution = planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="topic0")
            ))
            assert not execution.executor.startswith("processes")
            assert planner._process_pool is None
            # floor cleared: the same planner escalates
            planner.cost_model = CostModel(shard_scan_min_nodes=0.0,
                                           process_min_rows=1.0)
            execution = planner.execute(input_graph("G").select_nodes(
                Condition({"type": "item"}, keywords="thing")
            ))
            assert execution.executor.startswith("processes(")
        finally:
            planner.close()


# ---------------------------------------------------------------------------
# Concurrency: one pool, many plans in flight
# ---------------------------------------------------------------------------


class TestProcessPoolStorm:
    def test_concurrent_executes_share_one_pool(self, deadlock_watchdog):
        """More threads than cores, several rounds each, one pool.

        Every exchange takes both worker locks in index order, so the
        storm can only serialise, never deadlock; the pool's shard
        counter (updated under its lock) must equal the process-served
        shard rows the executions themselves reported — a lost update
        or a reply delivered to the wrong execution breaks one of the
        two assertions.
        """
        graph = factories.social_site_graph(num_users=10, num_items=16)
        planner = process_planner(graph, 3)
        exprs = [
            input_graph("G").select_nodes(cond)
            for cond in NODE_CONDITIONS
        ] * 2
        rounds = 4
        seq = QueryPlanner(graph)
        references = [seq.execute(e).result for e in exprs]
        errors: list[BaseException] = []
        served_rows: list[int] = []
        barrier = threading.Barrier(len(exprs))

        def run(i: int) -> None:
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    j = (i + step) % len(exprs)
                    got = planner.execute(exprs[j])
                    assert got.result.same_as(references[j]), (i, j)
                    assert "degraded" not in got.executor
                    served_rows.append(sum(
                        1 for p in got.profiles
                        if p.shard is not None and p.worker is not None
                    ))
            except BaseException as error:  # noqa: BLE001 — collected
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(exprs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            pool = planner.process_pool
            assert pool.ships_run == 1  # one resident slab
            assert not pool.broken
            assert pool.scans_run == sum(served_rows) > 0
            assert all(w.owed == 0 for w in pool._workers)
        finally:
            sys.setswitchinterval(interval)
            planner.close()


# ---------------------------------------------------------------------------
# σL residual vectorization: parity against the row-wise kernel
# ---------------------------------------------------------------------------


@st.composite
def link_scan_workloads(draw):
    """A random site plus a σL condition mixing every predicate regime."""
    graph = factories.social_site_graph(
        num_users=draw(st.integers(min_value=1, max_value=6)),
        num_items=draw(st.integers(min_value=1, max_value=9)),
        friends_per_user=draw(st.integers(min_value=0, max_value=3)),
        acts_per_user=draw(st.integers(min_value=0, max_value=4)),
        with_sim_links=draw(st.booleans()),
    )
    structural = {}
    if draw(st.booleans()):
        structural["type"] = draw(
            st.sampled_from(["act", "friend", "sim_item", "nosuch"])
        )
    if draw(st.booleans()):
        # columnar comparison over the (often absent) sim attribute
        structural["sim__ge"] = draw(
            st.floats(min_value=0.0, max_value=0.6, allow_nan=False)
        )
    predicates = []
    if draw(st.booleans()):
        # an Or never vectorizes: forces the residual row-test path
        predicates.append(Or(AttrCompare("sim", ">", 0.3), HasAttr("ts")))
    return graph, Condition(structural, predicates=predicates)


class TestLinkResidualVectorization:
    @settings(max_examples=40, deadline=None)
    @given(link_scan_workloads(), st.sampled_from([1, 3]))
    def test_select_links_matches_row_wise_matches(self, workload, shards):
        graph, cond = workload
        vector = VectorCondition(cond)
        for view in cut_columnar_views(graph, shards, shard_of):
            expected = select_matching_links(list(view.links), cond)
            got = vector.select_links(view)
            assert [l.id for l in got] == [l.id for l in expected]
            for a, b in zip(got, expected):
                if b.score is not None:
                    assert a.score == pytest.approx(b.score, abs=TOL)

    @settings(max_examples=25, deadline=None)
    @given(link_scan_workloads())
    def test_survivor_positions_match_predicate_matches(self, workload):
        graph, cond = workload
        (view,) = cut_columnar_views(graph, 1, shard_of)
        survivors = VectorCondition(cond).link_survivors(view)
        expected = [row for row, link in enumerate(view.links)
                    if cond.satisfied_by(link)]
        assert [int(row) for row in survivors] == expected


# ---------------------------------------------------------------------------
# Endorsement merges over sharded candidates
# ---------------------------------------------------------------------------


def _friends_social_expr(user: str = "u0"):
    """A SocialScoreE eligible for the §6.2 endorsement-merge lowering.

    The merge form exists only for the friends strategy on empty-keyword
    queries (the basis-weight correctness boundary), so that is the
    regime the merge must hold parity in when its candidates arrive
    shard-concatenated.
    """
    from repro.core.expr import ConnectionBasisE, SocialScoreE

    G = input_graph("G")
    candidates = G.select_nodes({"type": "item"})
    basis = ConnectionBasisE(G, user_id=user, keywords=())
    return SocialScoreE(
        G, candidates, basis, strategy="friends", user_id=user,
        keywords=(), sim_threshold=0.1, act_type="visit",
    )


class TestShardedEndorsementMerge:
    def test_ranking_parity_across_shard_counts_and_strategies(self):
        graph = factories.social_site_graph()
        for strategy in ("friends", "similar_users", "item_based"):
            for text in ("topic0", ""):
                query = parse_query("u0", text)
                reference = InformationDiscoverer(graph).rank(
                    query, strategy=strategy
                )
                for shards in (2, 7):
                    discoverer = InformationDiscoverer(graph)
                    planner = discoverer.planner
                    planner.cost_model = CostModel(shard_scan_min_nodes=0.0)
                    planner.attach_shards(shards)
                    got = discoverer.rank(query, strategy=strategy)
                    assert [s.item_id for s in got.items] == [
                        s.item_id for s in reference.items
                    ], (strategy, shards, text)
                    assert got.social.scores == pytest.approx(
                        reference.social.scores, abs=TOL
                    )
                    for item, per_user in reference.social.endorsers.items():
                        assert got.social.endorsers[item] == pytest.approx(
                            per_user, abs=TOL
                        )

    def test_sharded_posting_merge_matches_monolithic(self):
        from repro.core.social import decode_social_result

        graph = factories.social_site_graph()
        expr = _friends_social_expr()
        reference = decode_social_result(
            QueryPlanner(graph).execute(expr, access="index").result
        )
        assert reference.scores  # the regime is non-degenerate
        for shards in (2, 7):
            planner = QueryPlanner(
                graph, cost_model=CostModel(shard_scan_min_nodes=0.0)
            )
            planner.attach_shards(shards)
            got = decode_social_result(
                planner.execute(expr, access="index").result
            )
            # candidate order is shard-concatenated; scores compare as a
            # mapping (the ranking-parity test pins the sorted order)
            assert set(got.scores) == set(reference.scores), shards
            for item, score in reference.scores.items():
                assert got.scores[item] == pytest.approx(score, abs=TOL)
            assert set(got.endorsers) == set(reference.endorsers)
            for item, per_user in reference.endorsers.items():
                assert got.endorsers[item] == pytest.approx(
                    per_user, abs=TOL
                )
