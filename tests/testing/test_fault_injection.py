"""The fault-injection subsystem: registry semantics and real fault sites.

Two layers under test.  The *registry* (``repro.core.faults`` +
``repro.testing.faults``): arming is explicit, typo-proof, budgeted, and
reversible — a production process that never imports ``repro.testing``
can never fire a handler.  The *sites*: a fault armed at a real seam
(a columnar scan, WAL fsync, snapshot bytes) produces the failure the
serving and durability layers claim to survive, and the error actually
surfaces.
"""

from __future__ import annotations

import pytest

import factories
from repro.core import faults as core_faults
from repro.errors import PersistenceError
from repro.management.persist import snapshot_graph
from repro.management.wal import OP_NODE, WalWriter
from repro.testing import (
    FaultPhase,
    FaultSchedule,
    arm,
    armed_faults,
    disarm_all,
    file_corruptor,
    raising,
    sleeping,
)


@pytest.fixture(autouse=True)
def _always_disarm():
    """No test may leak armed faults into its neighbours."""
    disarm_all()
    yield
    disarm_all()


class TestRegistry:
    def test_unarmed_fault_point_is_a_no_op(self):
        assert core_faults.armed() == ()
        core_faults.fault_point("wal.fsync", path="/nowhere")  # no raise

    def test_arming_an_unknown_name_is_a_typo(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            arm({"wal.fsycn": raising(lambda: OSError("boom"))})

    def test_armed_handler_fires_with_site_context(self):
        seen: list[tuple[str, dict]] = []
        arm({"wal.fsync": lambda name, **info: seen.append((name, info))})
        core_faults.fault_point("wal.fsync", path="/segment")
        assert seen == [("wal.fsync", {"path": "/segment"})]

    def test_other_sites_stay_silent(self):
        arm({"wal.fsync": raising(lambda: OSError("boom"))})
        core_faults.fault_point("persist.snapshot", path="/x")  # unarmed

    def test_context_manager_disarms_on_exit(self):
        with armed_faults({"serve.batch": sleeping(0.0)}):
            assert core_faults.armed() == ("serve.batch",)
        assert core_faults.armed() == ()

    def test_budgeted_handler_fires_exactly_n_times(self):
        arm({"wal.fsync": raising(lambda: OSError("boom"), times=2)})
        for _ in range(2):
            with pytest.raises(OSError):
                core_faults.fault_point("wal.fsync")
        core_faults.fault_point("wal.fsync")  # budget exhausted: no-op

    def test_disjoint_arms_compose(self):
        arm({"wal.fsync": sleeping(0.0)})
        arm({"serve.batch": sleeping(0.0)})
        assert core_faults.armed() == ("serve.batch", "wal.fsync")


class TestSchedule:
    def test_phases_arm_and_disarm_on_index(self):
        schedule = FaultSchedule([
            FaultPhase(start=10, stop=20, handlers={
                "wal.fsync": sleeping(0.0),
            }),
            FaultPhase(start=15, stop=30, handlers={
                "serve.batch": sleeping(0.0),
            }),
        ])
        schedule.poll(0)
        assert schedule.active == ()
        schedule.poll(10)
        assert schedule.active == ("wal.fsync",)
        schedule.poll(15)
        assert schedule.active == ("serve.batch", "wal.fsync")
        schedule.poll(20)
        assert schedule.active == ("serve.batch",)
        schedule.poll(30)
        assert schedule.active == ()

    def test_finish_disarms_everything(self):
        schedule = FaultSchedule([
            FaultPhase(start=0, stop=100, handlers={
                "wal.fsync": sleeping(0.0),
            }),
        ])
        schedule.poll(0)
        assert core_faults.armed() == ("wal.fsync",)
        schedule.finish()
        assert core_faults.armed() == ()


class TestRealSites:
    def test_the_scan_point_fires_once_per_columnar_scan(self):
        from repro.core import input_graph
        from repro.plan import CostModel, QueryPlanner

        graph = factories.social_site_graph()
        planner = QueryPlanner(
            graph, cost_model=CostModel(columnar_scan_min_nodes=0.0)
        )
        items = input_graph("G").select_nodes({"type": "item"})
        users = input_graph("G").select_nodes({"type": "user"})
        fired: list = []
        with armed_faults({"physical.scan": lambda name, **info:
                           fired.append(name)}):
            planner.execute(items, env={"G": graph})
            planner.execute(users, env={"G": graph})
        assert fired == ["physical.scan"] * 2
        with armed_faults({"physical.scan": raising(
            lambda: RuntimeError("injected scan fault"), times=1
        )}):
            with pytest.raises(RuntimeError, match="injected scan fault"):
                planner.execute(items, env={"G": graph})
            # budget spent: the same scan answers again
            assert planner.execute(items, env={"G": graph}).result \
                .num_nodes == len(list(graph.nodes_of_type("item")))

    def test_wal_fsync_fault_surfaces_the_os_error(self, tmp_path):
        writer = WalWriter(tmp_path, fsync_every_append=True)
        writer.append(OP_NODE, {"id": "u1"})
        arm({"wal.fsync": raising(lambda: OSError("injected EIO"), times=1)})
        with pytest.raises(OSError, match="injected EIO"):
            writer.append(OP_NODE, {"id": "u2"})
        # budget spent: the writer works again (same durability contract)
        writer.append(OP_NODE, {"id": "u3"})
        writer.close()

    def test_corrupted_snapshot_is_refused_at_recovery(self, tmp_path):
        from repro.api import Session

        session = Session.from_graph(factories.tiny_travel_graph())
        # corrupt the first durable file written (the records, before
        # the manifest): the bytes flip AFTER the CRC is taken, so the
        # read-side verify is what must catch it
        arm({"persist.snapshot": file_corruptor(times=1)})
        session.save(tmp_path)
        disarm_all()
        with pytest.raises(PersistenceError):
            snapshot_graph(tmp_path)

    def test_clean_snapshot_round_trips(self, tmp_path):
        from repro.api import Session

        graph = factories.tiny_travel_graph()
        session = Session.from_graph(graph)
        session.save(tmp_path)
        recovered = snapshot_graph(tmp_path)
        assert set(recovered.node_ids()) == set(graph.node_ids())
