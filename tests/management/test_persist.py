"""Site snapshots: atomic write, CRC verification, recovery continuity."""

import json

import pytest

from repro.core import Link, Node
from repro.errors import PersistenceError
from repro.management import DataManager, read_manifest, write_snapshot
from repro.management.persist import MANIFEST_NAME
from repro.management.storage import DERIVED


def seeded_manager(shards=1, users=10):
    dm = DataManager(shards=shards)
    for i in range(users):
        dm.add_node(Node(f"u{i}", type="user", name=f"user {i}"))
    for i in range(users):
        dm.add_node(Node(f"d{i}", type="item", name=f"place {i}",
                         keywords=f"topic{i % 3} travel"))
    for i in range(users - 1):
        dm.add_link(Link(f"f{i}", f"u{i}", f"u{i + 1}",
                         type="connect, friend"))
    for i in range(users):
        dm.add_link(Link(f"v{i}", f"u{i}", f"d{(i + 1) % users}",
                         type="act, visit"))
    return dm


def same_graphs(a, b):
    return a.graph().same_as(b.graph())


# ------------------------------------------------------------- round trip


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_graph_survives_identically(self, tmp_path, shards):
        dm = seeded_manager(shards=shards)
        write_snapshot(dm, tmp_path)
        recovered, report = DataManager.recover(tmp_path)
        assert same_graphs(recovered, dm)
        assert recovered.num_shards == shards
        assert report.replayed == 0 and not report.tail_truncated

    def test_manifest_shape(self, tmp_path):
        dm = seeded_manager(shards=2)
        manifest = write_snapshot(dm, tmp_path, extra={"note": "hi"})
        assert manifest == read_manifest(tmp_path)
        assert manifest["num_shards"] == 2
        assert len(manifest["shards"]) == 2
        assert manifest["extra"] == {"note": "hi"}
        total_nodes = sum(entry["nodes"] for entry in manifest["shards"])
        assert total_nodes == dm.graph().num_nodes

    def test_provenance_survives(self, tmp_path):
        dm = seeded_manager()
        dm.add_node(Node("t0", type="topic", name="travel"), origin=DERIVED)
        dm.add_link(Link("s0", "d0", "t0", type="sim_topic"), origin=DERIVED)
        write_snapshot(dm, tmp_path)
        recovered, _ = DataManager.recover(tmp_path)
        assert recovered.provenance_summary() == dm.provenance_summary()

    def test_counters_never_move_backwards(self, tmp_path):
        dm = seeded_manager()
        before_version = dm.version
        manifest = write_snapshot(dm, tmp_path / "site")
        assert "mutation_epoch" not in manifest
        # the version moved with the dropped key: a build that reads only
        # version 1 refuses this snapshot with its typed version error
        assert manifest["version"] == 2
        recovered, _ = DataManager.recover(tmp_path / "site")
        assert recovered.version >= before_version

        # a version-1 manifest, from before served graphs were frozen,
        # also carries the graph's write counter: it restores, and the
        # key is ignored
        write_snapshot(dm, tmp_path / "older")
        path = tmp_path / "older" / MANIFEST_NAME
        older = json.loads(path.read_text())
        older.update(version=1, mutation_epoch=10 ** 6)
        path.write_text(json.dumps(older))
        recovered, _ = DataManager.recover(tmp_path / "older")
        assert recovered.version >= before_version
        assert same_graphs(recovered, dm)


# ---------------------------------------------------------------- refusal


class TestRefusal:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PersistenceError, match="no snapshot manifest"):
            DataManager.recover(tmp_path)

    def test_wrong_format(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"format": "something-else", "version": 1})
        )
        with pytest.raises(PersistenceError, match="not a"):
            read_manifest(tmp_path)

    def test_future_version(self, tmp_path):
        dm = seeded_manager()
        manifest = write_snapshot(dm, tmp_path)
        manifest["version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="unsupported snapshot"):
            DataManager.recover(tmp_path)

    def test_checksum_mismatch(self, tmp_path):
        dm = seeded_manager()
        write_snapshot(dm, tmp_path)
        shard = tmp_path / "shard-0000.jsonl"
        shard.write_text(shard.read_text().replace("user 3", "user X"))
        with pytest.raises(PersistenceError, match="checksum mismatch"):
            DataManager.recover(tmp_path)

    def test_missing_shard_file(self, tmp_path):
        dm = seeded_manager(shards=2)
        write_snapshot(dm, tmp_path)
        (tmp_path / "shard-0001.jsonl").unlink()
        with pytest.raises(PersistenceError, match="missing"):
            DataManager.recover(tmp_path)


# -------------------------------------------------- checkpoint + WAL tail


class TestCheckpointAndTail:
    def test_tail_replays_past_snapshot(self, tmp_path):
        dm = seeded_manager(shards=2)
        dm.enable_wal(tmp_path / "wal")
        dm.checkpoint(tmp_path)
        dm.add_node(Node("u99", type="user", name="late arrival"))
        dm.add_link(Link("f99", "u99", "u0", type="connect, friend"))
        dm.delete_link("f0")
        dm.delete_node("d9")
        dm.wal.sync()
        recovered, report = DataManager.recover(tmp_path)
        assert report.replayed == 4
        assert same_graphs(recovered, dm)
        assert recovered.applied_seq == dm.applied_seq

    def test_checkpoint_prunes_covered_segments(self, tmp_path):
        dm = seeded_manager()
        dm.enable_wal(tmp_path / "wal", segment_max_bytes=64)
        for i in range(10):
            dm.add_node(Node(f"x{i}", type="user", name=f"extra {i}"))
        dm.checkpoint(tmp_path)
        from repro.management.wal import read_wal

        records, tail = read_wal(tmp_path / "wal")
        assert tail is None
        # everything on disk is covered by the snapshot watermark
        assert all(r["seq"] <= dm.applied_seq for r in records)
        recovered, report = DataManager.recover(tmp_path)
        assert report.replayed == 0
        assert same_graphs(recovered, dm)

    def test_recovered_manager_keeps_journaling(self, tmp_path):
        dm = seeded_manager()
        dm.enable_wal(tmp_path / "wal")
        dm.checkpoint(tmp_path)
        recovered, _ = DataManager.recover(tmp_path)
        assert recovered.wal is not None
        recovered.add_node(Node("after", type="user", name="post restart"))
        recovered.wal.sync()
        second, report = DataManager.recover(tmp_path)
        assert report.replayed == 1
        assert second.graph().node("after").attrs["name"] == ("post restart",)

    def test_double_recovery_is_idempotent(self, tmp_path):
        dm = seeded_manager(shards=2)
        dm.enable_wal(tmp_path / "wal")
        dm.checkpoint(tmp_path)
        dm.add_node(Node("u99", type="user", name="late"))
        dm.wal.sync()
        first, _ = DataManager.recover(tmp_path, resume_wal=False)
        second, _ = DataManager.recover(tmp_path, resume_wal=False)
        assert same_graphs(first, second)

    def test_torn_tail_truncated_and_survivors_served(self, tmp_path):
        dm = seeded_manager()
        dm.enable_wal(tmp_path / "wal")
        dm.checkpoint(tmp_path)
        dm.add_node(Node("kept", type="user", name="made it"))
        dm.wal.sync()
        from repro.management.wal import list_segments

        with open(list_segments(tmp_path / "wal")[-1], "a") as handle:
            handle.write("deadbeef {\"seq\": 999, \"op\": \"node")
        recovered, report = DataManager.recover(tmp_path)
        assert report.tail_truncated
        assert report.replayed == 1
        assert recovered.graph().node("kept") is not None
        # the truncation is durable: a second recovery sees a clean log
        again, report2 = DataManager.recover(tmp_path, resume_wal=False)
        assert not report2.tail_truncated
        assert same_graphs(again, recovered)
