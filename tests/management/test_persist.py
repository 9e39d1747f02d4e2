"""Site snapshots: atomic write, CRC verification, recovery continuity.

A checkpoint writes one records file.  A site saved when the store could
be hash-sharded lists one file per shard, and still restores into the
one store: :func:`factories.split_snapshot` lays fresh snapshots out that
way, and ``fixtures/two_shard_site`` is such a site written by hand.
"""

import json
import shutil
from pathlib import Path

import pytest

from factories import split_snapshot
from repro.core import Link, Node, SocialContentGraph
from repro.errors import PersistenceError
from repro.management import DataManager, read_manifest, write_snapshot
from repro.management.persist import MANIFEST_NAME
from repro.management.storage import DERIVED

#: a two-shard version-2 site: cross-shard links, derived records
TWO_SHARD_SITE = Path(__file__).parent / "fixtures" / "two_shard_site"


def seeded_manager(users=10):
    dm = DataManager()
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
    @pytest.mark.parametrize("files", [1, 2, 7])
    def test_graph_survives_identically(self, tmp_path, files):
        # the snapshot as this build writes it, and laid out as a
        # 2- or 7-shard store wrote it: the same site comes back
        dm = seeded_manager()
        write_snapshot(dm, tmp_path)
        if files > 1:
            split_snapshot(tmp_path, files)
        recovered, report = DataManager.recover(tmp_path)
        assert same_graphs(recovered, dm)
        assert recovered.provenance_summary() == dm.provenance_summary()
        assert report.replayed == 0 and not report.tail_truncated
        # and its next checkpoint is one file again
        assert recovered.checkpoint(tmp_path / "again")["num_shards"] == 1

    def test_manifest_shape(self, tmp_path):
        dm = seeded_manager()
        manifest = write_snapshot(dm, tmp_path, extra={"note": "hi"})
        assert manifest == read_manifest(tmp_path)
        assert manifest["num_shards"] == 1
        (entry,) = manifest["shards"]
        assert entry["file"] == "shard-0000.jsonl"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_NAME, "shard-0000.jsonl"
        ]
        assert manifest["extra"] == {"note": "hi"}
        assert entry["nodes"] == dm.graph().num_nodes
        assert entry["links"] == dm.graph().num_links

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
        # every file a multi-file manifest lists must be there
        site = tmp_path / "site"
        shutil.copytree(TWO_SHARD_SITE, site)
        (site / "shard-0001.jsonl").unlink()
        with pytest.raises(PersistenceError, match="missing"):
            DataManager.recover(site, resume_wal=False)


# -------------------------------------------------- checkpoint + WAL tail


class TestCheckpointAndTail:
    def test_tail_replays_past_snapshot(self, tmp_path):
        dm = seeded_manager()
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
        dm = seeded_manager()
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


# ------------------------------------------------ a site saved sharded


def two_shard_records() -> SocialContentGraph:
    """The fixture's records, read straight from its files."""
    graph = SocialContentGraph()
    records = [
        json.loads(line)
        for name in ("shard-0000.jsonl", "shard-0001.jsonl")
        for line in (TWO_SHARD_SITE / name).read_text().splitlines()
    ]
    for record in records:
        if record["kind"] == "node":
            graph.add_node(Node(record["id"], record["attrs"]))
    for record in records:
        if record["kind"] == "link":
            graph.add_link(Link(record["id"], record["src"], record["tgt"],
                                record["attrs"]))
    return graph


class TestTwoShardSite:
    def test_restores_into_one_store(self, tmp_path):
        site = tmp_path / "site"
        shutil.copytree(TWO_SHARD_SITE, site)
        assert read_manifest(site)["num_shards"] == 2
        recovered, report = DataManager.recover(site)
        direct = DataManager()
        direct.load_graph(two_shard_records())
        assert recovered.graph().same_as(direct.graph())
        assert recovered.graph().num_links == 5  # three cross the shards
        assert recovered.provenance_summary() == {
            "derived": (1, 1), "local": (5, 4),
        }
        assert recovered.site_name == "two-shard-site"
        assert recovered.version >= 11 and recovered.applied_seq == 11
        assert report.replayed == 0

    def test_wal_tail_replays_on_top(self, tmp_path):
        site = tmp_path / "site"
        shutil.copytree(TWO_SHARD_SITE, site)
        dm, _ = DataManager.recover(site)
        dm.add_link(Link("v3", "u2", "d1", type="act, visit"))
        dm.delete_link("f0")
        dm.add_node(Node("u3", type="user", name="dev"))
        dm.wal.sync()
        dm.wal.close()
        recovered, report = DataManager.recover(site, resume_wal=False)
        assert report.replayed == 3
        assert recovered.applied_seq == 14
        expected = two_shard_records()
        expected.add_link(Link("v3", "u2", "d1", type="act, visit"))
        expected.remove_link("f0")
        expected.add_node(Node("u3", type="user", name="dev"))
        assert recovered.graph().same_as(expected)
        # a checkpoint of the restored site is one file
        manifest = recovered.checkpoint(tmp_path / "saved")
        assert manifest["num_shards"] == 1
        again, _ = DataManager.recover(tmp_path / "saved", resume_wal=False)
        assert again.graph().same_as(expected)
