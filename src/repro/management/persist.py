"""Durable sites: a site snapshot + WAL recovery (the paper's §5 tier).

The content-management tier assumes the site's graph and indexes outlive
any single process; this module is where that promise
is kept.  A **site snapshot** is a directory::

    <site>/
      MANIFEST.json          -- committed last; its presence = a snapshot
      shard-0000.jsonl       -- the v2 JSON-lines records file
                                (records carry provenance ``origin``)
      wal/
        wal-000000000042.log -- CRC-framed activity tail (see wal.py)

A checkpoint writes one records file and a manifest saying
``"num_shards": 1``.  Sites saved when the store could be hash-sharded
list one ``shard-NNNN.jsonl`` per shard; recovery reads every file the
manifest lists into the one store, nodes first, so such a site restores
unchanged.

Records files are the :mod:`repro.core.serialize` JSON-lines codec with
the v2 extras: the header carries the file's counts, every record carries its
``origin`` so provenance survives the round trip, and each file's CRC32
is recorded in the manifest — a snapshot that does not verify refuses to
recover rather than serving silently wrong rankings.

**Recovery = load snapshot + replay the WAL tail**: records with ``seq``
at or below the manifest's ``applied_seq`` watermark are skipped (replay
idempotency), a torn final record truncates cleanly
(:func:`repro.management.wal.read_wal`), and the recovered
:class:`~repro.management.DataManager` continues the persisted version
counter so nothing stamped by the pre-crash process can alias fresh
state.  (Version-1 manifests also carry the served graph's write
counter: recovery ignores it, and a build that reads only version 1
refuses a version-2 snapshot with the typed version error.)

Upper layers ride along in the manifest's ``extra`` mapping: the session
engine persists its refresh epoch, boot token, analysis log and
plan-cache warming recipes.  This module treats all of it as opaque —
management does not import the api layer.

Write protocol: every file lands under a temporary name, is fsynced,
then atomically renamed; the manifest is written last and the directory
entry fsynced, so a crash mid-snapshot leaves either the previous
complete snapshot or none — never a half one.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core import SocialContentGraph
from repro.core.faults import fault_point
from repro.core.serialize import (
    dumps_strict,
    jsonl_header,
    link_from_dict,
    link_to_dict,
    loads_strict,
    node_from_dict,
    node_to_dict,
)
from repro.errors import PersistenceError
from repro.management import wal as walmod
from repro.management.storage import GraphStore, LOCAL

SNAPSHOT_FORMAT = "socialscope-site"
SNAPSHOT_VERSION = 2  # 1 also carried a graph write counter: still read
MANIFEST_NAME = "MANIFEST.json"
WAL_DIRNAME = "wal"


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(path: Path, text: str) -> int:
    """Write-then-rename with fsync; returns the content's CRC32."""
    data = text.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    # chaos hook: a handler may corrupt the durable bytes *after* the
    # CRC was taken, so the read-side verify must catch it honestly
    fault_point("persist.snapshot", path=path)
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass
class RecoveredSite:
    """What :func:`recover_data_manager` hands back."""

    manifest: dict[str, Any]
    #: WAL records replayed on top of the snapshot (after the watermark)
    replayed: int = 0
    #: a torn WAL tail was found and truncated away
    tail_truncated: bool = False
    #: the data manager, set by the caller-facing wrapper
    extra: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Snapshot writing
# ---------------------------------------------------------------------------


def _records_lines(store: GraphStore) -> str:
    """The store's v2 JSON-lines document (deterministic record order)."""
    lines = [
        dumps_strict(
            jsonl_header(
                meta={
                    "shard": 0,
                    "nodes": store.num_nodes,
                    "links": store.num_links,
                }
            )
        )
    ]
    for node in sorted(store._nodes.values(), key=lambda n: repr(n.id)):
        record = {"kind": "node", **node_to_dict(node)}
        origin = store.origin_of("node", node.id)
        if origin is not None:
            record["origin"] = origin
        lines.append(dumps_strict(record))
    for link in sorted(store._links.values(), key=lambda l: repr(l.id)):
        record = {"kind": "link", **link_to_dict(link)}
        origin = store.origin_of("link", link.id)
        if origin is not None:
            record["origin"] = origin
        lines.append(dumps_strict(record))
    return "\n".join(lines) + "\n"


def write_snapshot(
    data_manager: Any,
    directory: str | Path,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Snapshot *data_manager*'s store into *directory*; returns the manifest.

    ``extra`` is persisted verbatim under the manifest's ``"extra"`` key —
    the upper layers' state (session epochs, analysis logs, warming
    recipes) rides along without management knowing its shape.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    store = data_manager.store
    file_name = "shard-0000.jsonl"
    crc = _write_atomic(directory / file_name, _records_lines(store))
    manifest: dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "site_name": data_manager.site_name,
        "num_shards": 1,
        "indexed_attributes": list(data_manager.indexed_attributes),
        "dm_version": data_manager.version,
        "applied_seq": data_manager.applied_seq,
        "shards": [{
            "file": file_name,
            "nodes": store.num_nodes,
            "links": store.num_links,
            "crc32": crc,
        }],
        "extra": dict(extra or {}),
    }
    _write_atomic(directory / MANIFEST_NAME, dumps_strict(manifest, indent=1))
    _fsync_path(directory)
    return manifest


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def read_manifest(directory: str | Path) -> dict[str, Any]:
    """Load and validate a snapshot manifest."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise PersistenceError(f"no snapshot manifest at {path}")
    try:
        manifest = loads_strict(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise PersistenceError(f"unreadable manifest {path}: {exc}") from exc
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise PersistenceError(
            f"{path}: not a {SNAPSHOT_FORMAT} manifest "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") not in (1, SNAPSHOT_VERSION):
        raise PersistenceError(
            f"{path}: unsupported snapshot version "
            f"{manifest.get('version')!r} (this build reads 1 to "
            f"{SNAPSHOT_VERSION})"
        )
    return manifest


def _load_shard_records(
    directory: Path, entry: dict[str, Any]
) -> list[dict[str, Any]]:
    path = directory / entry["file"]
    if not path.exists():
        raise PersistenceError(f"snapshot records file missing: {path}")
    data = path.read_bytes()
    crc = zlib.crc32(data) & 0xFFFFFFFF
    if crc != entry["crc32"]:
        raise PersistenceError(
            f"{path}: checksum mismatch (manifest {entry['crc32']:08x}, "
            f"file {crc:08x}) — snapshot is corrupt, refusing to recover"
        )
    records = []
    for line in data.decode("utf-8").splitlines():
        if line.strip():
            records.append(loads_strict(line))
    return records


def _apply_wal_record(store: Any, record: dict[str, Any]) -> None:
    op = record["op"]
    if op == walmod.OP_NODE:
        store.upsert_node(
            node_from_dict(record), origin=record.get("origin", LOCAL)
        )
    elif op == walmod.OP_LINK:
        store.upsert_link(
            link_from_dict(record), origin=record.get("origin", LOCAL)
        )
    elif op == walmod.OP_DEL_NODE:
        store.delete_node(record["id"])
    elif op == walmod.OP_DEL_LINK:
        store.delete_link(record["id"])
    else:
        raise PersistenceError(f"unknown WAL op {op!r} in record {record!r}")


def recover_data_manager(
    directory: str | Path,
    *,
    resume_wal: bool = True,
    repair_tail: bool = True,
) -> tuple[Any, RecoveredSite]:
    """Rebuild a :class:`DataManager` from a site snapshot + WAL tail.

    The recovered manager continues the persisted ``version`` (it moves
    monotonically across the restart) and — under ``resume_wal`` — carries
    a fresh WAL writer positioned after the last replayed record, so the
    site keeps journaling from the moment it is back.
    """
    from repro.management.datamanager import DataManager

    directory = Path(directory)
    manifest = read_manifest(directory)
    report = RecoveredSite(manifest=manifest)

    dm = DataManager(
        site_name=manifest["site_name"],
        indexed_attributes=tuple(manifest["indexed_attributes"]),
    )
    # Phase 1: all nodes from every listed file, then all links (a site
    # saved sharded stored a link apart from its target node).
    shard_records = [
        _load_shard_records(directory, entry) for entry in manifest["shards"]
    ]
    for records in shard_records:
        for record in records:
            if record.get("kind") == "node":
                dm.store.upsert_node(
                    node_from_dict(record),
                    origin=record.get("origin", LOCAL),
                )
    for records in shard_records:
        for record in records:
            if record.get("kind") == "link":
                dm.store.upsert_link(
                    link_from_dict(record),
                    origin=record.get("origin", LOCAL),
                )

    # Phase 2: replay the activity tail past the snapshot watermark.
    applied = int(manifest["applied_seq"])
    wal_dir = directory / WAL_DIRNAME
    records, tail = walmod.read_wal(wal_dir)
    if tail is not None and repair_tail:
        walmod.truncate_torn_tail(tail)
        report.tail_truncated = True
    for record in walmod.iter_tail(records, applied):
        try:
            _apply_wal_record(dm.store, record)
        except PersistenceError:
            raise
        except Exception as exc:
            raise PersistenceError(
                f"WAL replay failed at seq {record.get('seq')!r} "
                f"({record.get('op')!r}): {exc}"
            ) from exc
        applied = record["seq"]
        report.replayed += 1

    # Phase 3: continuity — counters never move backwards across a crash.
    dm._continue_from(
        version=int(manifest["dm_version"]) + report.replayed,
        applied_seq=applied,
    )
    if resume_wal:
        dm.attach_wal(
            walmod.WalWriter(wal_dir, next_seq=applied + 1)
        )
    report.extra = dict(manifest.get("extra", {}))
    return dm, report


def snapshot_graph(directory: str | Path) -> SocialContentGraph:
    """The recovered site's logical graph alone (no manager machinery)."""
    dm, _ = recover_data_manager(directory, resume_wal=False)
    return dm.graph()
