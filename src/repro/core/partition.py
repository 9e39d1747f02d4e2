"""Stable hash partitioning of record ids.

The one routing function both the physical store
(:class:`repro.management.storage.PartitionedGraphStore`) and the plan
layer's columnar scatter views (:func:`repro.plan.columnar.cut_columnar_views`)
agree on.  It lives in ``repro.core`` because both sides need it and the
layering DAG (see ``docs/ARCHITECTURE.md``) lets neither the plan layer
nor the management layer import the other.
"""

from __future__ import annotations

import zlib

from repro.core.graph import Id


def shard_of(record_id: Id, num_shards: int) -> int:
    """Stable hash partition of a record id.

    Process-independent (unlike ``hash(str)``) so shard assignment — and
    therefore per-shard scan order — is reproducible across runs.
    """
    return zlib.crc32(repr(record_id).encode("utf-8")) % num_shards
