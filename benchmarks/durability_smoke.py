#!/usr/bin/env python
"""Durability smoke: snapshot, kill -9, recover in a fresh interpreter.

The one end-to-end durability claim no in-process test can make: a site
checkpointed by one OS process — then killed without any clean shutdown,
mid-append, with a torn frame on the end of its WAL — is recovered by a
*different* interpreter and immediately serves through the asyncio
gateway at learned cost.

Three phases, two processes:

1. ``--phase seed <dir>`` (subprocess #1): builds a durable site, serves
   representative traffic, checkpoints through the gateway's drain path
   (``Session.save``), writes post-checkpoint activity that reaches only
   the WAL, appends a deliberately torn frame, and dies via
   ``os._exit`` — no atexit hooks, no flush, no goodbye.
2. ``--phase recover <dir>`` (subprocess #2, fresh interpreter): restores
   the site and serves the same traffic through ``ServeGateway``,
   asserting the WAL-tail write is visible, the torn tail was truncated,
   the epoch/boot counters moved forward, and the first request hit the
   warmed plan cache with zero compiles.
3. no flag (orchestrator): runs both in order and reports.

Exit status 0 only when every phase-2 assertion holds.  CI runs this as
the ``durability-smoke`` job; locally: ``python benchmarks/durability_smoke.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE_TEXT = "music"
LATE_ITEM = "item-post-checkpoint"


def _session_bits():
    from repro.api import SearchRequest, Session
    from repro.management import DataManager
    from repro.workloads import WorkloadConfig, build_site

    return SearchRequest, Session, DataManager, WorkloadConfig, build_site


def _probe_requests(SearchRequest):
    return [
        SearchRequest(user_id=uid, text=PROBE_TEXT, strategy=strategy,
                      page_size=10)
        for uid in (1, 2, 3)
        for strategy in ("friends", "similar_users", "item_based")
    ]


def _open_gateway(session):
    from repro.serve import (
        AdmissionPolicy,
        GatewayConfig,
        ServeGateway,
        TenantPolicy,
    )

    policy = AdmissionPolicy(
        default=TenantPolicy(capacity=1e9, refill_per_s=1e9)
    )
    return ServeGateway(session, GatewayConfig(admission=policy))


def phase_seed(site: Path) -> None:
    SearchRequest, Session, DataManager, WorkloadConfig, build_site = (
        _session_bits()
    )
    from repro.core import Link, Node
    from repro.management.wal import list_segments

    dm = DataManager()
    dm.load_graph(
        build_site(WorkloadConfig(num_users=30, num_items=60, seed=7)).graph
    )
    dm.enable_wal(site / "wal")
    session = Session(dm)
    requests = _probe_requests(SearchRequest)

    async def serve_and_checkpoint():
        async with _open_gateway(session) as gateway:
            served = await asyncio.gather(*[
                gateway.submit("smoke", r) for r in requests
            ])
            manifest = await gateway.checkpoint(site)
            return served, manifest

    served, manifest = asyncio.run(serve_and_checkpoint())
    assert all(r.ok for r in served), "seed phase failed to serve"
    assert manifest["extra"]["session"]["warm_recipes"], "no warm recipes"

    # expected rankings for phase 2, written *before* the WAL-only tail
    expectations = {
        "pre_tail_items": [list(session.run(r).items) for r in requests],
        "epoch": session.epoch,
        "boot": session.boot,
    }

    # post-checkpoint activity: reaches the WAL, never any snapshot
    dm.add_node(Node(LATE_ITEM, type="item", name="late arrival",
                     keywords=f"{PROBE_TEXT} late"))
    dm.add_link(Link("act-late", 1, LATE_ITEM, type="act, visit"))
    dm.wal.sync()
    expectations["post_tail_items"] = [
        list(session.run(r).items) for r in requests
    ]
    (site / "expected.json").write_text(json.dumps(expectations))

    # the crash: a torn half-frame on the live segment, then SIGKILL
    # semantics — straight to the OS, no interpreter cleanup of any kind
    with open(list_segments(site / "wal")[-1], "a") as handle:
        handle.write('deadbeef {"seq": 424242, "op": "nod')
    sys.stdout.write("seed: checkpoint + torn tail written, dying\n")
    sys.stdout.flush()
    os._exit(0)


def phase_recover(site: Path) -> None:
    SearchRequest, Session, *_ = _session_bits()

    expected = json.loads((site / "expected.json").read_text())
    session = Session.restore(site)
    requests = _probe_requests(SearchRequest)

    # restart-correctness: counters moved forward, never back
    assert session.epoch >= expected["epoch"], "epoch went backwards"
    assert session.boot == expected["boot"] + 1, "boot did not advance"

    # warm restart: the very first request is served at learned cost
    first = session.run(requests[0])
    assert first.ok
    assert session.stats.plan_cache_hits >= 1, "cold plan cache after warm restore"
    assert session.stats.plan_compiles == 0, "first request compiled"
    assert list(first.items) == expected["post_tail_items"][0], (
        "WAL tail lost: first ranking diverged"
    )

    async def serve():
        async with _open_gateway(session) as gateway:
            return await asyncio.gather(*[
                gateway.submit("smoke", r) for r in requests
            ])

    served = asyncio.run(serve())
    for response, items in zip(served, expected["post_tail_items"]):
        assert response.ok
        assert list(response.items) == items, "recovered ranking diverged"
    visible = session.run(
        SearchRequest(user_id=1, text=PROBE_TEXT, page_size=50)
    ).items
    assert LATE_ITEM in visible, "post-checkpoint WAL write not recovered"
    print(f"recover: {len(served)} requests served identically, "
          f"WAL tail visible, boot {expected['boot']} -> {session.boot}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("seed", "recover"))
    parser.add_argument("site", nargs="?", type=Path)
    args = parser.parse_args(argv)

    if args.phase:
        if args.site is None:
            parser.error("--phase requires a site directory")
        {"seed": phase_seed, "recover": phase_recover}[args.phase](args.site)
        return 0

    with tempfile.TemporaryDirectory(prefix="durability-smoke-") as tmp:
        for phase in ("seed", "recover"):
            proc = subprocess.run(
                [sys.executable, __file__, "--phase", phase, tmp],
                env=os.environ.copy(),
            )
            if proc.returncode != 0:
                print(f"durability smoke: {phase} phase FAILED "
                      f"(exit {proc.returncode})")
                return 1
    print("durability smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
