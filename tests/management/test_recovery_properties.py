"""Crash-recovery properties: recover(snapshot + WAL tail) ≡ the live site.

Hypothesis drives random activity histories — interleaved upserts and
deletes, a checkpoint somewhere in the middle, more activity, then a
simulated crash (optionally tearing the final WAL record) — and asserts
the recovered store is indistinguishable from the live one: same graph,
same provenance, and *bit-identical rankings* (1e-9) through every social
strategy.  Replay idempotency rides along: recovering the same directory
twice, or re-replaying an already-applied tail, changes nothing.  The
checkpoint is recovered as written and laid out as the multi-file
snapshot a hash-sharded store used to write.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from factories import split_snapshot
from repro.api import SearchRequest, Session
from repro.core import Link, Node
from repro.management import DataManager
from repro.management.wal import list_segments, segment_name

STRATEGIES = ("friends", "similar_users", "item_based")

#: one random activity op: (kind, index)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["user", "item", "visit", "friend", "del_visit"]),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=0,
    max_size=12,
)


def _base_site(dm: DataManager) -> None:
    """A small always-present social core every random history extends."""
    for u in range(4):
        dm.add_node(Node(f"u{u}", type="user", name=f"user {u}"))
    for i in range(5):
        dm.add_node(Node(f"i{i}", type="item", name=f"item {i}",
                         keywords=f"travel topic{i % 2}"))
    for u in range(4):
        dm.add_link(Link(f"f{u}", f"u{u}", f"u{(u + 1) % 4}",
                         type="connect, friend"))
        dm.add_link(Link(f"a{u}", f"u{u}", f"i{u % 5}", type="act, visit"))


def _apply(dm: DataManager, ops) -> None:
    """Replay one random history (idempotent upserts, tolerant deletes)."""
    for kind, index in ops:
        if kind == "user":
            dm.add_node(Node(f"xu{index}", type="user",
                             name=f"extra user {index}"))
        elif kind == "item":
            dm.add_node(Node(f"xi{index}", type="item",
                             name=f"extra item {index}",
                             keywords=f"travel extra{index % 3}"))
        elif kind == "visit":
            src, tgt = f"u{index % 4}", f"i{index % 5}"
            dm.add_link(Link(f"xv{index}", src, tgt, type="act, visit"))
        elif kind == "friend":
            src, tgt = f"u{index % 4}", f"u{(index + 1) % 4}"
            if src != tgt:
                dm.add_link(Link(f"xf{index}", src, tgt,
                                 type="connect, friend"))
        elif kind == "del_visit":
            try:
                dm.delete_link(f"xv{index}")
            except Exception:
                pass  # never added (or already deleted) in this history


def _rankings(dm: DataManager):
    """Full per-strategy score decompositions through a fresh session."""
    session = Session(dm)
    out = {}
    for strategy in STRATEGIES:
        response = session.run(SearchRequest(
            user_id="u0", text="travel", strategy=strategy, page_size=50,
        ))
        msg = session.discover(SearchRequest(
            user_id="u0", text="travel", strategy=strategy, page_size=50,
        ))
        out[strategy] = (
            response.items,
            [(s.item_id, s.semantic, s.social, s.combined)
             for s in msg.items],
        )
    return out


def _assert_parity(live, recovered, tol=1e-9):
    for strategy in STRATEGIES:
        live_items, live_scores = live[strategy]
        rec_items, rec_scores = recovered[strategy]
        assert rec_items == live_items, strategy
        assert len(rec_scores) == len(live_scores), strategy
        for (lid, *lvals), (rid, *rvals) in zip(live_scores, rec_scores):
            assert lid == rid, strategy
            for lv, rv in zip(lvals, rvals):
                assert abs(lv - rv) <= tol, (strategy, lid, lv, rv)


@pytest.mark.parametrize("files", [1, 2, 7])
@given(before=_ops, after=_ops, tear=st.booleans())
@settings(max_examples=12, deadline=None)
def test_recovery_matches_live_site(tmp_path_factory, files, before,
                                    after, tear):
    site = tmp_path_factory.mktemp("site")
    dm = DataManager()
    _base_site(dm)
    _apply(dm, before)
    dm.enable_wal(site / "wal")
    dm.checkpoint(site)
    if files > 1:
        split_snapshot(site, files)
    _apply(dm, after)
    dm.wal.sync()
    if tear:
        # crash mid-append: a partial frame lands after the real tail
        # (or, with no post-checkpoint activity, as a fresh segment the
        # crashed process had just opened)
        segments = list_segments(site / "wal")
        target = (segments[-1] if segments
                  else site / "wal" / segment_name(dm.applied_seq + 1))
        with open(target, "a") as handle:
            handle.write('f00dface {"seq": 100000, "op": "nod')

    recovered, report = DataManager.recover(site)
    assert report.tail_truncated == tear
    assert recovered.graph().same_as(dm.graph())
    assert recovered.provenance_summary() == dm.provenance_summary()
    _assert_parity(_rankings(dm), _rankings(recovered))

    # idempotency: recovering the same directory again changes nothing
    # (the truncated tail stays truncated, the watermark skips replay
    # of everything the first recovery already applied)
    again, report2 = DataManager.recover(site, resume_wal=False)
    assert not report2.tail_truncated
    assert report2.replayed == report.replayed
    assert again.graph().same_as(recovered.graph())


@given(ops=_ops)
@settings(max_examples=10, deadline=None)
def test_checkpoint_of_recovered_site_round_trips(tmp_path_factory, ops):
    """recover → checkpoint → recover is a fixed point."""
    site = tmp_path_factory.mktemp("site")
    dm = DataManager()
    _base_site(dm)
    dm.enable_wal(site / "wal")
    dm.checkpoint(site)
    split_snapshot(site, 2)
    _apply(dm, ops)
    dm.wal.sync()

    first, _ = DataManager.recover(site)
    first.checkpoint(site)
    second, report = DataManager.recover(site)
    assert report.replayed == 0
    assert second.graph().same_as(first.graph())
    assert second.graph().same_as(dm.graph())
