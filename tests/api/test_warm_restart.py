"""Warm restart of the session engine: save → recover → serve identically.

The restart-correctness bugs this PR fixes live here: epoch counters must
not restart at zero (pre-crash cursors would alias fresh rankings), a
snapshot written by an older build restores whatever extra session state
it carries, and a restored site must reach plan-cache hits on its *first*
request.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchRequest, Session
from repro.api.request import decode_cursor, encode_cursor
from repro.api.session import SessionConfig
from repro.core import Link, Node
from repro.errors import QueryError, RestartCursorError
from repro.management import DataManager
from repro.management.persist import MANIFEST_NAME, SNAPSHOT_VERSION

from tests.factories import social_site_graph

STRATEGIES = ("friends", "similar_users", "item_based")


def durable_session(tmp_path):
    dm = DataManager()
    dm.load_graph(social_site_graph(num_users=8, num_items=10))
    dm.enable_wal(tmp_path / "wal")
    return Session(dm)


def _request(**kw):
    defaults = dict(user_id="u0", text="topic1 thing", page_size=4)
    defaults.update(kw)
    return SearchRequest(**defaults)


# ---------------------------------------------------------------- cursors


class TestCursorBootToken:
    def test_boot_zero_token_format_unchanged(self):
        # never-restored sites mint byte-identical tokens to the
        # pre-durability format (no "b" key) — old clients keep working
        assert encode_cursor(40, 20, 3) == encode_cursor(40, 20, 3, boot=0)
        assert decode_cursor(encode_cursor(40, 20, 3)) == (40, 20, 3)

    def test_boot_round_trips(self):
        token = encode_cursor(8, 4, 2, boot=5)
        assert decode_cursor(token, expected_boot=5) == (8, 4, 2)

    def test_cross_incarnation_rejected_typed(self):
        token = encode_cursor(8, 4, 2, boot=1)
        with pytest.raises(RestartCursorError, match="incarnation"):
            decode_cursor(token, expected_boot=2)

    def test_restart_error_is_still_a_query_error(self):
        # callers that only catch QueryError keep degrading gracefully
        token = encode_cursor(0, 4, 0, boot=0)
        with pytest.raises(QueryError):
            decode_cursor(token, expected_boot=3)


class TestRestartCursors:
    def test_pre_crash_cursor_rejected_after_restore(self, tmp_path):
        session = durable_session(tmp_path)
        response = session.run(_request())
        cursor = response.page_info.next_cursor
        assert cursor is not None
        session.save(tmp_path)

        restored = Session.restore(tmp_path)
        with pytest.raises(RestartCursorError):
            restored.run(_request(cursor=cursor))

    def test_post_restore_cursors_page_cleanly(self, tmp_path):
        session = durable_session(tmp_path)
        session.save(tmp_path)
        restored = Session.restore(tmp_path)
        first = restored.run(_request())
        second = restored.run(_request(cursor=first.page_info.next_cursor))
        assert first.items and second.items
        assert not set(first.items) & set(second.items)  # no dup, no drop

    def test_mid_session_stale_cursor_stays_generic(self, tmp_path):
        # refresh staleness within one incarnation is NOT a restart error
        session = durable_session(tmp_path)
        cursor = session.run(_request()).page_info.next_cursor
        session.data_manager.add_node(
            Node("fresh", type="item", name="new item", keywords="thing")
        )
        with pytest.raises(QueryError, match="stale cursor") as excinfo:
            session.run(_request(cursor=cursor))
        assert not isinstance(excinfo.value, RestartCursorError)


# ------------------------------------------------------------- continuity


class TestWarmRestart:
    def test_rankings_identical_across_restart(self, tmp_path):
        session = durable_session(tmp_path)
        live = {
            s: session.run(_request(strategy=s, page_size=50)).items
            for s in STRATEGIES
        }
        session.save(tmp_path)
        restored = Session.restore(tmp_path)
        for s in STRATEGIES:
            assert restored.run(
                _request(strategy=s, page_size=50)
            ).items == live[s]

    def test_wal_tail_included_in_restore(self, tmp_path):
        session = durable_session(tmp_path)
        session.save(tmp_path)
        # post-checkpoint activity reaches only the WAL, never a snapshot
        session.data_manager.add_node(
            Node("i99", type="item", name="late item",
                 keywords="topic1 thing"))
        session.data_manager.add_link(
            Link("a99", "u0", "i99", type="act, visit"))
        session.data_manager.wal.sync()
        live = session.run(_request(page_size=50)).items
        assert "i99" in live

        restored = Session.restore(tmp_path)
        assert restored.run(_request(page_size=50)).items == live

    def test_epoch_and_boot_continuity(self, tmp_path):
        session = durable_session(tmp_path)
        for _ in range(3):  # force refreshes to advance the epoch
            session.data_manager.add_node(
                Node(f"pad{session.epoch}", type="item", name="pad"))
            session.run(_request())
        assert session.epoch >= 3
        session.save(tmp_path)

        restored = Session.restore(tmp_path)
        assert restored.epoch >= session.epoch  # never backwards
        assert restored.boot == session.boot + 1

        restored.save(tmp_path)
        third = Session.restore(tmp_path)
        assert third.boot == restored.boot + 1  # monotone per restore

    def test_feedback_corrections_survive(self, tmp_path):
        """An older build persisted a learned cardinality-correction table
        under the session's ``"feedback"`` key.  Such a snapshot still
        restores and serves the same pages; this build writes no such key,
        and the snapshot format version did not move for it."""
        session = durable_session(tmp_path)
        requests = [_request(), _request(page=2), _request(text="", k=5)]
        before = [session.run(r) for r in requests]
        session.save(tmp_path)

        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == SNAPSHOT_VERSION == 2
        assert "feedback" not in manifest["extra"]["session"]
        manifest["extra"]["session"]["feedback"] = {
            "max_correction": 8.0,
            "smoothing": 0.5,
            "observations": 12,
            "factors": [
                [["term", "topic1"], 0.25],
                [["type", "item", False], 4.0],
                [["social", "basis"], 8.0],
                [["social", "endorse"], 0.125],
            ],
        }
        manifest_path.write_text(json.dumps(manifest, indent=1))

        for warm in (False, True):
            restored = Session.restore(tmp_path, warm=warm)
            after = [restored.run(r) for r in requests]
            for old, new in zip(before, after):
                assert list(new.items) == list(old.items)
                assert new.page_info.total_items == \
                    old.page_info.total_items

        again = tmp_path / "again"
        restored.save(again)
        rewritten = json.loads((again / MANIFEST_NAME).read_text())
        assert rewritten["version"] == SNAPSHOT_VERSION
        assert "feedback" not in rewritten["extra"]["session"]

    def test_first_request_hits_plan_cache(self, tmp_path):
        session = durable_session(tmp_path)
        session.run(_request())
        session.save(tmp_path)

        restored = Session.restore(tmp_path)
        warmed = restored.planner.cache.stats
        assert warmed.size >= 1  # the replay compiled into *this* cache
        response = restored.run(_request())
        assert response.ok
        assert restored.stats.plan_cache_hits >= 1
        assert restored.stats.plan_compiles == 0
        assert restored.planner.cache.stats.misses == warmed.misses

    def test_cold_restore_compiles(self, tmp_path):
        # warm=False is the control: same data, no recipes replayed
        session = durable_session(tmp_path)
        session.run(_request())
        session.save(tmp_path)

        cold = Session.restore(tmp_path, warm=False)
        cold.run(_request())
        assert cold.stats.plan_compiles >= 1

    def test_analyses_rederived_on_restore(self, tmp_path):
        session = durable_session(tmp_path)
        session.analyze("item_similarity")
        derived_live = sum(
            1 for l in session.graph.links() if l.has_type("sim_item")
        )
        session.save(tmp_path)

        restored = Session.restore(tmp_path)
        derived_restored = sum(
            1 for l in restored.graph.links() if l.has_type("sim_item")
        )
        assert derived_restored == derived_live

    def test_restore_respects_config(self, tmp_path):
        session = durable_session(tmp_path)
        session.save(tmp_path)
        restored = Session.restore(
            tmp_path, config=SessionConfig(auto_analyses=("item_similarity",))
        )
        assert restored.config.auto_analyses == ("item_similarity",)
        assert [e.name for e in restored.analyzer.run_log] == [
            "item_similarity"
        ]
        assert restored.run(_request()).ok
