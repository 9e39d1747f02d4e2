"""SearchRequest/SearchResponse value semantics, validation, cursors."""

from __future__ import annotations

import pytest

from repro.api import SearchRequest, decode_cursor, encode_cursor
from repro.core import Condition
from repro.errors import QueryError


class TestSearchRequestValues:
    def test_requests_are_frozen(self):
        request = SearchRequest(user_id=1, text="denver")
        with pytest.raises(AttributeError):
            request.text = "boston"

    def test_requests_hash_and_compare(self):
        a = SearchRequest(user_id=1, text="denver", k=5)
        b = SearchRequest(user_id=1, text="denver", k=5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.replace(k=6)

    def test_structural_mapping_coerced_to_condition(self):
        request = SearchRequest(user_id=1, structural={"type": "city"})
        assert isinstance(request.structural, Condition)

    def test_replace_revalidates(self):
        request = SearchRequest(user_id=1, text="denver")
        with pytest.raises(QueryError):
            request.replace(alpha=1.5)

    def test_next_page_clears_cursor(self):
        request = SearchRequest(user_id=1, page=2, cursor="abc")
        nxt = request.next_page()
        assert nxt.page == 3
        assert nxt.cursor is None

    def test_recommendation_detection(self):
        assert SearchRequest(user_id=1).is_recommendation
        assert not SearchRequest(user_id=1, text="x").is_recommendation
        assert not SearchRequest(
            user_id=1, structural={"type": "item"}
        ).is_recommendation


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(user_id=None),
        dict(user_id=1, alpha=-0.1),
        dict(user_id=1, alpha=1.1),
        dict(user_id=1, k=0),
        dict(user_id=1, k=-3),
        dict(user_id=1, page=0),
        dict(user_id=1, page_size=0),
        dict(user_id=1, k=2.5),
        dict(user_id=1, k=True),
        dict(user_id=1, page=1.5),
        dict(user_id=1, page=None),
        dict(user_id=1, page_size=2.0),
        dict(user_id=1, page_size=True),
        # mistyped fields: each leaked an untyped error, or was silently
        # accepted (use_index="no" forced the index), before validation
        dict(user_id=1, alpha="0.5"),
        dict(user_id=1, alpha=True),
        dict(user_id=1, text=None),
        dict(user_id=1, text=5),
        dict(user_id=1, use_index="no"),
        dict(user_id=1, use_index=0),
        dict(user_id=1, explain="yes"),
        dict(user_id=1, strategy=7),
        dict(user_id=1, grouping=("social",)),
        dict(user_id=1, cursor=12),
        dict(user_id=["u", 1]),
    ])
    def test_bad_requests_rejected(self, bad):
        with pytest.raises(QueryError):
            SearchRequest(**bad)

    def test_boundary_alphas_accepted(self):
        assert SearchRequest(user_id=1, alpha=0.0).alpha == 0.0
        assert SearchRequest(user_id=1, alpha=1.0).alpha == 1.0


class TestCursors:
    def test_roundtrip(self):
        token = encode_cursor(40, 20, 3)
        assert decode_cursor(token) == (40, 20, 3)

    def test_opaque_urlsafe(self):
        token = encode_cursor(0, 10, 0)
        assert token.isprintable()
        assert "=" not in token and "+" not in token and "/" not in token

    @pytest.mark.parametrize("junk", ["", "not-a-cursor", "AAAA", "!!!"])
    def test_malformed_cursors_rejected(self, junk):
        with pytest.raises(QueryError):
            decode_cursor(junk)

    def test_bad_payload_values_rejected(self):
        import base64
        import json

        for payload in ({"o": -1, "s": 10, "e": 0}, {"o": 0, "s": 0, "e": 0},
                        {"o": "x", "s": 10, "e": 0},
                        # JSON booleans are ints to isinstance
                        {"o": True, "s": 10, "e": 0},
                        {"o": 0, "s": True, "e": 0},
                        {"o": 0, "s": 10, "e": False},
                        {"o": 0, "s": 10, "e": 0, "b": True}):
            token = base64.urlsafe_b64encode(
                json.dumps(payload).encode()
            ).decode().rstrip("=")
            with pytest.raises(QueryError):
                decode_cursor(token)
