"""Reading a social-stage result graph back into plain values.

``Expr.evaluate`` of ``SocialScoreE`` / ``CombineScoresE`` — and the
standalone social-stage operators — answer with graphs that encode scores
and provenance as records (``social_raw`` / ``semantic_norm`` /
``social_norm`` / ``combined`` attributes, ``endorse`` / ``support``
links, a ``social_meta`` marker node).  The serving root hands the same
values over without building that graph; this decoder is the reference
side of the parity suites that hold the two equal.
"""

from __future__ import annotations

from repro.core.attrs import TYPE_ATTR
from repro.core.social import (
    ENDORSE_TYPE,
    META_TYPE,
    SUPPORT_TYPE,
    DecodedSocialResult,
)


def _ranked(items: list, limit: int | None) -> list:
    items.sort(key=lambda t: (-t[3], repr(t[0])))
    return items if limit is None else items[:max(limit, 0)]


def decode_social_result(result, limit: int | None = None) -> DecodedSocialResult:
    """A social-stage result graph as a :class:`DecodedSocialResult`.

    Items are every node carrying a ``combined`` score, fully sorted and
    then cut to *limit*; ``matched`` counts them before the cut and
    ``encoded_size`` is the graph's own (nodes, links).
    """
    decoded = DecodedSocialResult(
        encoded_size=(result.num_nodes, result.num_links)
    )
    for node in result.nodes():
        attrs = node.attrs
        if META_TYPE in attrs[TYPE_ATTR]:
            decoded.strategy = str(node.value("strategy", decoded.strategy))
            decoded.used_expert_fallback = bool(
                node.value("expert_fallback", 0)
            )
            continue
        raw = attrs.get("social_raw")
        if raw:
            decoded.scores[node.id] = float(raw[0])
        combined = attrs.get("combined")
        if not combined:
            continue  # social-stage-only node, endorser, or supporter
        semantic = attrs.get("semantic_norm")
        social = attrs.get("social_norm")
        decoded.items.append((
            node.id,
            float(semantic[0]) if semantic else 0.0,
            float(social[0]) if social else 0.0,
            float(combined[0]),
        ))
    for link in result.links():
        attrs = link.attrs
        types = attrs[TYPE_ATTR]
        weight = attrs.get("weight")
        value = float(weight[0]) if weight else 0.0
        if ENDORSE_TYPE in types:
            decoded.endorsers.setdefault(link.tgt, {})[link.src] = value
        elif SUPPORT_TYPE in types:
            decoded.supporting_items.setdefault(link.tgt, {})[link.src] = value
    decoded.matched = len(decoded.items)
    decoded.items = _ranked(decoded.items, limit)
    return decoded
