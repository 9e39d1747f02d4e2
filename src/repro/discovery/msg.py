"""The Meaningful Social Graph (MSG) — the discovery layer's output (§3).

    "The result is a social content sub-graph, called Meaningful Social
    Graph (MSG), that is semantically and socially relevant to a given
    user and query."

An MSG is a *view* of the frozen graph its request was served from
(``base``): the querying user, the scored items and the endorsers the
social strategy found (the provenance §7 groups and explains with).  A
page reads ``base`` and its activity relation through it and copies no
graph; the subgraph itself is cut on the first read of ``graph``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import Id, SocialContentGraph
from repro.discovery.query import Query
from repro.discovery.strategies import SocialScores


@dataclass
class ScoredItem:
    """One result item with its score decomposition."""

    item_id: Id
    semantic: float
    social: float
    combined: float


class MeaningfulSocialGraph:
    """The discovery result: scores + provenance over the (frozen) graph
    they were found in, which a result page reads.  *graph* is the
    subgraph when already cut; a sub-MSG (``within=``) keeps the endorser
    set and subgraph of the MSG it was restricted from."""

    def __init__(
        self,
        graph: SocialContentGraph | None = None,
        query: Query | None = None,
        items: list[ScoredItem] | None = None,
        social: SocialScores | None = None,
        used_expert_fallback: bool = False,
        *,
        base: SocialContentGraph,
        within: MeaningfulSocialGraph | None = None,
    ):
        self.query, self.social, self.base = query, social, base
        self.items = items if items is not None else []
        self.used_expert_fallback = used_expert_fallback
        # read per item by ranking and §7.1 meaningfulness; the first
        # record of an id wins, as a scan of ``items`` would find it
        self._scores = {s.item_id: s.combined for s in reversed(self.items)}
        # a root holds None, not itself: a cycle would pin its served graph
        self._of = None if within is None else within._of or within
        if within is None:
            self._graph = graph
            endorsers = social.endorsers if social else {}
            self._endorser_set = frozenset(
                e for s in self.items for e in endorsers.get(s.item_id, {})
            )

    @property
    def item_ids(self) -> list[Id]:
        """Result item ids, best first."""
        return [s.item_id for s in self.items]

    @property
    def graph(self) -> SocialContentGraph:
        """The MSG subgraph, cut from :attr:`base` on first read and kept."""
        root = self._of or self
        if root._graph is None:
            root._graph = root._cut()
        return root._graph

    def score_of(self, item_id: Id) -> float:
        """Combined score of one result item (0 when absent)."""
        return self._scores.get(item_id, 0.0)

    def endorsers_of(self, item_id: Id) -> dict[Id, float]:
        """Social provenance: endorsing users and their weights."""
        if self.social is None:
            return {}
        return dict(self.social.endorsers.get(item_id, {}))

    def taggers_of(self, item_id: Id) -> set[Id]:
        """Users with an activity link onto the item *within the MSG*: a
        result item's endorsers in the endorser set, and those whose
        ``act`` link the cut keeps by another rule — a result item's
        ``belong`` link, the user's ``connect`` link onto an endorser."""
        root = self._of or self
        scope, items = root._endorser_set, root._scores
        found = set()
        for src in self.base.activity().endorsers(item_id):
            if src in scope and item_id in items or (
                src in items and self._act_link(src, item_id, "belong")
            ) or (
                src == self.query.user_id and item_id in scope
                and self._act_link(src, item_id, "connect")
            ):
                found.add(src)
        return found

    def _act_link(self, src: Id, tgt: Id, also: str) -> bool:
        return any(link.src == src and link.has_type("act")
                   and link.has_type(also)
                   for link in self.base.in_links(tgt))

    def _cut(self) -> SocialContentGraph:
        """The user, the scored items, every endorser, the user's connect
        links to endorsers, endorsers' ``act`` links onto result items and
        items' ``belong`` links, each found from a kept node's adjacency."""
        base, query, endorser_set = self.base, self.query, self._endorser_set
        msg = SocialContentGraph(catalog=base.catalog)
        if base.has_node(query.user_id):
            msg.add_node(base.node(query.user_id))
        for scored in self.items:
            node = base.node(scored.item_id).with_attrs(
                semantic_score=round(scored.semantic, 6),
                social_score=round(scored.social, 6),
                score=round(scored.combined, 6),
            )
            msg.add_node(node)
        for endorser in endorser_set:
            if base.has_node(endorser) and not msg.has_node(endorser):
                msg.add_node(base.node(endorser))
        # a link that qualifies twice (typed both ``act`` and ``belong``
        # between two result items) consolidates with itself: same record
        for link in base.out_links(query.user_id):
            if link.has_type("connect") and link.tgt in endorser_set:
                msg.add_link(link)
        for scored in self.items:
            for link in base.in_links(scored.item_id):
                if link.has_type("act") and link.src in endorser_set:
                    msg.add_link(link)
            for link in base.out_links(scored.item_id):
                if link.has_type("belong"):
                    if not msg.has_node(link.tgt):
                        msg.add_node(base.node(link.tgt))
                    msg.add_link(link)
        return msg


def assemble_msg(
    base: SocialContentGraph,
    query: Query,
    scored_items: list[ScoredItem],
    social: SocialScores,
    used_expert_fallback: bool,
) -> MeaningfulSocialGraph:
    """The MSG of a ranked window over *base*, which is frozen and kept
    as the MSG's :attr:`~MeaningfulSocialGraph.base`; nothing is cut."""
    return MeaningfulSocialGraph(
        query=query, items=scored_items, social=social,
        used_expert_fallback=used_expert_fallback, base=base.freeze(),
    )
