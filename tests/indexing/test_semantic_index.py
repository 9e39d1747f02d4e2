"""SemanticItemIndex: exact parity with the scan path, TA top-k, caching."""

from __future__ import annotations

import pytest

import oracle
from repro.core import Condition, select_nodes
from repro.discovery import parse_query
from repro.indexing import SemanticItemIndex
from repro.workloads import JOHN, TravelSiteConfig, build_travel_site

QUERIES = (
    "Denver attractions",
    "museum",
    "baseball stadium",
    "family trip barcelona",
    "history art",
    "nonexistentterm",
)


@pytest.fixture(scope="module")
def travel():
    return build_travel_site(TravelSiteConfig(seed=42))


@pytest.fixture(scope="module")
def index(travel):
    return SemanticItemIndex(travel.graph)


class TestScanParity:
    @pytest.mark.parametrize("text", QUERIES)
    def test_candidates_equal_scan_scores_exactly(self, travel, index, text):
        """Same candidate set, bit-identical scores as σN⟨keywords, tf-idf⟩."""
        query = parse_query(JOHN, text)
        scanned = oracle.semantic_candidates(travel.graph, query).scores
        indexed = index.candidates(query.keywords)
        assert indexed == scanned  # exact float equality, by construction

    @pytest.mark.parametrize("text", QUERIES)
    def test_score_matches_shared_scorer(self, travel, index, text):
        keywords = tuple(text.lower().split())
        for node in travel.graph.nodes_of_type("item"):
            assert index.score(node.id, keywords) == pytest.approx(
                index.scorer(node, keywords), abs=0.0
            )

    def test_variant_matching_included(self, travel, index):
        """'attraction' must scope to items mentioning 'attractions'."""
        singular = index.candidates(("attraction",))
        plural = index.candidates(("attractions",))
        assert set(singular) == set(plural)
        assert singular  # the travel site describes attractions


class TestTopK:
    @pytest.mark.parametrize("text", QUERIES[:5])
    @pytest.mark.parametrize("k", (1, 5, 20))
    def test_ta_topk_equals_sorted_candidates(self, index, text, k):
        keywords = tuple(text.lower().split())
        expected = sorted(
            index.candidates(keywords).items(),
            key=lambda kv: (-kv[1], repr(kv[0])),
        )[:k]
        results, stats = index.topk(keywords, k)
        assert [(i, pytest.approx(s)) for i, s in results] == \
               [(i, pytest.approx(s)) for i, s in expected]
        assert stats.sorted_accesses >= len(results)

    def test_topk_prunes_for_small_k(self, index):
        _, full_stats = index.topk(("denver", "attractions"), 10_000)
        _, small_stats = index.topk(("denver", "attractions"), 1)
        assert small_stats.sorted_accesses <= full_stats.sorted_accesses

    def test_empty_keywords_yield_nothing(self, index):
        results, _ = index.topk((), 5)
        assert results == []


class TestIndexMechanics:
    def test_term_lists_cached(self, index):
        first = index.term_list("denver")
        assert index.term_list("denver") is first

    def test_report_counts(self, travel, index):
        report = index.report()
        assert report.lists == len(index.postings)
        assert report.entries == sum(len(p) for p in index.postings.values())
        assert report.bytes == report.entries * 10

    def test_only_item_population_indexed(self, travel, index):
        user_ids = {n.id for n in travel.graph.nodes_of_type("user")}
        indexed = set(index.norms)
        assert not indexed & user_ids

    def test_scan_and_index_agree_under_shared_scorer(self, travel):
        """Scan via select_nodes with the index's scorer: same scores."""
        index = SemanticItemIndex(travel.graph)
        condition = Condition({"type": "item"}, keywords="denver baseball")
        selected = select_nodes(travel.graph, condition, scorer=index.scorer)
        scanned = {n.id: n.score for n in selected.nodes()}
        assert index.candidates(("denver", "baseball")) == scanned
