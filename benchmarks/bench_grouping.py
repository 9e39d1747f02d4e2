"""Experiment S7 — §7 grouping, meaningfulness choice, and explanations.

Regenerates the Alexia scenario's presentation decision: all candidate
grouping dimensions are built and scored for meaningfulness, the winner is
reported (the paper's prediction: endorser-group for Alexia), and each
stage is timed.
"""

from __future__ import annotations

import pytest

from repro.discovery import InformationDiscoverer
from repro.presentation import (
    InformationOrganizer,
    endorser_group_grouping,
    explain_collaborative,
    meaningfulness,
    social_grouping,
    structural_grouping,
    topical_grouping,
)
from repro.presentation.explanations import collaborative_pair
from repro.workloads import ALEXIA, JOHN


@pytest.fixture(scope="module")
def msgs(travel_site):
    discoverer = InformationDiscoverer(travel_site.graph)
    return {
        "alexia": discoverer.discover(ALEXIA, "history"),
        "john": discoverer.discover(JOHN, "Denver attractions"),
    }


def test_grouping_choice_table(travel_site, msgs, report, benchmark):
    msg = msgs["alexia"]
    benchmark.pedantic(social_grouping, args=(msg, 0.3), rounds=1,
                       iterations=1)
    candidates = {
        "social (Def 14)": social_grouping(msg, 0.3),
        "topical": topical_grouping(msg),
        "structural:city": structural_grouping(msg, "city"),
        "structural:category": structural_grouping(msg, "category"),
        "endorser-group": endorser_group_grouping(msg),
    }
    lines = [
        "",
        "=== §7 grouping choice for Alexia's 'history' results ===",
        f"  {'dimension':<22}{'groups':>7}{'meaningfulness':>15}",
    ]
    scores = {}
    for name, grouping in candidates.items():
        score = meaningfulness(grouping, msg)
        scores[name] = score
        lines.append(f"  {name:<22}{grouping.num_groups:>7}{score:>15.3f}")
    winner = max(scores, key=scores.get)
    lines.append(f"  chosen: {winner}")
    report(*lines)
    # The paper's Example 3 outcome: endorser-based organisation wins.
    assert winner == "endorser-group"


@pytest.mark.parametrize("dimension", ["social", "topical", "structural",
                                       "endorser"])
def test_grouping_latency(travel_site, msgs, benchmark, dimension):
    msg = msgs["alexia"]
    if dimension == "social":
        benchmark(social_grouping, msg, 0.3)
    elif dimension == "topical":
        benchmark(topical_grouping, msg)
    elif dimension == "structural":
        benchmark(structural_grouping, msg, "category")
    else:
        benchmark(endorser_group_grouping, msg)


def test_full_page_assembly(travel_site, msgs, benchmark):
    organizer = InformationOrganizer()
    benchmark(organizer.organize, msgs["john"])


@pytest.mark.parametrize("population", ["friends", "everyone"])
@pytest.mark.parametrize("source", ["graph", "projection", "warm-row"])
def test_explanation_latency(travel_site, msgs, benchmark, population,
                             source):
    """One CF explanation: from an unfrozen copy of the graph (a one-off
    activity relation per call, what a script pays), from a frozen copy
    that keeps its relation, and — ``warm-row`` — the organizer's own
    call, ``collaborative_pair`` on a frozen copy whose requester
    similarity row is already built (what a repeat requester pays)."""
    msg = msgs["john"]
    item = msg.item_ids[0]
    base = (travel_site.graph.copy() if source == "graph"
            else travel_site.graph.copy().freeze())
    if source == "warm-row":
        activity = base.activity()
        activity.user_row(JOHN)
        pair = benchmark(collaborative_pair, activity, JOHN, item)
        assert pair[population == "everyone"].supporters == \
            explain_collaborative(base, JOHN, item,
                                  population == "friends").supporters
        return
    benchmark(explain_collaborative, base, JOHN, item,
              population == "friends")
