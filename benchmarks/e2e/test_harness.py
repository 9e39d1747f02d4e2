"""The benchmark's own arithmetic: run with
``python -m pytest benchmarks/e2e/test_harness.py``."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from benchmarks.e2e.compare import verdict
from benchmarks.e2e.harness import (
    TooFewSamples,
    Tracer,
    canonical_response,
    digest,
    first_difference,
    percentile,
    poisson_arrivals,
    steady,
    steady_columns,
)
from benchmarks.e2e.inputs import browse_stream, catalog_stream
from repro.workloads import WorkloadConfig, build_site


def test_percentile_refuses_thin_samples():
    samples = [float(i) for i in range(200)]
    assert percentile(samples, 95) == pytest.approx(189.05)
    with pytest.raises(TooFewSamples):
        percentile(samples[:199], 95)
    assert percentile(samples[:20], 50) == pytest.approx(9.5)
    with pytest.raises(TooFewSamples):
        percentile(samples[:19], 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50, min_beyond=0)
    # --quick lifts the guard
    assert percentile(samples[:5], 95, min_beyond=0) == pytest.approx(3.8)


def test_percentile_counts_the_samples_behind_condensed_values():
    condensed = [float(i) for i in range(96)]
    with pytest.raises(TooFewSamples):
        percentile(condensed, 95)
    assert percentile(condensed, 95, behind=96 * 3) == pytest.approx(90.25)


def test_steady_is_the_lower_quartile_of_repeats():
    assert steady([4.0, 1.0, 2.0, 3.0, 5.0]) == pytest.approx(2.0)
    assert steady([3.0]) == 3.0
    # one disturbed pass out of three moves nothing
    calm = [[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]]
    assert steady_columns(calm) == [1.0, 2.0]


def test_arrival_schedule_follows_the_seed():
    a = poisson_arrivals(16.0, 200, seed=3)
    assert a == poisson_arrivals(16.0, 200, seed=3)
    assert a != poisson_arrivals(16.0, 200, seed=4)
    assert all(later > earlier for earlier, later in zip(a, a[1:]))
    assert 200 / a[-1] == pytest.approx(16.0, rel=0.25)


@pytest.mark.parametrize("make_stream", [browse_stream, catalog_stream])
def test_request_stream_follows_the_seed(make_stream):
    site = build_site(WorkloadConfig(num_users=30, num_items=60, seed=5))
    # by repr: a structural Condition compares by identity
    assert repr(make_stream(site, 5, 50)) == repr(make_stream(site, 5, 50))
    assert repr(make_stream(site, 5, 50)) != repr(make_stream(site, 6, 50))


def test_span_self_time_is_duration_minus_child_cover():
    tracer = Tracer()
    root = tracer.add("api.run", 0.0, 10.0, None, "r0")
    rank = tracer.add("discovery.rank", 1.0, 5.0, root, "r0")
    tracer.add("plan.execute", 1.0, 4.0, rank, "r0")
    tracer.add("presentation.organize", 4.5, 9.0, root, "r0")  # overlaps rank
    tracer.add("late", 9.5, 12.0, root, "r0")  # runs past its parent
    selfs = tracer.self_times()
    # children cover [1, 9] and [9.5, 10] of the root's [0, 10]
    assert selfs[root] == pytest.approx(1.5)
    assert selfs[rank] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    with tracer.span("timed", "r1") as index:
        pass
    assert tracer.spans[index].end >= tracer.spans[index].start


def _response(supporters: dict, scores: dict) -> SimpleNamespace:
    explanation = SimpleNamespace(kind="cf", supporters=supporters,
                                  aggregate_text="50% of your friends")
    entry = SimpleNamespace(item_id="i1", score=0.25, explanation=explanation)
    group = SimpleNamespace(
        label="g", dimension="social", group_score=1.0, entries=[entry],
        explanation=SimpleNamespace(top_supporters=[(7, 0.5)], coverage=1.0,
                                    text="t"),
    )
    page = SimpleNamespace(groups=[group], chosen_dimension="social",
                           dimension_scores=scores, flat=[entry],
                           used_expert_fallback=False)
    info = SimpleNamespace(page=1, page_size=10, offset=0, returned=1,
                           total_items=1, has_next=False)
    return SimpleNamespace(page=page, page_info=info, items=("i1",))


def test_canonical_form_ignores_dict_order_and_sees_values():
    one = canonical_response(_response({3: 0.5, "u9": 0.25},
                                       {"social": 1.0, "topical": 0.5}))
    two = canonical_response(_response({"u9": 0.25, 3: 0.5},
                                       {"topical": 0.5, "social": 1.0}))
    assert digest(one) == digest(two)
    assert first_difference(one, two) is None
    near = canonical_response(_response({3: 0.5 + 1e-12, "u9": 0.25},
                                        {"social": 1.0, "topical": 0.5}))
    assert first_difference(one, near) is None
    assert digest(one) == digest(near)
    far = canonical_response(_response({3: 0.5001, "u9": 0.25},
                                       {"social": 1.0, "topical": 0.5}))
    assert "supporters" in first_difference(one, far)
    assert digest(one) != digest(far)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.1) == "unchanged"
    assert verdict(steady, [x * 1.2 for x in steady], "lower", 0.1) == "regressed"
    assert verdict(steady, [x * 0.8 for x in steady], "higher", 0.1) == "regressed"
    noisy = [80.0, 120.0, 95.0, 105.0]
    assert verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    # every run of B better than every run of A settles it despite spread
    assert verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.1) == "unchanged"
