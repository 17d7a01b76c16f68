"""Metrics: AP, P@k, MAP, rank agreement, Kendall's W, Mann-Whitney U."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgoe import (
    InputError,
    average_precision,
    complete_and_rank,
    complete_rankings,
    evaluate_run,
    jaccard,
    kendalls_w,
    mann_whitney_u,
    mean_average_precision,
    precision_at_k,
    repeated_comparison,
    spearman_rho,
)
from hgoe.evaluation import _approx_p, _u_doubled


# -- precision metrics ----------------------------------------------------------

def test_average_precision_handbook_case():
    assert average_precision(["a", "b", "c", "d"], {"a", "c"}) == pytest.approx(5 / 6)


def test_average_precision_divides_by_all_relevant():
    # one of two relevant documents was never retrieved
    assert average_precision(["a"], {"a", "z"}) == pytest.approx(0.5)


def test_average_precision_edge_cases():
    assert average_precision(["a", "b"], {"a", "b"}) == 1.0
    assert average_precision([], {"a"}) == 0.0
    with pytest.raises(InputError):
        average_precision(["a"], set())


def test_precision_at_k():
    assert precision_at_k(["a", "b", "c"], {"a", "c"}, 2) == 0.5
    assert precision_at_k(["a", "b", "c"], {"a", "c"}, 3) == pytest.approx(2 / 3)
    # a short ranking is padded with misses
    assert precision_at_k(["a"], {"a"}, 5) == pytest.approx(0.2)
    with pytest.raises(InputError):
        precision_at_k(["a"], {"a"}, 0)


def test_mean_average_precision_topic_rules():
    run = {
        "t1": ["a", "b"],
        "t2": ["x", "a"],
        "t3": ["a"],
        "t4": ["a"],
    }
    qrels = {
        "t1": {"a": 1, "b": 0},
        "t2": {"a": 2},
        "t3": {"a": 0},  # judged, but nothing relevant
        # t4 has no judgements at all
    }
    result = mean_average_precision(run, qrels)
    assert result.per_topic == {"t1": 1.0, "t2": 0.5}
    assert result.mean == pytest.approx(0.75)
    assert result.excluded_no_relevant == ["t3"]
    assert result.skipped_unknown == ["t4"]


def test_mean_average_precision_empty():
    result = mean_average_precision({}, {})
    assert result.mean == 0.0
    assert result.per_topic == {}


def test_evaluate_run_takes_precision_over_the_map_topics():
    run = {"t1": ["a", "b"], "t2": ["x", "a"], "t3": ["a"], "t4": ["a"]}
    qrels = {"t1": {"a": 1, "b": 0}, "t2": {"a": 2}, "t3": {"a": 0}}
    result, p_at_k, mean_p = evaluate_run(run, qrels, 2)
    assert result == mean_average_precision(run, qrels)
    assert p_at_k == {"t1": 0.5, "t2": 0.5}
    assert mean_p == 0.5
    _, p_at_k, mean_p = evaluate_run({"t3": ["a"]}, qrels, 1)
    assert (p_at_k, mean_p) == ({}, 0.0)
    with pytest.raises(InputError):
        evaluate_run({}, {}, 0)  # k is checked even with no topic to score


def test_means_add_left_to_right_on_every_interpreter():
    """Ten topics of AP and P@10 0.1: 3.12's compensated sum() would give 0.1."""
    run = {f"t{i}": [f"t{i}-d0"] for i in range(10)}
    qrels = {f"t{i}": {f"t{i}-d{j}": 1 for j in range(10)} for i in range(10)}
    result, p_at_k, mean_p = evaluate_run(run, qrels, 10)
    assert list(result.per_topic.values()) == list(p_at_k.values()) == [0.1] * 10
    assert result.mean == mean_p == 0.09999999999999999


# -- ranking completion ---------------------------------------------------------

def test_complete_and_rank_appends_missing_documents():
    positions_a, positions_b = complete_and_rank(["d1", "d2"], ["d2", "d3"])
    assert positions_a == [1, 2, 3]
    assert positions_b == [3, 1, 2]


def test_complete_and_rank_appends_lexicographically():
    positions_a, positions_b = complete_and_rank(["x"], ["x", "b", "a"])
    # universe sorted: a, b, x; a and b join ranking A as ranks 2, 3
    assert positions_a == [2, 3, 1]
    assert positions_b == [3, 2, 1]


def test_complete_and_rank_rejects_duplicates():
    with pytest.raises(InputError):
        complete_and_rank(["a", "a"], ["b"])


def test_complete_rankings():
    completed = complete_rankings([["d1", "d2"], ["d2", "d3"]])
    assert completed == [["d1", "d2", "d3"], ["d2", "d3", "d1"]]


# -- Spearman's rho -------------------------------------------------------------

def test_spearman_exact_values():
    assert spearman_rho([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert spearman_rho([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)
    assert spearman_rho([1, 2, 3, 4, 5], [2, 4, 1, 3, 5]) == pytest.approx(0.5)


def test_spearman_degenerate_inputs():
    assert spearman_rho([1], [1]) is None
    assert spearman_rho([], []) is None
    with pytest.raises(InputError):
        spearman_rho([1, 2], [1])


@settings(max_examples=40)
@given(st.permutations(list(range(1, 7))))
def test_spearman_bounds_and_symmetry(perm):
    identity = list(range(1, 7))
    rho = spearman_rho(identity, list(perm))
    assert -1.0 <= rho <= 1.0
    assert rho == pytest.approx(spearman_rho(list(perm), identity))
    assert spearman_rho(list(perm), list(perm)) == 1.0


# -- Jaccard ---------------------------------------------------------------------

def test_jaccard_values():
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard({"a"}, {"a"}) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, set()) == 0.0


# -- Kendall's W ------------------------------------------------------------------

def test_kendalls_w_exact_values():
    assert kendalls_w([["a", "b", "c"]] * 3) == 1.0
    assert kendalls_w([["x", "y"], ["y", "x"]]) == 0.0
    assert kendalls_w([["a", "b", "c"], ["a", "c", "b"]]) == pytest.approx(0.75)


def test_kendalls_w_input_validation():
    with pytest.raises(InputError):
        kendalls_w([["a", "b"]])
    with pytest.raises(InputError):
        kendalls_w([["a", "b"], ["a", "c"]])
    with pytest.raises(InputError):
        kendalls_w([["a", "a"], ["a", "a"]])
    with pytest.raises(InputError):
        kendalls_w([["a"], ["a"]])


def test_kendalls_w_matches_mean_pairwise_spearman():
    # textbook identity for tie-free rankings: W = ((m - 1) * mean_rho + 1) / m
    rng = np.random.default_rng(51)
    items = [f"doc{i}" for i in range(6)]
    for m in (2, 3, 4):
        rankings = [list(rng.permutation(items)) for _ in range(m)]
        rhos = []
        for a, b in itertools.combinations(rankings, 2):
            rhos.append(spearman_rho(*complete_and_rank(a, b)))
        mean_rho = sum(rhos) / len(rhos)
        expected = ((m - 1) * mean_rho + 1) / m
        assert kendalls_w(rankings) == pytest.approx(expected, abs=1e-9)


# -- Mann-Whitney U ----------------------------------------------------------------

def test_mann_whitney_exact_small_sample():
    u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert u == 0.0
    assert p == pytest.approx(1 / 3, abs=1e-9)
    u_rev, p_rev = mann_whitney_u([3.0, 4.0], [1.0, 2.0])
    assert u_rev == 4.0
    assert p_rev == pytest.approx(1 / 3, abs=1e-9)


def test_mann_whitney_counts_ties_as_half():
    u, p = mann_whitney_u([1.0], [1.0])
    assert u == 0.5
    assert p == 1.0


def test_mann_whitney_u_complement():
    rng = np.random.default_rng(52)
    for _ in range(20):
        a = list(rng.integers(0, 6, size=int(rng.integers(1, 6))).astype(float))
        b = list(rng.integers(0, 6, size=int(rng.integers(1, 6))).astype(float))
        u_a, _ = mann_whitney_u(a, b)
        u_b, _ = mann_whitney_u(b, a)
        assert u_a + u_b == pytest.approx(len(a) * len(b))


def test_mann_whitney_separated_samples():
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    b = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    u, p = mann_whitney_u(a, b)
    assert u == 36.0
    assert p == pytest.approx(2 / math.comb(12, 6), abs=1e-12)


def test_mann_whitney_large_identical_samples():
    sample = [float(x) for x in range(10)]
    u, p = mann_whitney_u(sample, list(sample))
    assert u == 50.0
    assert p == 1.0


def test_mann_whitney_all_tied_samples_have_zero_variance_and_p_1():
    # 14 values are past the exact limit; one tie group of 14 makes the
    # normal approximation's variance 0, as when two systems' MAPs all tie.
    u, p = mann_whitney_u([0.5] * 7, [0.5] * 7)
    assert u == 24.5
    assert p == 1.0


def test_mann_whitney_large_shifted_samples():
    a = [float(x) for x in range(20)]
    b = [float(x + 20) for x in range(20)]
    _, p = mann_whitney_u(a, b)
    assert p < 1e-6


def test_mann_whitney_rejects_empty_sample():
    with pytest.raises(InputError):
        mann_whitney_u([], [1.0])
    with pytest.raises(InputError):
        mann_whitney_u([1.0], [])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=12, max_size=12, unique=True))
def test_mann_whitney_exact_and_approx_agree(values):
    a = [float(x) for x in values[:6]]
    b = [float(x) for x in values[6:]]
    u, p_exact = mann_whitney_u(a, b)
    p_approx = _approx_p(a + b, 6, 6, _u_doubled(a, b) / 2.0)
    assert abs(p_exact - p_approx) <= 0.05
    assert u == _u_doubled(a, b) / 2.0


# -- repeated comparison -------------------------------------------------------------

def test_repeated_comparison_passes_alternating_seeds():
    seeds_a, seeds_b = [], []

    def system_a(query, seed):
        seeds_a.append(seed)
        return ["a", "b"]

    def system_b(query, seed):
        seeds_b.append(seed)
        return ["a", "b"]

    report = repeated_comparison(system_a, system_b, [("t1", "q")], 3, base_seed=100)
    assert seeds_a == [100, 102, 104]
    assert seeds_b == [101, 103, 105]
    assert report.repetitions == 3
    assert report.rho_mean == 1.0
    assert report.rho_std == 0.0
    assert report.jaccard_mean == 1.0


def test_repeated_comparison_disjoint_systems():
    report = repeated_comparison(
        lambda q, s: ["a", "b"],
        lambda q, s: ["c", "d"],
        [("t1", "q")],
        1,
    )
    assert report.per_topic_rho["t1"] == pytest.approx(-0.6)
    assert report.per_topic_jaccard["t1"] == 0.0


def test_repeated_comparison_averages_over_repetitions():
    def system_a(query, seed):
        return ["a", "b"] if seed % 4 == 0 else ["b", "a"]

    report = repeated_comparison(system_a, lambda q, s: ["a", "b"], [("t1", "q")], 2)
    assert report.per_topic_rho["t1"] == pytest.approx(0.0)
    assert report.per_topic_jaccard["t1"] == 1.0


def test_repeated_comparison_single_item_rankings_have_no_rho():
    report = repeated_comparison(
        lambda q, s: ["only"],
        lambda q, s: ["only"],
        [("t1", "q")],
        2,
    )
    assert report.per_topic_rho["t1"] is None
    assert report.rho_mean is None
    assert report.rho_std is None
    assert report.jaccard_mean == 1.0


def test_repeated_comparison_validates_input():
    system = lambda q, s: ["a"]  # noqa: E731
    with pytest.raises(InputError):
        repeated_comparison(system, system, [("t", "q")], 0)
    with pytest.raises(InputError):
        repeated_comparison(system, system, [], 1)
