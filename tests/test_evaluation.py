"""Scoring: likelihoods, EBF, ROC/AUC, relative MSE."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termspread.errors import LengthMismatch, SingleClass, ZeroBenchmark
from termspread.evaluation import (
    auc,
    avg_log_likelihood,
    ebf,
    posterior_weight,
    relative_mse,
    roc_curve,
)

from reference import (
    JEFFREYS_THRESHOLD,
    exceeds_jeffreys,
    loop_auc,
    loop_roc,
    trapezoid_auc,
)


# --- average log likelihood -------------------------------------------------------

def test_avg_ll_uninformative_forecast():
    y = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    p = np.full(5, 0.5)
    assert avg_log_likelihood(y, p) == pytest.approx(-np.log(2.0))


def test_avg_ll_perfect_forecast_bounded_by_clamp():
    y = np.array([1.0, 0.0])
    p = np.array([1.0, 0.0])
    out = avg_log_likelihood(y, p)
    assert -1e-15 < out <= 0.0


def test_avg_ll_hand_value():
    y = np.array([1.0, 0.0])
    p = np.array([0.8, 0.3])
    assert avg_log_likelihood(y, p) == pytest.approx(
        (np.log(0.8) + np.log(0.7)) / 2.0
    )
    assert avg_log_likelihood(y, p) == pytest.approx(-0.2899, abs=5e-5)


def test_avg_ll_weighted_mean_is_over_n():
    y = np.array([1.0, 0.0, 0.0, 0.0])
    p = np.array([0.6, 0.4, 0.2, 0.3])
    w = np.array([2.0, 0.5, 0.5, 0.5])
    expected = np.mean(w * (y * np.log(p) + (1 - y) * np.log1p(-p)))
    assert avg_log_likelihood(y, p, w) == pytest.approx(expected, abs=1e-15)


def test_avg_ll_nonpositive_always():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        y = (rng.random(n) < 0.5).astype(float)
        p = rng.random(n)
        assert avg_log_likelihood(y, p) <= 0.0


def test_avg_ll_length_mismatch():
    with pytest.raises(LengthMismatch):
        avg_log_likelihood(np.ones(3), np.full(2, 0.5))


# --- EBF and averaging weight -------------------------------------------------------

def test_ebf_published_reproduction():
    assert ebf(-0.459, -0.367) == pytest.approx(0.912, abs=5e-4)
    assert ebf(-0.244, -0.248) == pytest.approx(1.004, abs=5e-4)


def test_ebf_self_is_one():
    assert ebf(-0.289, -0.289) == 1.0


def test_ebf_reciprocal_identity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.normal(scale=0.5, size=2)
        assert ebf(a, b) * ebf(b, a) == pytest.approx(1.0, abs=1e-12)


def test_model_avg_weight_values():
    # the weight run_horizon reports, taken from the log of the displayed EBF
    assert posterior_weight(np.log(1.0)) == 0.5
    assert posterior_weight(np.log(1.114)) == pytest.approx(0.527, abs=1e-3)
    assert posterior_weight(np.log(1.114)) < 0.53
    assert posterior_weight(np.log(1e-12)) == pytest.approx(0.0, abs=1e-9)


def test_posterior_weight_survives_an_underflowing_ebf():
    # a class-weighted test period can put an alternative 1,355 nats behind
    # the benchmark: the EBF rounds to 0, the weight still follows log EBF
    assert ebf(-1355.8, -0.8) == 0.0
    assert posterior_weight(-1355.0) == 0.0
    assert posterior_weight(-30.0) == pytest.approx(np.exp(-30.0), rel=1e-12)
    assert posterior_weight(1355.0) == 1.0
    assert posterior_weight(0.0) == 0.5
    assert posterior_weight(np.log(1.114)) == pytest.approx(1.114 / 2.114, rel=1e-15)


def test_jeffreys_flag():
    assert JEFFREYS_THRESHOLD == pytest.approx(3.1623, abs=1e-4)
    assert not exceeds_jeffreys(1.114)
    assert exceeds_jeffreys(3.17)


# --- ROC curve ----------------------------------------------------------------------

def test_roc_perfect_classifier_hits_corner():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    pts = roc_curve(y, y.copy())
    assert [0.0, 1.0] in pts.tolist()
    assert pts[0].tolist() == [0.0, 0.0] and pts[-1].tolist() == [1.0, 1.0]


def test_roc_all_tied_scores_is_diagonal():
    y = np.array([1.0, 0.0, 1.0])
    pts = roc_curve(y, np.full(3, 0.7))
    assert pts.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_roc_enumerated_thresholds():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([0.9, 0.8, 0.7, 0.6])
    pts = roc_curve(y, s)
    assert pts.tolist() == [
        [0.0, 0.0],
        [0.0, 0.5],
        [0.5, 0.5],
        [0.5, 1.0],
        [1.0, 1.0],
    ]


def test_roc_single_class_error():
    with pytest.raises(SingleClass):
        roc_curve(np.ones(4), np.linspace(0, 1, 4))


def on_one_forecast(metric, targets, forecast):
    """``metric`` of one forecast; relative_mse also gets a finite benchmark."""
    benchmark = [np.full(np.shape(targets), 0.5)] if metric is relative_mse else []
    return metric(targets, forecast, *benchmark)


TARGET_METRICS = [roc_curve, auc, avg_log_likelihood, relative_mse]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7, -0.4])
@pytest.mark.parametrize("score", TARGET_METRICS)
def test_roc_and_auc_reject_a_score_that_is_not_finite(score, bad):
    # one input rule for every metric that takes targets, each naming its
    # own forecast argument: "scores", "probabilities" or "probs_alt";
    # a probability also lies in [0, 1], while a score is any finite real
    name = list(inspect.signature(score).parameters)[1]
    y, forecast = np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.1, bad, 0.3, 0.9])
    if not np.isfinite(bad):
        rule = "must be finite"
    elif name == "scores":
        on_one_forecast(score, y, forecast)
        return
    else:  # unchecked, the clip scored [1.7, -0.4] on [1, 0] as near perfect
        rule = r"must be in \[0, 1\]"
    with pytest.raises(ValueError, match=f"^{name} {rule}$"):
        on_one_forecast(score, y, forecast)


@pytest.mark.parametrize(
    "targets, message",
    [
        ([0.0, 0.5, 1.0, 0.0], "targets must be 0 or 1"),
        ([0.0, np.nan, 1.0, 0.0], "targets must be 0 or 1"),
        ([], "targets must not be empty"),  # unchecked, a mean of nothing: nan
    ],
    ids=["half", "nan", "empty"],
)
@pytest.mark.parametrize("metric", TARGET_METRICS)
def test_every_metric_rejects_targets_other_than_0_and_1(metric, targets, message):
    # unchecked, a target of 0.5 gives an AUC above 1 and a TPR of 1.5
    forecast = np.array([0.1, 0.2, 0.3, 0.4])[: len(targets)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        on_one_forecast(metric, np.array(targets), forecast)


def test_weights_and_benchmark_forecast_must_be_finite():
    y, p = np.array([0.0, 1.0]), np.array([0.3, 0.6])
    with pytest.raises(ValueError, match="^weights must be finite$"):
        avg_log_likelihood(y, p, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="^probs_benchmark must be finite$"):
        relative_mse(y, p, np.array([0.5, np.inf]))
    # a weight of zero or below, refused as LogitProblem refuses it
    for w in ([-1.0, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="^weights must be positive$"):
            avg_log_likelihood(y, p, np.array(w))
    with pytest.raises(ValueError, match=r"^probs_benchmark must be in \[0, 1\]$"):
        relative_mse(y, p, np.array([0.5, 1.2]))


# --- AUC -----------------------------------------------------------------------------

def brute_force_auc(y, s):
    pos = s[y == 1.0]
    neg = s[y == 0.0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_perfect_and_tied():
    y = np.array([1.0, 1.0, 0.0, 0.0])
    assert auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 1.0
    assert auc(y, np.full(4, 0.3)) == 0.5


def test_auc_enumerated_value():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([0.9, 0.8, 0.7, 0.6])
    assert auc(y, s) == pytest.approx(0.75)
    assert brute_force_auc(y, s) == pytest.approx(0.75)


def test_auc_matches_brute_force_and_trapezoid_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 51))
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        # quantized scores inject plenty of ties
        s = np.round(rng.random(n), 1)
        a = auc(y, s)
        assert a == pytest.approx(brute_force_auc(y, s), abs=1e-12)
        assert a == pytest.approx(trapezoid_auc(roc_curve(y, s)), abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            # mostly five score levels, so most thresholds are shared by ties
            st.one_of(st.integers(0, 4).map(lambda level: 0.1 * level), st.floats(0.0, 1.0)),
        ),
        min_size=2,
        max_size=40,
    ).filter(lambda rows: len({label for label, _ in rows}) == 2)
)
def test_auc_is_the_trapezoid_under_the_roc_curve_with_ties(rows):
    # the loop references check the vectorized tie handling value for value
    y = np.array([float(label) for label, _ in rows])
    s = np.array([score for _, score in rows])
    points = loop_roc(y, s)
    assert np.array_equal(roc_curve(y, s), points)
    assert auc(y, s) == loop_auc(y, s)
    assert auc(y, s) == pytest.approx(trapezoid_auc(points), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    y = (rng.random(40) < 0.4).astype(float)
    y[0], y[1] = 1.0, 0.0
    s = rng.normal(size=40)
    base = auc(y, s)
    for transform in (np.exp, np.tanh, lambda v: 3 * v + 7, lambda v: v**3):
        assert auc(y, transform(s)) == pytest.approx(base, abs=1e-12)


# --- relative MSE ---------------------------------------------------------------------

def test_relative_mse_identity_and_perfection():
    y = np.array([1.0, 0.0, 1.0])
    p = np.array([0.7, 0.2, 0.6])
    assert relative_mse(y, p, p) == 1.0
    assert relative_mse(y, y, p) == 0.0


def test_relative_mse_zero_benchmark():
    y = np.array([1.0, 0.0])
    with pytest.raises(ZeroBenchmark):
        relative_mse(y, np.array([0.9, 0.1]), y)


def test_relative_mse_length_mismatch():
    with pytest.raises(LengthMismatch, match=r"^targets \(3,\) vs probs_benchmark \(2,\)$"):
        relative_mse(np.ones(3), np.ones(3), np.ones(2))
