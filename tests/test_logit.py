"""Solver module: probabilities, gradients, the two fitters, certificates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termspread import logit
from termspread.errors import NotConverged, Separation, SingleClass, Singular
from termspread.logit import (
    ClassWeights,
    LogitProblem,
    PathStart,
    Standardizer,
    destandardize,
    fit_l1,
    fit_mle,
    kkt_residual,
    nll_gradient,
    null_model_lambda_bound,
    predict_proba,
    weighted_nll,
)

from reference import array_pseudo_gradient, intercept_only_lambda_bound


def random_problem(rng, n, p, weighted=False):
    X = rng.normal(size=(n, p))
    beta = rng.normal(scale=1.0, size=p)
    z = X @ beta + rng.normal(scale=0.5)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(z))).astype(float)
    if y.min() == y.max():  # force both classes
        y[0], y[1] = 0.0, 1.0
    w = rng.uniform(0.5, 2.0, size=n) if weighted else None
    return LogitProblem(features=X, targets=y, weights=w)


# --- predict_proba -------------------------------------------------------------

def test_predict_proba_zero_params_is_half():
    assert predict_proba(0.0, np.zeros(3), np.array([[4.0, -1.0, 7.0]])).tolist() == [0.5]


def test_predict_proba_sign_convention_limits():
    # positive generalized spread drives the probability to zero
    (low,) = predict_proba(0.0, np.array([1.0]), np.array([[50.0]]))
    assert low == pytest.approx(1.93e-22, rel=1e-2)
    (high,) = predict_proba(0.0, np.array([-1.0]), np.array([[50.0]]))
    assert high == pytest.approx(1.0 - 1.93e-22, abs=1e-12)


def test_predict_proba_stable_and_clamped():
    row = np.zeros((1, 1))
    assert predict_proba(700.0, np.zeros(1), row)[0] >= 1e-300
    assert predict_proba(-700.0, np.zeros(1), row)[0] <= 1.0 - 1e-16
    assert predict_proba(5000.0, np.zeros(1), row)[0] == 1e-300
    assert predict_proba(-5000.0, np.zeros(1), row)[0] == 1.0 - 1e-16


def test_predict_proba_logistic_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b0 = rng.normal(scale=3)
        b = rng.normal(scale=2, size=4)
        X = rng.normal(scale=3, size=(3, 4))
        total = predict_proba(b0, b, X) + predict_proba(-b0, -b, X)
        assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)


def test_predict_proba_matrix_form():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = predict_proba(0.0, np.array([1.0, -1.0]), X)
    assert out.shape == (2,)
    assert out[0] < 0.5 < out[1]


# --- weighted_nll / gradient ----------------------------------------------------

def test_nll_maximum_entropy_value():
    n = 17
    prob = LogitProblem(features=np.zeros((n, 1)), targets=np.array([1.0] * 8 + [0.0] * 9))
    assert weighted_nll(prob, 0.0, np.zeros(1)) == pytest.approx(n * np.log(2.0))


def test_nll_balanced_weights_recover_unweighted():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    y = np.array([1.0, 0.0] * 20)  # r = 1/2 exactly
    w = ClassWeights.from_targets(y).per_row(y)
    assert np.all(w == 1.0)
    pw = LogitProblem(features=X, targets=y, weights=w)
    pu = LogitProblem(features=X, targets=y)
    b = np.array([0.3, -0.8])
    assert weighted_nll(pw, 0.1, b) == weighted_nll(pu, 0.1, b)


def test_nll_two_row_hand_value():
    # rows (y=1, p=0.8) and (y=0, p=0.8)
    prob = LogitProblem(features=np.zeros((2, 1)), targets=np.array([1.0, 0.0]))
    b0 = -np.log(0.8 / 0.2)  # phi(-b0) = 0.8
    expected = -(np.log(0.8) + np.log(0.2))
    assert weighted_nll(prob, b0, np.zeros(1)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.8326, abs=5e-5)


def test_gradient_zero_on_symmetric_toy():
    # every feature value paired with both labels: zero params are stationary
    X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    prob = LogitProblem(features=X, targets=y)
    g0, g = nll_gradient(prob, 0.0, np.zeros(1))
    assert g0 == 0.0
    assert g[0] == 0.0


def test_gradient_hand_value_single_row():
    prob = LogitProblem(features=np.array([[2.0]]), targets=np.array([1.0]))
    g0, g = nll_gradient(prob, 0.0, np.zeros(1))
    # d/dbeta = (p - y) * (-x) = (0.5 - 1) * (-2) = 1.0
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert g0 == pytest.approx(0.5, abs=1e-12)


def central_difference(prob, b0, b, h=1e-5):
    def f(i0, bb):
        return weighted_nll(prob, i0, bb)

    g0 = (f(b0 + h, b) - f(b0 - h, b)) / (2 * h)
    g = np.zeros(len(b))
    for j in range(len(b)):
        e = np.zeros(len(b))
        e[j] = h
        g[j] = (f(b0, b + e) - f(b0, b - e)) / (2 * h)
    return g0, g


def test_gradient_matches_central_differences_100_instances():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(5, 21))
        p = int(rng.integers(1, 6))
        prob = random_problem(rng, n, p, weighted=True)
        b0 = float(rng.normal())
        b = rng.normal(size=p)
        a0, a = nll_gradient(prob, b0, b)
        e0, e = central_difference(prob, b0, b)
        scale = max(1.0, abs(e0), float(np.max(np.abs(e))))
        assert abs(a0 - e0) / scale <= 1e-6
        assert np.max(np.abs(a - e)) / scale <= 1e-6


# --- standardizer / destandardize ------------------------------------------------

def test_standardizer_round_trip_and_population_variance():
    rng = np.random.default_rng(8)
    X = rng.normal(5.0, 3.0, size=(30, 4))
    st = Standardizer.fit(X)
    assert np.allclose(st.stds, X.std(axis=0, ddof=0))
    Z = st.transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0) and np.allclose(Z.std(axis=0), 1.0)
    back = Z * st.stds + st.means
    assert np.max(np.abs(back - X) / np.maximum(np.abs(X), 1.0)) < 1e-12


def test_standardizer_rejects_constant_feature():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(ValueError):
        Standardizer.fit(X)


def test_destandardize_identity():
    st = Standardizer(means=np.zeros(2), stds=np.ones(2))
    i, c = destandardize(0.7, np.array([1.0, -2.0]), st)
    assert i == 0.7 and c.tolist() == [1.0, -2.0]


def test_destandardize_hand_case_and_probability_equivalence():
    st = Standardizer(means=np.array([5.0]), stds=np.array([2.0]))
    i, c = destandardize(0.0, np.array([1.0]), st)
    assert i == pytest.approx(-2.5) and c[0] == pytest.approx(0.5)
    X = np.array([[1.0], [5.0], [-3.2]])
    p_std = predict_proba(0.0, np.array([1.0]), st.transform(X))
    p_orig = predict_proba(i, c, X)
    assert np.max(np.abs(p_std - p_orig)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 8))
def test_destandardize_preserves_every_probability(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(rng.uniform(-20.0, 20.0, p), rng.uniform(0.1, 10.0, p), size=(n, p))
    std = Standardizer.fit(X)
    b0, b = float(rng.normal()), rng.normal(scale=2.0, size=p)
    b0_orig, b_orig = destandardize(b0, b, std)
    expected = predict_proba(b0, b, std.transform(X))
    assert np.allclose(predict_proba(b0_orig, b_orig, X), expected, rtol=1e-9, atol=1e-12)


def test_fit_prediction_equivalence_across_scales():
    rng = np.random.default_rng(21)
    X = rng.normal(3.0, 1.5, size=(60, 3))
    y = (rng.random(60) < 0.3).astype(float)
    y[:2] = [0.0, 1.0]
    st = Standardizer.fit(X)
    prob = LogitProblem(features=st.transform(X), targets=y)
    fit = fit_l1(PathStart(prob), 0.5)
    p_std = predict_proba(fit.intercept_std, fit.coefs_std, st.transform(X))
    p_orig = predict_proba(*destandardize(fit.intercept_std, fit.coefs_std, st), X)
    assert np.max(np.abs(p_std - p_orig)) <= 1e-10


# --- class weights ----------------------------------------------------------------

def test_class_weights_balanced():
    cw = ClassWeights.from_targets(np.array([1.0, 0.0, 1.0, 0.0]))
    assert cw.w_pos == 1.0 and cw.w_neg == 1.0


def test_class_weights_imbalanced_oversampling():
    y = np.zeros(100)
    y[:14] = 1.0
    cw = ClassWeights.from_targets(y)
    assert cw.w_pos == pytest.approx(1.0 / 0.28)
    assert cw.w_neg == pytest.approx(1.0 / 1.72)
    assert cw.w_pos == pytest.approx(3.5714, abs=1e-4)
    assert cw.w_neg == pytest.approx(0.5814, abs=1e-4)
    # each recession month counts as (1-r)/r repeats of a calm month
    r = cw.recession_ratio
    assert (1 - r) / r == pytest.approx(86.0 / 14.0)
    assert cw.w_pos / cw.w_neg == pytest.approx((1 - r) / r)
    # r*w_pos + (1-r)*w_neg = 1
    assert r * cw.w_pos + (1 - r) * cw.w_neg == pytest.approx(1.0, abs=1e-12)


def test_class_weights_single_class():
    with pytest.raises(SingleClass):
        ClassWeights.from_targets(np.ones(5))


# --- fit_mle ---------------------------------------------------------------------

def test_mle_intercept_only_matches_base_rate():
    y = np.array([1, 0, 0, 0, 1, 0, 0, 0, 0, 0], dtype=float)
    fit = fit_mle(LogitProblem(features=np.empty((10, 0)), targets=y))
    (p,) = predict_proba(fit.intercept_std, fit.coefs_std, np.empty((1, 0)))
    assert p == pytest.approx(0.2, abs=1e-9)
    assert fit.intercept_std == pytest.approx(np.log(0.8 / 0.2), abs=1e-8)


def test_mle_separation_on_two_point_toy():
    prob = LogitProblem(features=np.array([[0.0], [1.0]]), targets=np.array([0.0, 1.0]))
    with pytest.raises(Separation):
        fit_mle(prob)


def test_mle_singular_on_duplicated_feature():
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    X = np.column_stack([x, x])
    y = (rng.random(30) < 0.5).astype(float)
    with pytest.raises((Singular, Separation)):
        fit_mle(LogitProblem(features=X, targets=y))


def test_l1_on_the_duplicated_feature_design_falls_back_and_certifies():
    # the design of test_mle_singular_on_duplicated_feature: no Singular
    # escapes fit_l1, whether lambda penalizes anything or not
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    y = (rng.random(30) < 0.5).astype(float)
    prob = LogitProblem(features=np.column_stack([x, x]), targets=y)
    for lam in (0.0, 0.5):
        fit = fit_l1(PathStart(prob), lam)
        assert fit.converged and fit.kkt_residual <= logit.KKT_TOL


def test_singular_newton_system_raises_in_mle_and_falls_back_in_l1(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    def non_finite(a, b):
        return np.full(len(b), np.nan)

    proximal_steps = []
    proximal_step = logit._FusedObjective.proximal_step

    def counted(self, pt):
        proximal_steps.append(pt)
        return proximal_step(self, pt)

    prob = random_problem(np.random.default_rng(3), 40, 2)
    monkeypatch.setattr(logit._FusedObjective, "proximal_step", counted)
    for solve, message in (
        (singular, "^Hessian is singular; features may be collinear$"),
        (non_finite, "^Newton step is non-finite$"),
    ):
        monkeypatch.setattr(np.linalg, "solve", solve)
        proximal_steps.clear()
        with pytest.raises(Singular, match=message):
            fit_mle(prob)
        assert proximal_steps == []
        for lam in (0.0, 0.5):
            proximal_steps.clear()
            fit = fit_l1(PathStart(prob), lam)
            assert fit.converged and fit.kkt_residual <= logit.KKT_TOL
            assert len(proximal_steps) == fit.iterations > 0


def test_mle_whose_line_search_fails_is_not_converged_after_0_iterations(monkeypatch):
    prob = random_problem(np.random.default_rng(3), 40, 2)
    monkeypatch.setattr(logit._FusedObjective, "line_search", lambda self, *args: None)
    with pytest.raises(NotConverged, match="^MLE did not converge after 0 iterations; "):
        fit_mle(prob)


def test_line_search_gives_up_after_max_halvings_when_no_trial_descends():
    prob = random_problem(np.random.default_rng(3), 40, 2)
    objective = logit._FusedObjective(prob, 0.0)
    pt = objective.at(np.zeros(3))
    ascent = -100.0 * pt.grad  # beta - t * step climbs the gradient at every t > 0
    before = objective.evaluations
    assert objective.line_search(pt, [0, 1, 2], ascent, [0, 0, 0]) is None
    assert objective.evaluations - before == logit.MAX_HALVINGS


def test_mle_beats_random_probes():
    rng = np.random.default_rng(17)
    prob = random_problem(rng, 50, 2)
    fit = fit_mle(prob)
    best = fit.objective_value
    for _ in range(10_000):
        b0 = float(rng.normal(scale=2))
        b = rng.normal(scale=2, size=2)
        assert weighted_nll(prob, b0, b) >= best - 1e-9


def test_mle_single_class_error():
    with pytest.raises(SingleClass):
        fit_mle(LogitProblem(features=np.zeros((4, 1)), targets=np.ones(4)))


# --- fit_l1 ---------------------------------------------------------------------

def test_l1_null_model_at_high_lambda():
    rng = np.random.default_rng(19)
    prob_raw = random_problem(rng, 80, 4)
    st = Standardizer.fit(prob_raw.features)
    Z = st.transform(prob_raw.features)
    bound = null_model_lambda_bound(LogitProblem(features=Z, targets=prob_raw.targets))
    prob = LogitProblem(features=Z, targets=prob_raw.targets)
    fit = fit_l1(PathStart(prob), bound * 1.01)
    assert np.all(fit.coefs_std == 0.0)
    p_bar = prob_raw.targets.mean()
    assert fit.intercept_std == pytest.approx(np.log((1 - p_bar) / p_bar), abs=1e-7)
    assert fit.converged and fit.kkt_residual <= 1e-7


def test_null_model_bound_matches_intercept_only_closed_form():
    rng = np.random.default_rng(29)
    for weighted in (False, True):
        for _ in range(5):
            raw = random_problem(rng, 80, 4, weighted=weighted)
            prob = LogitProblem(
                features=Standardizer.fit(raw.features).transform(raw.features),
                targets=raw.targets,
                weights=raw.weights,
            )
            closed_form = intercept_only_lambda_bound(prob.features, prob.targets, prob.weights)
            assert null_model_lambda_bound(prob) == pytest.approx(closed_form, rel=1e-12)


def test_l1_at_zero_matches_mle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        raw = random_problem(rng, 60, 3, weighted=True)
        st = Standardizer.fit(raw.features)
        prob = LogitProblem(
            features=st.transform(raw.features), targets=raw.targets, weights=raw.weights
        )
        f_l1 = fit_l1(PathStart(prob), 0.0)
        f_mle = fit_mle(prob)
        assert abs(f_l1.intercept_std - f_mle.intercept_std) <= 1e-6
        assert np.max(np.abs(f_l1.coefs_std - f_mle.coefs_std)) <= 1e-6


def test_l1_kkt_certificate_randomized():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(20, 80))
        p = int(rng.integers(1, 7))
        raw = random_problem(rng, n, p, weighted=bool(rng.integers(2)))
        st = Standardizer.fit(raw.features)
        mask = rng.random(p) < 0.8
        if not mask.any():
            mask[0] = True
        lam = float(rng.uniform(0.01, 10.0))
        prob = LogitProblem(
            features=st.transform(raw.features),
            targets=raw.targets,
            weights=raw.weights,
            penalty_mask=mask,
        )
        fit = fit_l1(PathStart(prob), lam)
        assert fit.converged
        assert kkt_residual(prob, lam, fit.intercept_std, fit.coefs_std) <= 1e-7
        # exact zeros, not small values
        small = np.abs(fit.coefs_std[mask]) < 1e-10
        assert np.all(fit.coefs_std[mask][small] == 0.0)


def test_fit_objective_matches_reference_likelihood():
    rng = np.random.default_rng(43)
    raw = random_problem(rng, 80, 4, weighted=True)
    Z = Standardizer.fit(raw.features).transform(raw.features)
    prob = LogitProblem(features=Z, targets=raw.targets, weights=raw.weights)
    fit = fit_l1(PathStart(prob), 0.8)
    reference = weighted_nll(prob, fit.intercept_std, fit.coefs_std) + 0.8 * np.abs(
        fit.coefs_std
    ).sum()
    assert fit.objective_value == pytest.approx(reference, rel=1e-12)
    mle = fit_mle(LogitProblem(features=Z, targets=raw.targets, weights=raw.weights))
    assert mle.objective_value == pytest.approx(
        weighted_nll(prob, mle.intercept_std, mle.coefs_std), rel=1e-12
    )


def test_l1_monotone_descent_without_polish(monkeypatch):
    # trace the objective across iteration caps on a small unweighted problem
    rng = np.random.default_rng(31)
    raw = random_problem(rng, 50, 3)
    st = Standardizer.fit(raw.features)
    Z = st.transform(raw.features)
    prob, lam = LogitProblem(features=Z, targets=raw.targets), 1.0

    values = []
    for cap in range(1, 60):
        monkeypatch.setattr(logit, "MAX_ITER_L1", cap)
        fit = fit_l1(PathStart(prob), lam)
        values.append(
            weighted_nll(prob, fit.intercept_std, fit.coefs_std)
            + lam * np.abs(fit.coefs_std[prob.penalty_mask]).sum()
        )
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def test_l1_monotone_descent_with_polish(monkeypatch):
    rng = np.random.default_rng(37)
    raw = random_problem(rng, 60, 4)
    st = Standardizer.fit(raw.features)
    prob, lam = LogitProblem(features=st.transform(raw.features), targets=raw.targets), 0.7
    values = []
    for cap in range(1, 60):
        monkeypatch.setattr(logit, "MAX_ITER_L1", cap)
        fit = fit_l1(PathStart(prob), lam)
        values.append(
            weighted_nll(prob, fit.intercept_std, fit.coefs_std)
            + lam * np.abs(fit.coefs_std[prob.penalty_mask]).sum()
        )
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def test_l1_unpenalized_features_kept_free():
    rng = np.random.default_rng(41)
    raw = random_problem(rng, 100, 3)
    st = Standardizer.fit(raw.features)
    Z = st.transform(raw.features)
    mask = np.array([True, True, False])
    prob = LogitProblem(features=Z, targets=raw.targets, penalty_mask=mask)
    fit = fit_l1(PathStart(prob), 50.0)
    assert fit.coefs_std[0] == 0.0 and fit.coefs_std[1] == 0.0
    # the exempt feature keeps a gradient-zero (not shrunk-to-zero) value
    g0, g = nll_gradient(prob, fit.intercept_std, fit.coefs_std)
    assert abs(g[2]) <= 1e-7


# --- fit_l1 properties ---------------------------------------------------------------

def overlapping_problem(seed, n, p, rho, weighted, free_share=0.0, flip_weight=0.5):
    """Correlated random rows, each present once with its label and once,
    weighted by ``flip_weight``, with the other: no hyperplane separates the
    classes, so every optimum is finite. A small ``flip_weight`` gives steep
    logits, where full Newton steps from a cold start overshoot."""
    rng = np.random.default_rng(seed)
    common = rng.normal(size=(n, 1))
    X = np.sqrt(1.0 - rho) * rng.normal(size=(n, p)) + np.sqrt(rho) * common
    z = X @ rng.normal(scale=2.0, size=p) + rng.normal(scale=0.5)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(z))).astype(float)
    w = rng.uniform(0.5, 2.0, size=n) if weighted else np.ones(n)
    mask = rng.random(p) >= free_share
    mask[0] = True
    return LogitProblem(
        features=np.vstack([X, X]),
        targets=np.concatenate([y, 1.0 - y]),
        weights=np.concatenate([w, flip_weight * w]),
        penalty_mask=mask,
    )


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
rows = st.integers(10, 60)
widths = st.integers(1, 8)
correlations = st.floats(0.0, 0.95)
lambdas = st.floats(1e-3, 20.0)


@PROPERTY
@given(
    seeds,
    st.integers(10, 30),
    st.integers(2, 8),
    correlations,
    st.booleans(),
    st.floats(1e-3, 0.1),
    st.floats(1e-5, 1e-2),
)
def test_l1_objective_never_rises_with_more_iterations(seed, n, p, rho, weighted, lam, flip):
    # steep, nearly separable problems: about one in six has a full Newton
    # step that raises J, so the line search must act
    prob = overlapping_problem(seed, n, p, rho, weighted, 0.3, flip_weight=flip)
    values = []
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body: no fixture
        for cap in range(25):
            mp.setattr(logit, "MAX_ITER_L1", cap)
            values.append(fit_l1(PathStart(prob), lam).objective_value)
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    final = fit_l1(PathStart(prob), lam)
    assert final.objective_value <= values[-1] + 1e-12 * max(1.0, abs(values[-1]))


@PROPERTY
@given(
    seeds, rows, widths, correlations, st.booleans(), lambdas, st.floats(0.0, 0.6),
    st.floats(1e-3, 1.0),
)
def test_l1_certificate_and_exact_zeros(seed, n, p, rho, weighted, lam, free_share, flip):
    prob = overlapping_problem(seed, n, p, rho, weighted, free_share, flip)
    fit = fit_l1(PathStart(prob), lam)
    assert fit.converged
    reference = kkt_residual(prob, lam, fit.intercept_std, fit.coefs_std)
    assert reference <= 1e-7
    assert abs(fit.kkt_residual - reference) <= 1e-9
    mask = prob.penalty_mask
    small = np.abs(fit.coefs_std[mask]) < 1e-10
    assert np.all(fit.coefs_std[mask][small] == 0.0)


@PROPERTY
@given(seeds, rows, widths, correlations, st.booleans())
def test_l1_at_zero_lambda_is_the_mle(seed, n, p, rho, weighted):
    prob = overlapping_problem(seed, n, p, rho, weighted, free_share=0.3)
    f_l1, f_mle = fit_l1(PathStart(prob), 0.0), fit_mle(prob)
    assert f_l1.converged and f_mle.converged
    assert abs(f_l1.intercept_std - f_mle.intercept_std) <= 1e-6
    assert np.max(np.abs(f_l1.coefs_std - f_mle.coefs_std)) <= 1e-6


def test_weighted_nll_matches_the_solver_objective_on_a_steep_fit():
    # a nearly separable problem on which a reference that clamped p and
    # summed log1p(-p) was off by 9e-9
    prob = overlapping_problem(0, 22, 8, 0.0, False, 0.3, flip_weight=0.0078)
    fit = fit_l1(PathStart(prob), 0.031)
    assert fit.converged
    penalty = 0.031 * np.abs(fit.coefs_std[prob.penalty_mask]).sum()
    reference = weighted_nll(prob, fit.intercept_std, fit.coefs_std) + penalty
    assert abs(fit.objective_value - reference) <= 1e-9


def test_fits_count_their_evaluations(monkeypatch):
    rng = np.random.default_rng(47)
    prob = random_problem(rng, 60, 3)
    l1, mle = fit_l1(PathStart(prob), 0.5), fit_mle(prob)
    # every iteration accepts one evaluation; the cold start adds one more
    assert l1.evaluations >= l1.iterations + 1
    assert mle.evaluations >= mle.iterations + 1
    monkeypatch.setattr(logit, "MAX_ITER_L1", 0)
    assert fit_l1(PathStart(prob), 0.5).evaluations == 1


def test_fit_l1_rejects_a_negative_lambda():
    rng = np.random.default_rng(53)
    prob = random_problem(rng, 30, 2, weighted=True)
    with pytest.raises(ValueError, match="non-negative"):
        fit_l1(PathStart(prob), -1.0)


def test_l1_numerically_singular_newton_system_falls_back_quickly():
    # 12 distinct rows for 10 parameters, nearly separable: the active-set
    # Hessian becomes singular to rounding and 17 Newton steps give no descent
    # direction, so the proximal fallback carries the fit. Its step length
    # adapts; at a constant 1/L it took 5,318 iterations, and proximal
    # gradient with a Newton polish took 270.
    lam = 0.0019808514343538767
    prob = overlapping_problem(
        2235105666, 12, 9, 0.727324043682471, False, 0.3656495314739199, 1.6261225853290896e-05,
    )
    fit = fit_l1(PathStart(prob), lam)
    assert fit.converged and fit.iterations <= 100
    assert kkt_residual(prob, lam, fit.intercept_std, fit.coefs_std) <= 1e-7


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_point_pricing_matches_the_array_oracle(data):
    # zero coefficients of either sign, gradients on the kink |g_j| = lambda,
    # lambda = 0 and unpenalized entries; -0.0 and 0.0 count as equal
    p = data.draw(st.integers(1, 9))
    lam = data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 4.0))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    special = st.sampled_from([0.0, -0.0, lam, -lam])
    entries = st.lists(special | st.floats(-8.0, 8.0), min_size=p + 1, max_size=p + 1)
    beta, g = (np.array(data.draw(entries)) for _ in range(2))
    nll = data.draw(st.floats(0.0, 100.0))
    prob = LogitProblem(np.arange(2.0 * p).reshape(2, p), np.array([0.0, 1.0]), penalty_mask=mask)
    start = logit.PathStart(prob)
    pt = logit._FusedObjective(prob, lam)._priced(beta, np.zeros(2), nll, g)
    expected = array_pseudo_gradient(g, beta, prob.pen, lam)
    assert pt.pseudo_grad == expected.tolist()
    assert pt.kkt == float(np.abs(expected).max())
    assert pt.objective == nll + lam * float(np.abs(beta[prob.pen]).sum())
    assert start._signs_of(beta.tolist()) == tuple((np.sign(beta[prob.pen]) + 0.0).tolist())


def test_path_start_predicts_only_from_three_optima_of_one_sign_pattern(monkeypatch):
    rng = np.random.default_rng(59)
    prob = random_problem(rng, 200, 4)
    lams = 2.0 ** (np.arange(-60, -56) / 10.0)  # small: every coefficient survives
    carry = logit.PathStart(prob)
    fits = []
    for lam in lams[:3]:
        assert carry._predicted(lam) is None  # fewer than three optima
        fits.append(fit_l1(carry, lam))
    b3, b2, b1 = (np.r_[f.intercept_std, f.coefs_std] for f in fits)
    assert np.all(b1[1:] != 0.0)
    # quadratic in log lambda, which is 3 b1 - 3 b2 + b3 on an even grid
    assert np.allclose(carry._predicted(lams[3]), 3 * b1 - 3 * b2 + b3, rtol=0, atol=1e-12)

    # an optimum with another sign pattern stops the prediction
    lam, beta, _ = carry.optima[0]
    flipped = beta.copy()
    flipped[1] = 0.0
    carry.optima[0] = (lam, flipped, carry._signs_of(flipped))
    assert carry._predicted(lams[3]) is None

    # so does a fit that misses its certificate: it forgets the optima
    monkeypatch.setattr(logit, "MAX_ITER_L1", 0)
    assert not fit_l1(carry, 10.0).converged
    assert carry.optima == [] and carry._predicted(lams[3]) is None
