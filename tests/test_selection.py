"""Lambda grid, path sweep, and pair selection."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from termspread import logit, selection
from termspread.data import align_dataset
from termspread.errors import CountNeverAttained, NotConverged
from termspread.logit import (
    ClassWeights,
    LogitProblem,
    Standardizer,
    destandardize,
    fit_mle,
    kkt_residual,
    null_model_lambda_bound,
)
from termspread.selection import K_START, lambda_at, select_pair, sweep_path

from conftest import MATURITY_CODES
from test_golden import ITERATE_ABS_TOL

NAMES = ("10y", "3m", "5y", "1y")


def logistic_draw(rng, X, beta, intercept=0.0):
    z = X @ beta + intercept
    y = (rng.random(len(X)) < 1.0 / (1.0 + np.exp(z))).astype(float)
    if y.min() == y.max():
        y[0], y[1] = 0.0, 1.0
    return y


def make_instance(seed=0, n=200, p=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) + 3.0
    beta = np.zeros(p)
    beta[0], beta[-1] = 1.0, -0.8
    y = logistic_draw(rng, X, beta)
    return X, y


# --- grid ----------------------------------------------------------------------

def test_grid_values_increase_and_double_every_ten():
    X, y = make_instance(seed=0)
    path = sweep_path(X, y, NAMES)
    vals = path.lambdas
    assert path.k_values[0] == K_START and np.all(np.diff(path.k_values) == 1)
    assert np.all(np.diff(vals) > 0)
    ratio = vals[10:] / vals[:-10]
    assert np.max(np.abs(ratio - 2.0)) <= 2.0 * 1e-12
    assert lambda_at(-15) == pytest.approx(0.35355339, abs=1e-8)
    assert [lambda_at(k) for k in path.k_values[:25]] == pytest.approx(vals[:25], rel=1e-15)


def test_grid_covering_reaches_past_bound():
    X, y = make_instance(seed=0)
    path = sweep_path(X, y, NAMES)
    st = Standardizer.fit(X)
    bound = null_model_lambda_bound(LogitProblem(features=st.transform(X), targets=y))
    assert path.lambdas[-1] > bound
    assert path.lambdas[-2] <= bound * 2 ** (1 / 10)


# --- sweep ----------------------------------------------------------------------

def test_sweep_smallest_lambda_close_to_mle():
    X, y = make_instance(seed=1)
    path = sweep_path(X, y, NAMES)
    assert path.k_values[0] == -100
    st = Standardizer.fit(X)
    mle = fit_mle(LogitProblem(features=st.transform(X), targets=y))
    assert np.max(np.abs(path.fits[0].coefs_std - mle.coefs_std)) <= 1e-4


def test_sweep_ends_at_null_model():
    X, y = make_instance(seed=2)
    path = sweep_path(X, y, NAMES)
    assert path.nonzero_counts[-1] == 0
    assert np.all(path.fits[-1].coefs_std == 0.0)


def test_sweep_every_fit_certified():
    X, y = make_instance(seed=3)
    path = sweep_path(X, y, NAMES)
    for lam, fit in zip(path.lambdas, path.fits):
        assert kkt_residual(path.problem, lam, fit.intercept_std, fit.coefs_std) <= 1e-7


def test_sweep_deterministic():
    X, y = make_instance(seed=4)
    a = sweep_path(X, y, NAMES)
    b = sweep_path(X, y, NAMES)
    assert np.array_equal(a.coef_matrix, b.coef_matrix)
    assert np.array_equal(a.nonzero_counts, b.nonzero_counts)


def test_sweep_not_converged_names_lambda_k_iterations_and_kkt(monkeypatch):
    X, y = make_instance(seed=3)
    monkeypatch.setattr(logit, "MAX_ITER_L1", 2)
    with pytest.raises(NotConverged) as info:
        sweep_path(X, y, NAMES)
    msg = str(info.value)
    assert "lambda=0.000976562 (k=-100)" in msg
    assert "after 2 iterations" in msg and "last KKT residual" in msg


def test_fit_that_cannot_step_is_returned_uncertified_and_the_sweep_names_it(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 3))
    y = np.tile([0.0, 1.0], 30)  # balanced: the null model's MLE starts certified
    monkeypatch.setattr(logit._FusedObjective, "newton_step", lambda self, pt: None)
    monkeypatch.setattr(logit._FusedObjective, "proximal_step", lambda self, pt: None)
    fit = logit.fit_l1(logit.PathStart(LogitProblem(X, y)), 0.5)
    assert fit.converged is False
    assert fit.kkt_residual > logit.KKT_TOL and fit.iterations == 0
    with pytest.raises(NotConverged, match=r"lambda=0.000976562 \(k=-100\) after 0 iterations"):
        sweep_path(X, y, NAMES[:3])


def test_sweep_without_a_maturity_column_is_one_point_at_k_start():
    X, y = make_instance(seed=5)
    path = sweep_path(X[:, :1], y, ["lead_idx"])
    assert null_model_lambda_bound(path.problem) == 0.0
    assert path.k_values.tolist() == [K_START]
    assert path.lambdas.tolist() == [lambda_at(K_START)]
    assert len(path.fits) == 1 and path.fits[0].converged
    assert path.nonzero_counts.tolist() == [0]


def test_solver_work_on_the_reference_market_is_pinned(market, split95):
    # h=12 on make_market(42): the proximal-gradient solver this replaced
    # needed about 3,400 iterations over the grid
    panel, recessions = market
    ds = align_dataset(panel, recessions, 12, split95, MATURITY_CODES)
    k = ds.split_index
    path = sweep_path(ds.features[:k], ds.targets[:k], MATURITY_CODES)
    assert all(f.converged for f in path.fits)
    assert sum(f.iterations for f in path.fits) <= 1000


def test_sweep_evaluations_on_the_reference_market(market, split95):
    # all eight horizons of make_market(42), unweighted and with class weights
    # and the penalty-exempt lead_idx: re-evaluating each warm start and
    # halving past clipped coefficients took 4,449 evaluations unweighted;
    # starting every fit from the carried optimum took 2,749 iterations and
    # 2,827 evaluations; the bounds are the counts of the predicted starts
    panel, recessions = market
    runs = [  # controls, class weights, fits, most iterations, most evaluations
        ((), False, 1129, 1765, 2689),
        (("lead_idx",), True, 1198, 1720, 2737),
    ]
    for controls, weighted, n_fits, max_iterations, max_evaluations in runs:
        names = MATURITY_CODES + controls
        fits = []
        for h in (3, 6, 9, 12, 15, 18, 21, 24):
            ds = align_dataset(panel, recessions, h, split95, names)
            X_train, y_train = ds.features[: ds.split_index], ds.targets[: ds.split_index]
            weights = None
            if weighted:
                weights = ClassWeights.from_targets(y_train).per_row(y_train)
            fits += sweep_path(X_train, y_train, names, weights=weights).fits
        assert len(fits) == n_fits
        iterations = sum(f.iterations for f in fits)
        evaluations = sum(f.evaluations for f in fits)
        assert iterations <= max_iterations
        assert iterations <= evaluations <= max_evaluations
        # a fit that makes no step spends no evaluation on its carried start
        assert all(f.iterations >= 1 or f.evaluations == 0 for f in fits)


def test_carried_start_matches_a_warm_start_from_the_previous_fit():
    # the first two carried fits have no three optima to extrapolate from, so
    # they start exactly where a warm start does; a later fit may start at the
    # predicted point and stop elsewhere inside the certificate
    X, y = make_instance(seed=6)
    path = sweep_path(X, y, NAMES)
    mask = path.problem.penalty_mask
    predicted = 0
    for i, (lam, prev, fit) in enumerate(zip(path.lambdas[1:], path.fits, path.fits[1:])):
        warm = logit.fit_l1(logit.PathStart(path.problem, prev), lam)
        if i < 2:
            assert np.array_equal(warm.coefs_std, fit.coefs_std)
            assert warm.intercept_std == fit.intercept_std
            assert warm.iterations == fit.iterations
            assert warm.evaluations == fit.evaluations + 1  # its start is evaluated
            continue
        assert fit.converged
        assert np.array_equal(selection._support(fit, mask), selection._support(warm, mask))
        assert np.max(np.abs(fit.coefs_std - warm.coefs_std)) <= ITERATE_ABS_TOL
        assert abs(fit.intercept_std - warm.intercept_std) <= ITERATE_ABS_TOL
        predicted += not np.array_equal(warm.coefs_std, fit.coefs_std)
    assert predicted > 0  # the predictor was used


def test_sweep_shape_and_names():
    X, y = make_instance(seed=5, p=3)
    path = sweep_path(X, y, feature_names=["10y", "3m", "5y"])
    assert path.coef_matrix.shape == (len(path.lambdas), 3)
    assert path.k_values.shape == path.nonzero_counts.shape == (len(path.fits),)
    assert path.feature_names == ("10y", "3m", "5y")
    # the matrix is each fit mapped to the original scale, bit for bit
    for row, fit in zip(path.coef_matrix, path.fits):
        expected = destandardize(fit.intercept_std, fit.coefs_std, path.standardizer)[1]
        assert np.array_equal(row, expected)
    with pytest.raises(ValueError, match="feature_names"):
        sweep_path(X, y, feature_names=["10y", "3m"])


def test_sweep_penalizes_exactly_the_columns_named_by_maturity_codes():
    X, y = make_instance(seed=0)
    # an unpenalized column (a forced control) may carry any name
    path = sweep_path(X, y, ["10y", "3m", "5y", "lead_idx"])
    assert path.feature_names[-1] == "lead_idx"
    assert path.problem.penalty_mask.tolist() == [True, True, True, False]


# --- selection -------------------------------------------------------------------

def test_select_first_hit_rule():
    X, y = make_instance(seed=6, p=4)
    names = ["10y", "3m", "5y", "1y"]
    path = sweep_path(X, y, feature_names=names)
    hits = np.flatnonzero(path.nonzero_counts == 2)
    assert hits.size > 0, "instance must pass through a two-feature support"
    first = hits[0]
    # no skip before the first hit for this instance
    assert np.all(path.nonzero_counts[:first] > 2)
    sel = select_pair(path)
    assert sel.lambda_selected == pytest.approx(path.lambdas[first])
    assert sel.fit is path.fits[first]
    long, short = (names.index(m) for m in sel.pair)
    coefs = destandardize(sel.fit.intercept_std, sel.fit.coefs_std, path.standardizer)[1]
    assert coefs[long] > 0 > coefs[short]


def test_select_pair_orders_positive_coefficient_first():
    X, y = make_instance(seed=7, p=4)
    path = sweep_path(X, y, feature_names=["3m", "10y", "5y", "1y"])
    sel = select_pair(path)
    long, short = sel.pair
    cols = list(path.feature_names)
    coefs = destandardize(sel.fit.intercept_std, sel.fit.coefs_std, path.standardizer)[1]
    assert coefs[cols.index(long)] > 0
    assert coefs[cols.index(short)] < 0


def test_duplicate_columns_jump_over_two():
    # two identical columns stay exactly tied under symmetric warm starts, so
    # with a dominant third feature they leave the support together and the
    # integer grid jumps 3 -> 1; the optimum is non-unique there, so the
    # refinement may either fail or break the tie into a certified 2-support
    rng = np.random.default_rng(8)
    n = 300
    base = rng.normal(size=n) + 4.0
    other = rng.normal(size=n) + 4.0
    X = np.column_stack([base, base, other])
    y = logistic_draw(rng, X, np.array([0.3, 0.3, -1.4]))
    path = sweep_path(X, y, feature_names=["10y", "20y", "3m"])
    assert 2 not in set(path.nonzero_counts.tolist())
    try:
        sel = select_pair(path)
    except CountNeverAttained:
        return
    assert int((np.abs(sel.fit.coefs_std) > 1e-10).sum()) == 2
    lam, fit = sel.lambda_selected, sel.fit
    assert kkt_residual(path.problem, lam, fit.intercept_std, fit.coefs_std) <= 1e-7


def test_select_one_feature_path_cannot_attain():
    X, y = make_instance(seed=9)
    path = sweep_path(X[:, :1], y, feature_names=["10y"])
    assert path.nonzero_counts[0] == 1 and path.nonzero_counts[-1] == 0
    with pytest.raises(CountNeverAttained, match="counts ranged 0..1"):
        select_pair(path)


def test_bisection_finds_fractional_k_when_grid_skips():
    # frozen instance whose integer grid jumps 3 -> 1 over the two-feature
    # support (three independent features of comparable strength)
    rng = np.random.default_rng(1013)
    n = 150
    X = rng.normal(size=(n, 3)) + 4.0
    y = logistic_draw(rng, X, np.array([0.7, -0.65, 0.6]))
    path = sweep_path(X, y, feature_names=["10y", "3m", "5y"])

    counts = path.nonzero_counts
    skip_at = None
    for i in range(1, len(counts)):
        assert counts[i] != 2, "grid must skip the two-feature support"
        if counts[i - 1] > 2 > counts[i]:
            skip_at = i
            break
    assert skip_at is not None

    sel = select_pair(path)
    assert sel.k_selected != int(sel.k_selected)  # fractional refinement
    assert path.lambdas[skip_at - 1] < sel.lambda_selected < path.lambdas[skip_at]
    assert int((np.abs(sel.fit.coefs_std) > 1e-10).sum()) == 2

    # oracle: a cold-started fit at the refined lambda shows the same support
    from termspread.logit import PathStart, fit_l1

    cold = fit_l1(PathStart(path.problem), sel.lambda_selected)
    assert cold.converged
    assert np.array_equal(
        np.abs(cold.coefs_std) > 1e-10, np.abs(sel.fit.coefs_std) > 1e-10
    )


def test_bisection_that_never_attains_two_names_the_counts_at_both_ends(monkeypatch):
    rng = np.random.default_rng(1013)
    X = rng.normal(size=(150, 3)) + 4.0
    y = logistic_draw(rng, X, np.array([0.7, -0.65, 0.6]))
    path = sweep_path(X, y, feature_names=["10y", "3m", "5y"])

    def never_two(*args, **kwargs):
        fit = logit.fit_l1(*args, **kwargs)
        if (np.abs(fit.coefs_std) > 1e-10).sum() == 2:
            return replace(fit, coefs_std=np.zeros_like(fit.coefs_std))
        return fit

    monkeypatch.setattr(selection, "fit_l1", never_two)
    with pytest.raises(CountNeverAttained) as info:
        select_pair(path)
    msg = str(info.value)
    m = re.search(r"(\d+) survive at k=(\S+) and (\d+) at k=(\S+)$", msg)
    assert m is not None, msg
    count_lo, k_lo, count_hi, k_hi = int(m[1]), float(m[2]), int(m[3]), float(m[4])
    assert count_lo > 2 > count_hi
    assert 0.0 < k_hi - k_lo < 1e-6
    assert msg.startswith("bisection between k=")


def test_bisection_not_converged_names_fractional_k(monkeypatch):
    rng = np.random.default_rng(1013)
    X = rng.normal(size=(150, 3)) + 4.0
    y = logistic_draw(rng, X, np.array([0.7, -0.65, 0.6]))
    path = sweep_path(X, y, feature_names=["10y", "3m", "5y"])
    monkeypatch.setattr(logit, "MAX_ITER_L1", 0)
    with pytest.raises(NotConverged, match=r"\(k=-?\d+\.5\) after 0 iterations"):
        select_pair(path)
