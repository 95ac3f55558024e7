"""Lambda grid, path sweep, and pair selection."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from termspread import logit, selection
from termspread.data import align_dataset, split_views
from termspread.errors import CountNeverAttained, NotConverged
from termspread.logit import (
    LogitProblem,
    Standardizer,
    fit_mle,
    kkt_residual,
)
from termspread.selection import LambdaGrid, select_pair, sweep_path


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
    grid = LambdaGrid(k_start=-100, k_end=60)
    vals = grid.values
    assert np.all(np.diff(vals) > 0)
    ratio = vals[10:] / vals[:-10]
    assert np.max(np.abs(ratio - 2.0)) <= 2.0 * 1e-12
    assert grid.lambda_at(-15) == pytest.approx(0.35355339, abs=1e-8)


def test_grid_covering_reaches_past_bound():
    grid = LambdaGrid.covering(5.0)
    assert grid.values[-1] > 5.0
    assert grid.values[-2] <= 5.0 * 2 ** (1 / 10)


# --- sweep ----------------------------------------------------------------------

def test_sweep_smallest_lambda_close_to_mle():
    X, y = make_instance(seed=1)
    path = sweep_path(X, y, grid=LambdaGrid(k_start=-100, k_end=-100))
    st = Standardizer.fit(X)
    mle = fit_mle(LogitProblem(features=st.transform(X), targets=y), st)
    assert np.max(np.abs(path.fits[0].coefs_std - mle.coefs_std)) <= 1e-4


def test_sweep_ends_at_null_model():
    X, y = make_instance(seed=2)
    path = sweep_path(X, y)
    assert path.nonzero_counts[-1] == 0
    assert np.all(path.fits[-1].coefs_std == 0.0)


def test_sweep_every_fit_certified():
    X, y = make_instance(seed=3)
    path = sweep_path(X, y)
    for lam, fit in zip(path.lambdas, path.fits):
        prob = path.problem.at_lambda(lam)
        assert kkt_residual(prob, fit.intercept_std, fit.coefs_std) <= 1e-7


def test_sweep_deterministic():
    X, y = make_instance(seed=4)
    a = sweep_path(X, y)
    b = sweep_path(X, y)
    assert np.array_equal(a.coef_matrix, b.coef_matrix)
    assert np.array_equal(a.nonzero_counts, b.nonzero_counts)


def test_sweep_not_converged_names_lambda_k_iterations_and_kkt(monkeypatch):
    X, y = make_instance(seed=3)
    monkeypatch.setattr(selection, "fit_l1", functools.partial(logit.fit_l1, max_iter=2))
    with pytest.raises(NotConverged) as info:
        sweep_path(X, y)
    msg = str(info.value)
    assert "lambda=0.000976562 (k=-100)" in msg
    assert "after 2 iterations" in msg and "last KKT residual" in msg


def test_solver_work_on_the_reference_market_is_pinned(market, split95):
    # h=12 on make_market(42): the proximal-gradient solver this replaced
    # needed about 3,400 iterations over the grid
    panel, recessions = market
    codes = tuple(m.code for m in panel.maturities)
    ds = align_dataset(panel, recessions, 12, split95, codes)
    train, _ = split_views(ds)
    path = sweep_path(train.features, train.targets, feature_names=codes)
    assert all(f.converged for f in path.fits)
    assert sum(f.iterations for f in path.fits) <= 1000


def test_sweep_shape_and_names():
    X, y = make_instance(seed=5, p=3)
    path = sweep_path(X, y, feature_names=["10y", "3m", "5y"])
    assert path.coef_matrix.shape == (len(path.lambdas), 3)
    assert path.k_values.shape == path.nonzero_counts.shape == (len(path.fits),)
    assert path.problem.feature_names == ("10y", "3m", "5y")


# --- selection -------------------------------------------------------------------

def test_select_first_hit_rule():
    X, y = make_instance(seed=6, p=4)
    names = ["10y", "3m", "5y", "1y"]
    path = sweep_path(X, y, feature_names=names)
    target = 2
    hits = np.flatnonzero(path.nonzero_counts == target)
    assert hits.size > 0, "instance must pass through a two-feature support"
    first = hits[0]
    # no skip before the first hit for this instance
    assert np.all(path.nonzero_counts[:first] > target)
    sel = select_pair(path, target)
    assert sel.lambda_selected == pytest.approx(path.lambdas[first])
    assert sel.pair is not None
    assert sel.coefs_orig[0] > 0 > sel.coefs_orig[1]


def test_select_pair_orders_positive_coefficient_first():
    X, y = make_instance(seed=7, p=4)
    path = sweep_path(X, y, feature_names=["3m", "10y", "5y", "1y"])
    sel = select_pair(path)
    long, short = sel.pair
    cols = list(sel.feature_names)
    assert sel.fit.coefs_orig[cols.index(long.code)] > 0
    assert sel.fit.coefs_orig[cols.index(short.code)] < 0


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
        sel = select_pair(path, 2)
    except CountNeverAttained:
        return
    assert int((np.abs(sel.fit.coefs_std) > 1e-10).sum()) == 2
    prob = path.problem.at_lambda(sel.lambda_selected)
    assert kkt_residual(prob, sel.fit.intercept_std, sel.fit.coefs_std) <= 1e-7


def test_select_single_point_grid_cannot_attain():
    X, y = make_instance(seed=9)
    path = sweep_path(X, y, grid=LambdaGrid(k_start=60, k_end=60))
    assert path.nonzero_counts.tolist() == [0]
    with pytest.raises(CountNeverAttained):
        select_pair(path, 2)


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

    sel = select_pair(path, 2)
    assert sel.k_selected != int(sel.k_selected)  # fractional refinement
    assert path.lambdas[skip_at - 1] < sel.lambda_selected < path.lambdas[skip_at]
    assert sel.pair is not None
    assert int((np.abs(sel.fit.coefs_std) > 1e-10).sum()) == 2

    # oracle: a cold-started fit at the refined lambda shows the same support
    from termspread.logit import fit_l1

    cold = fit_l1(path.problem.at_lambda(sel.lambda_selected), path.problem.standardizer)
    assert cold.converged
    assert np.array_equal(
        np.abs(cold.coefs_std) > 1e-10, np.abs(sel.fit.coefs_std) > 1e-10
    )


def test_bisection_not_converged_names_fractional_k(monkeypatch):
    rng = np.random.default_rng(1013)
    X = rng.normal(size=(150, 3)) + 4.0
    y = logistic_draw(rng, X, np.array([0.7, -0.65, 0.6]))
    path = sweep_path(X, y, feature_names=["10y", "3m", "5y"])
    monkeypatch.setattr(selection, "fit_l1", functools.partial(logit.fit_l1, max_iter=0))
    with pytest.raises(NotConverged, match=r"\(k=-?\d+\.5\) after 0 iterations"):
        select_pair(path, 2)
