"""Nested specifications: design columns, fitting, forecasting."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from termspread.data import (
    AlignedDataset,
    Month,
    RecessionSeries,
    SplitConfig,
    YieldPanel,
    align_dataset,
)
from termspread.errors import MissingSeries
from termspread.logit import ClassWeights, Standardizer, destandardize, predict_proba
from termspread.models import (
    CONVENTIONAL_PAIR,
    FittedModel,
    ModelSpec,
    _aligned_columns,
    fit_spec,
    fitted_model_from_selection,
    forecast_series,
)
from termspread.selection import select_pair, sweep_path

ALL = ("3m", "6m", "1y", "2y", "3y", "5y", "7y", "10y", "20y")


def tiny_panel(values: dict[str, list[float]]) -> YieldPanel:
    n = len(next(iter(values.values())))
    return YieldPanel(dates=tuple(Month(2000, 1) + i for i in range(n)), columns=values)


def tiny_dataset(values: dict[str, list[float]]) -> AlignedDataset:
    """A dataset carrying the given columns, one training row, the rest test."""
    n = len(next(iter(values.values())))
    return AlignedDataset(
        predictor_dates=tuple(Month(2000, 1) + i for i in range(n)),
        features=np.column_stack([np.asarray(v, float) for v in values.values()]),
        targets=np.arange(n) % 2.0,
        split_index=1,
        feature_names=tuple(values),
    )


# --- specs and design columns -----------------------------------------------------

def test_conventional_kinds_pin_the_pair():
    assert CONVENTIONAL_PAIR == ("10y", "3m")
    spec = ModelSpec(CONVENTIONAL_PAIR, simple=True)
    assert spec.yield_feature_names == ("10y-3m",)
    gen = ModelSpec(CONVENTIONAL_PAIR, simple=False)
    assert gen.yield_feature_names == ("10y", "3m")
    assert ModelSpec(("7y", "3m"), simple=False).yield_feature_names == ("7y", "3m")


def test_build_features_simple_difference():
    ds = tiny_dataset({"3m": [4.5, 4.0], "10y": [6.0, 5.0]})
    m = _aligned_columns(ds, ModelSpec(CONVENTIONAL_PAIR, simple=True))
    assert m.tolist() == [[1.5], [1.0]]


def test_build_features_generalized_projection():
    ds = tiny_dataset({"3m": [4.1, 4.0], "5y": [4.9, 4.8], "7y": [5.2, 5.0]})
    spec = ModelSpec(("7y", "3m"), simple=False)
    m = _aligned_columns(ds, spec)
    assert m.tolist() == [[5.2, 4.1], [5.0, 4.0]]


def test_build_features_appends_penalty_exempt_control():
    # the control comes last whatever the dataset's column order
    ds = tiny_dataset({"lead_idx": [1.25, -0.5], "3m": [4.5, 4.6], "10y": [6.0, 5.9]})
    spec = ModelSpec(CONVENTIONAL_PAIR, simple=True, controls=("lead_idx",))
    m = _aligned_columns(ds, spec)
    assert m.shape == (2, 2)
    assert m[:, 1].tolist() == [1.25, -0.5]


def test_build_features_missing_series():
    ds = tiny_dataset({"10y": [6.0, 5.0]})
    with pytest.raises(MissingSeries, match="3m"):
        _aligned_columns(ds, ModelSpec(CONVENTIONAL_PAIR, simple=True))
    spec = ModelSpec(CONVENTIONAL_PAIR, simple=True, controls=("lead_idx",))
    with pytest.raises(MissingSeries, match="lead_idx"):
        _aligned_columns(tiny_dataset({"10y": [6.0, 5.0], "3m": [4.5, 4.0]}), spec)


# --- fitting ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ds12(market, split95) -> AlignedDataset:
    panel, recessions = market
    return align_dataset(panel, recessions, 12, split95, ALL)


def test_simple_ml_with_conventional_pair_collapses_to_benchmark(ds12):
    # a selected (10y, 3m) pair makes panel B's spec equal to panel D's
    ml = fit_spec(ds12, ModelSpec(("10y", "3m"), simple=True))
    conv = fit_spec(ds12, ModelSpec(CONVENTIONAL_PAIR, simple=True))
    assert ml.spec == conv.spec
    assert ml.intercept == conv.intercept
    assert np.array_equal(ml.coefs, conv.coefs)


def test_weighting_identity_on_balanced_targets(market, split95):
    panel, _ = market
    # alternating labels + a 13-month horizon put exactly 402 rows (half of
    # them positive) in the training partition, so r = 1/2 exactly
    n = len(panel.dates)
    indicator = np.array([float(i % 2) for i in range(n + 24)])
    recessions = RecessionSeries(
        dates=tuple(Month(1961, 6) + i for i in range(n + 24)), indicator=indicator
    )
    ds = align_dataset(panel, recessions, 13, split95, ALL)
    train_targets = ds.targets[: ds.split_index]
    assert train_targets.mean() == 0.5
    weights = ClassWeights.from_targets(train_targets).per_row(train_targets)
    assert np.all(weights == 1.0)
    spec = ModelSpec(CONVENTIONAL_PAIR, simple=False)
    on = fit_spec(ds, spec, weights=weights)
    off = fit_spec(ds, spec)
    assert on.fit.intercept_std == off.fit.intercept_std
    assert np.array_equal(on.fit.coefs_std, off.fit.coefs_std)


def test_nesting_generalized_at_least_simple(ds12):
    n_train = ds12.split_index

    def train_avg_ll(model: FittedModel) -> float:
        probs = forecast_series(model, ds12).probabilities[:n_train]
        y = ds12.targets[:n_train]
        return float(np.mean(y * np.log(probs) + (1 - y) * np.log1p(-probs)))

    gen_c = fit_spec(ds12, ModelSpec(CONVENTIONAL_PAIR, simple=False))
    sim_c = fit_spec(ds12, ModelSpec(CONVENTIONAL_PAIR, simple=True))
    assert train_avg_ll(gen_c) >= train_avg_ll(sim_c) - 1e-8
    pair = ("7y", "3m")
    gen_m = fit_spec(ds12, ModelSpec(pair, simple=False))
    sim_m = fit_spec(ds12, ModelSpec(pair, simple=True))
    assert train_avg_ll(gen_m) >= train_avg_ll(sim_m) - 1e-8


def test_sign_pattern_on_informative_market(ds12):
    gen = fit_spec(ds12, ModelSpec(CONVENTIONAL_PAIR, simple=False))
    long_coef, short_coef = gen.display_coefficients
    assert long_coef > 0 > short_coef


def test_translation_property_bitwise():
    # dyadic cell values keep the +c shift exact, so the difference column,
    # the fit, and the probabilities must be bit-identical
    rng = np.random.default_rng(14)
    n = 120
    grid = rng.integers(3 * 1024, 8 * 1024, size=(n, 2)) / 1024.0
    long, short = grid[:, 0] + 1.0, grid[:, 1]
    y = (rng.random(n) < 1 / (1 + np.exp(1.5 * (long - short) - 1.0))).astype(float)
    y[:2] = [0.0, 1.0]

    def build(c: float):
        panel = tiny_panel({"10y": list(long + c), "3m": list(short + c)})
        recs = RecessionSeries(
            dates=tuple(Month(2000, 1) + i for i in range(n + 2)),
            indicator=np.concatenate([[0.0], y, [0.0]]),
        )
        split = SplitConfig(
            train_end=Month(2000, 1) + (n - 30),
            sample_start=Month(2000, 1),
            sample_end=Month(2000, 1) + (n + 1),
        )
        ds = align_dataset(panel, recs, 1, split, ("10y", "3m"))
        model = fit_spec(ds, ModelSpec(CONVENTIONAL_PAIR, simple=True))
        fc = forecast_series(model, ds)
        return ds, model, fc

    ds0, model0, fc0 = build(0.0)
    ds3, model3, fc3 = build(3.0)
    assert np.array_equal(
        ds0.features[:, 0] - ds0.features[:, 1], ds3.features[:, 0] - ds3.features[:, 1]
    )
    assert model0.intercept == model3.intercept
    assert np.array_equal(model0.coefs, model3.coefs)
    assert np.array_equal(fc0.probabilities, fc3.probabilities)


# --- forecasting -----------------------------------------------------------------

def test_forecast_flat_curve_gives_half():
    x = np.array([[5.0, 5.0]])
    assert predict_proba(0.0, np.array([1.0, -1.0]), x).tolist() == [0.5]


def test_forecast_probability_decreasing_in_spread(ds12):
    model = fit_spec(ds12, ModelSpec(CONVENTIONAL_PAIR, simple=True))
    fc = forecast_series(model, ds12)
    order = np.argsort(fc.spread)
    probs_by_spread = fc.probabilities[order]
    assert np.all(np.diff(probs_by_spread) <= 0)


def test_forecast_covers_all_rows_with_split(ds12):
    model = fit_spec(ds12, ModelSpec(CONVENTIONAL_PAIR, simple=True))
    fc = forecast_series(model, ds12)
    # one value per dataset row; the dates and the split stay the dataset's
    assert [f.name for f in dataclasses.fields(fc)] == ["spread", "probabilities"]
    assert fc.spread.shape == fc.probabilities.shape == (ds12.n_rows,)
    assert fc.probabilities[: ds12.split_index].shape == (ds12.split_index,)


def test_selection_model_reduction_preserves_probabilities(ds12):
    k = ds12.split_index
    path = sweep_path(ds12.features[:k], ds12.targets[:k], feature_names=ALL)
    sel = select_pair(path)
    model = fitted_model_from_selection(path, sel)
    fc = forecast_series(model, ds12)
    # the dropped exact zeros cannot change the linear combination
    intercept, coefs = destandardize(sel.fit.intercept_std, sel.fit.coefs_std, path.standardizer)
    full_spread = intercept + ds12.features @ coefs
    assert np.max(np.abs(fc.spread - full_spread)) < 1e-12
    assert model.spec.pair == sel.pair and not model.spec.simple
    assert model.display_coefficients[0] > 0 > model.display_coefficients[1]
    # panel A maps the full selection fit, then keeps the pair's columns
    assert model.fit is sel.fit
    assert model.intercept == intercept
    assert np.array_equal(model.coefs, coefs[[ALL.index(m) for m in sel.pair]])
    # panels B-D map their MLE fits with the standardizer of their own columns
    for spec in (
        ModelSpec(sel.pair, simple=True),
        ModelSpec(CONVENTIONAL_PAIR, simple=False),
        ModelSpec(CONVENTIONAL_PAIR, simple=True),
    ):
        fitted = fit_spec(ds12, spec)
        std = Standardizer.fit(_aligned_columns(ds12, spec)[: ds12.split_index])
        intercept, coefs = destandardize(fitted.fit.intercept_std, fitted.fit.coefs_std, std)
        assert fitted.intercept == intercept
        assert np.array_equal(fitted.coefs, coefs)
