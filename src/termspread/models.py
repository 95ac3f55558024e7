"""The four nested spread specifications and their fitted forms.

Generalized kinds put separate coefficients on the long and short yields;
Simple kinds constrain them to equal magnitude with opposite signs by
regressing on the difference. ML kinds use the maturity pair chosen on the
regularization path; Conventional kinds always use (10y, 3m). Optional
control series (e.g. a leading indicator) are appended to any kind and are
exempt from the L1 penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .data import AlignedDataset, MaturityLabel, Month
from .errors import MissingSeries
from .logit import LogitFit, LogitProblem, Standardizer, fit_mle, predict_proba
from .selection import SelectionResult

CONVENTIONAL_PAIR = (MaturityLabel.from_code("10y"), MaturityLabel.from_code("3m"))


class ModelKind(Enum):
    GENERALIZED_ML = "generalized_ml"
    SIMPLE_ML = "simple_ml"
    GENERALIZED_CONVENTIONAL = "generalized_conventional"
    SIMPLE_CONVENTIONAL = "simple_conventional"

    @property
    def is_simple(self) -> bool:
        return self in (ModelKind.SIMPLE_ML, ModelKind.SIMPLE_CONVENTIONAL)

    @property
    def is_ml(self) -> bool:
        return self in (ModelKind.GENERALIZED_ML, ModelKind.SIMPLE_ML)


@dataclass(frozen=True)
class ModelSpec:
    """One of the four nested specifications, plus optional forced controls."""

    kind: ModelKind
    ml_pair: tuple[MaturityLabel, MaturityLabel] | None = None
    controls: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.kind.is_ml and self.ml_pair is None:
            raise ValueError(f"{self.kind.value} requires an ml_pair")

    @property
    def pair(self) -> tuple[MaturityLabel, MaturityLabel]:
        if self.kind.is_ml:
            assert self.ml_pair is not None
            return self.ml_pair
        return CONVENTIONAL_PAIR

    @property
    def yield_feature_names(self) -> tuple[str, ...]:
        long, short = self.pair
        if self.kind.is_simple:
            return (f"{long.code}-{short.code}",)
        return (long.code, short.code)


@dataclass(frozen=True)
class FittedModel:
    """A specification with estimated original-scale parameters."""

    spec: ModelSpec
    fit: LogitFit
    feature_names: tuple[str, ...]
    control_coefs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "control_coefs", dict(self.control_coefs))

    @property
    def display_coefficients(self) -> tuple[float, float]:
        """(long, short) coefficients; a simple spread shows (b, -b)."""
        if self.spec.kind.is_simple:
            b = float(self.fit.coefs_orig[0])
            return (b, -b)
        return (float(self.fit.coefs_orig[0]), float(self.fit.coefs_orig[1]))


@dataclass(frozen=True)
class ForecastSeries:
    """Generalized spread and implied probability for every dataset row."""

    dates: tuple[Month, ...]
    spread: np.ndarray
    probabilities: np.ndarray
    split_index: int


def _aligned_columns(ds: AlignedDataset, spec: ModelSpec) -> tuple[np.ndarray, tuple[str, ...]]:
    """The spec's design columns (yield pair or spread, then controls) and names."""
    columns = dict(zip(ds.feature_names, ds.features.T))
    series = spec.pair[0].code, spec.pair[1].code, *spec.controls
    missing = [name for name in series if name not in columns]
    if missing:
        raise MissingSeries(f"dataset does not carry the series {missing[0]!r}")
    cols = [columns[name] for name in series]
    if spec.kind.is_simple:
        cols[:2] = [cols[0] - cols[1]]
    return np.column_stack(cols), spec.yield_feature_names + spec.controls


def fit_spec(
    ds: AlignedDataset, spec: ModelSpec, weights: np.ndarray | None = None
) -> FittedModel:
    """Unregularized MLE of a specification on the training partition.

    ``weights`` are per-row weights for the training rows, e.g. the class
    weights of ``ClassWeights.from_targets``; None weighs every row 1.
    Features are z-scored for the optimization and the reported coefficients
    are mapped back to the original scale.
    """
    design, names = _aligned_columns(ds, spec)
    X_train = design[: ds.split_index]
    standardizer = Standardizer.fit(X_train)
    problem = LogitProblem(
        features=standardizer.transform(X_train),
        targets=ds.targets[: ds.split_index],
        weights=weights,
    )
    fit = fit_mle(problem, standardizer)
    controls = {
        name: float(fit.coefs_orig[names.index(name)]) for name in spec.controls
    }
    return FittedModel(
        spec=spec,
        fit=fit,
        feature_names=names,
        control_coefs=controls,
    )


def fitted_model_from_selection(
    selection: SelectionResult, controls: Sequence[str] = ()
) -> FittedModel:
    """Wrap an L1 selection fit as a generalized-ML FittedModel.

    The selection fit carries one coefficient per universe feature, almost
    all exactly zero; this reduces it to the surviving pair plus any forced
    controls, which leaves every predicted probability unchanged.
    """
    if selection.pair is None:
        raise ValueError("selection does not hold a two-maturity pair")
    spec = ModelSpec(
        kind=ModelKind.GENERALIZED_ML, ml_pair=selection.pair, controls=tuple(controls)
    )
    names = spec.yield_feature_names + spec.controls
    src = list(selection.feature_names)
    idx = [src.index(name) for name in names]
    fit = selection.fit
    reduced = LogitFit(
        intercept_std=fit.intercept_std,
        coefs_std=fit.coefs_std[idx],
        intercept_orig=fit.intercept_orig,
        coefs_orig=fit.coefs_orig[idx],
        objective_value=fit.objective_value,
        iterations=fit.iterations,
        converged=fit.converged,
        kkt_residual=fit.kkt_residual,
    )
    controls_map = {
        name: float(fit.coefs_orig[src.index(name)]) for name in spec.controls
    }
    return FittedModel(
        spec=spec,
        fit=reduced,
        feature_names=names,
        control_coefs=controls_map,
    )


def forecast_series(model: FittedModel, ds: AlignedDataset) -> ForecastSeries:
    """Generalized spread and recession probability for all rows.

    spread_t = b0 + sum_j b_j x_{j,t} in the original scale (controls
    included); probability_t = phi(-spread_t). Emitted for the train and
    test rows alike, with the split position attached for plotting.
    """
    design, _ = _aligned_columns(ds, model.spec)
    b0 = model.fit.intercept_orig
    b = model.fit.coefs_orig
    spread = b0 + design @ b
    probs = predict_proba(b0, b, design)
    return ForecastSeries(
        dates=ds.predictor_dates,
        spread=spread,
        probabilities=probs,
        split_index=ds.split_index,
    )
