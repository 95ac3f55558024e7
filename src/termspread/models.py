"""The four nested spread specifications and their fitted forms.

A specification is a maturity pair (long leg first) and a form: the
generalized form puts separate coefficients on the long and short yields;
the simple form constrains them to equal magnitude with opposite signs by
regressing on the difference. Panel A is the generalized model that
``select_pair`` builds from the L1 selection fit; panels B-D are MLE fits of
the selected pair's simple form (B) and the conventional (10y, 3m) pair (C, D).
Optional control series (e.g. a leading indicator) are appended to any
specification and are exempt from the L1 penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AlignedDataset
from .errors import CoverageError, MissingSeries
from .logit import LogitFit, LogitProblem, constant_mask, fit_mle, predict_proba

CONVENTIONAL_PAIR = ("10y", "3m")


@dataclass(frozen=True)
class ModelSpec:
    """A maturity pair, its form, and optional forced controls."""

    pair: tuple[str, str]
    simple: bool
    controls: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", tuple(self.controls))


@dataclass(frozen=True, eq=False)
class FittedModel:
    """A specification with its estimated parameters in the original scale.

    ``coefs`` holds one coefficient per design column: the yield pair or
    spread, then the spec's controls. ``fit`` is the solver's fit in the
    standardized scale it solved, with its certificate and work counts.
    """

    spec: ModelSpec
    fit: LogitFit
    intercept: float
    coefs: np.ndarray

    @property
    def control_coefs(self) -> dict[str, float]:
        """Original-scale coefficient of each control, by name."""
        trailing = self.coefs[1 if self.spec.simple else 2:]
        return {name: float(b) for name, b in zip(self.spec.controls, trailing)}

    @property
    def display_coefficients(self) -> tuple[float, float]:
        """(long, short) coefficients; a simple spread shows (b, -b)."""
        if self.spec.simple:
            b = float(self.coefs[0])
            return (b, -b)
        return (float(self.coefs[0]), float(self.coefs[1]))


@dataclass(frozen=True, eq=False)
class ForecastSeries:
    """Generalized spread and implied probability, one per dataset row."""

    spread: np.ndarray
    probabilities: np.ndarray


def require_varying(X_train: np.ndarray, names: tuple[str, ...]) -> None:
    """CoverageError naming the first column of ``X_train`` whose rows are all equal."""
    constant = np.flatnonzero(constant_mask(X_train))
    if constant.size:
        j = int(constant[0])
        raise CoverageError(
            f"the training partition's {len(X_train)} rows "
            f"all have {names[j]}={X_train[0, j]:g}; every feature must vary"
        )


def _aligned_columns(ds: AlignedDataset, spec: ModelSpec) -> np.ndarray:
    """The spec's design columns: yield pair or spread, then controls."""
    columns = dict(zip(ds.feature_names, ds.features.T))
    series = *spec.pair, *spec.controls
    missing = [name for name in series if name not in columns]
    if missing:
        raise MissingSeries(f"dataset does not carry the series {missing[0]!r}")
    cols = [columns[name] for name in series]
    if spec.simple:
        cols[:2] = [cols[0] - cols[1]]
    return np.column_stack(cols)


def fit_spec(
    ds: AlignedDataset, spec: ModelSpec, weights: np.ndarray | None = None
) -> FittedModel:
    """Unregularized MLE of a specification on the training partition.

    ``weights`` are per-row weights for the training rows, e.g. the class
    weights of ``ClassWeights.from_targets``; None weighs every row 1.
    Features are z-scored for the optimization and the reported coefficients
    are mapped back to the original scale. Raises CoverageError naming a
    design column, e.g. the spread ``7y-10y``, that does not vary over the
    training rows.
    """
    X_train = _aligned_columns(ds, spec)[: ds.split_index]
    legs = [f"{spec.pair[0]}-{spec.pair[1]}"] if spec.simple else list(spec.pair)
    require_varying(X_train, (*legs, *spec.controls))
    problem = LogitProblem.standardized(X_train, ds.targets[: ds.split_index], weights)
    fit = fit_mle(problem)
    return FittedModel(spec, fit, *problem.original(fit))


def forecast_series(model: FittedModel, ds: AlignedDataset) -> ForecastSeries:
    """Generalized spread and recession probability for all rows.

    spread_t = b0 + sum_j b_j x_{j,t} in the original scale (controls
    included); probability_t = phi(-spread_t). Computed for the train and
    test rows alike; the dates and the split are the dataset's.
    """
    design = _aligned_columns(ds, model.spec)
    b0, b = model.intercept, model.coefs
    return ForecastSeries(spread=b0 + design @ b, probabilities=predict_proba(b0, b, design))
