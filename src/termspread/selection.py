"""Regularization-path sweep and maturity-pair selection.

The penalty strength is swept over the geometric grid lambda_k = 2^(k/10)
for integer k, starting from a large negative k (lambda ~ 1e-3) and
ascending until the null model is reached. The selected lambda is the first
grid value at which exactly the desired number of penalized coefficients
survive; if the survivor count jumps past the target between adjacent grid
points, the interval is refined by bisection in k (fractional k allowed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import MaturityLabel
from .errors import CountNeverAttained, NotConverged
from .logit import (
    KKT_TOL,
    NONZERO_TOL,
    LogitFit,
    LogitProblem,
    Standardizer,
    fit_l1,
    null_model_lambda_bound,
)


@dataclass(frozen=True)
class LambdaGrid:
    """Geometric grid lambda_k = 2^(k/10) over integer k in [k_start, k_end]."""

    k_start: int = -100
    k_end: int = 100

    def __post_init__(self) -> None:
        if self.k_end < self.k_start:
            raise ValueError("k_end must be >= k_start")

    @staticmethod
    def lambda_at(k: float) -> float:
        return float(2.0 ** (k / 10.0))

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(self.k_start, self.k_end + 1)

    @property
    def values(self) -> np.ndarray:
        return 2.0 ** (self.k_values / 10.0)

    @classmethod
    def covering(cls, lambda_bound: float, k_start: int = -100) -> "LambdaGrid":
        """Grid reaching one step past the given null-model bound."""
        if lambda_bound <= 0.0:
            return cls(k_start=k_start, k_end=k_start)
        k_end = int(np.ceil(10.0 * np.log2(lambda_bound))) + 1
        return cls(k_start=k_start, k_end=max(k_end, k_start))


@dataclass(frozen=True)
class PathProblem:
    """Standardized training data backing a coefficient path (for refits)."""

    features_std: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    penalty_mask: np.ndarray
    standardizer: Standardizer
    feature_names: tuple[str, ...]

    def at_lambda(self, lam: float) -> LogitProblem:
        return LogitProblem(
            features=self.features_std,
            targets=self.targets,
            weights=self.weights,
            penalty_mask=self.penalty_mask,
            lam=lam,
        )


@dataclass(frozen=True)
class CoefficientPath:
    """Per-lambda fits along an ascending grid, in the original scale."""

    k_values: np.ndarray
    lambdas: np.ndarray
    coef_matrix: np.ndarray
    nonzero_counts: np.ndarray
    fits: tuple[LogitFit, ...]
    problem: PathProblem

    def __post_init__(self) -> None:
        if self.coef_matrix.shape[0] != len(self.lambdas):
            raise ValueError("coef_matrix must have one row per lambda")


@dataclass(frozen=True)
class SelectionResult:
    """The first lambda with the desired support size and its fit.

    ``pair`` orders the two surviving maturities positive-coefficient first
    (the long leg on all observed data); it is None when the requested
    support size is not two.
    """

    lambda_selected: float
    k_selected: float
    pair: tuple[MaturityLabel, MaturityLabel] | None
    coefs_orig: tuple[float, ...]
    fit: LogitFit
    feature_names: tuple[str, ...]


def _certified(fit: LogitFit, k: float) -> LogitFit:
    """The fit, or NotConverged naming where and how far the solver got."""
    if not fit.converged:
        raise NotConverged(
            f"L1 fit did not converge at lambda={LambdaGrid.lambda_at(k):.6g} (k={k}) "
            f"after {fit.iterations} iterations; last KKT residual "
            f"{fit.kkt_residual:.3g} > {KKT_TOL:g}"
        )
    return fit


def _penalized_nonzeros(fit: LogitFit, mask: np.ndarray) -> int:
    return int(np.sum(mask & (np.abs(fit.coefs_std) > NONZERO_TOL)))


def sweep_path(
    features: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
    penalty_mask: np.ndarray | None = None,
    grid: LambdaGrid | None = None,
    feature_names: Sequence[str] | None = None,
) -> CoefficientPath:
    """Fit the L1 path over an ascending lambda grid with warm starts.

    ``features`` are original-scale training rows; they are z-scored here
    and the per-lambda coefficients are reported back in the original scale.
    When no grid is given, one is built to reach just past the null-model
    bound, so the path always ends with every penalized coefficient at zero.
    Raises NotConverged (naming lambda, k, the iterations used and the last
    KKT residual) if any fit misses its certificate.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    n, p = X.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    mask = np.ones(p, dtype=bool) if penalty_mask is None else np.asarray(penalty_mask, bool)
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"x{j}" for j in range(p)
    )
    if len(names) != p:
        raise ValueError("feature_names length does not match feature count")

    standardizer = Standardizer.fit(X)
    Z = standardizer.transform(X)
    if grid is None:
        bound = null_model_lambda_bound(Z, y, w, mask)
        grid = LambdaGrid.covering(bound)
    problem_data = PathProblem(
        features_std=Z,
        targets=y,
        weights=w,
        penalty_mask=mask,
        standardizer=standardizer,
        feature_names=names,
    )

    fits: list[LogitFit] = []
    start: tuple[float, np.ndarray] | None = None
    for k, lam in zip(grid.k_values, grid.values):
        fit = _certified(fit_l1(problem_data.at_lambda(lam), standardizer, start=start), k)
        fits.append(fit)
        start = (fit.intercept_std, fit.coefs_std)

    return CoefficientPath(
        k_values=grid.k_values.copy(),
        lambdas=grid.values.copy(),
        coef_matrix=np.array([f.coefs_orig for f in fits]),
        nonzero_counts=np.array([_penalized_nonzeros(f, mask) for f in fits]),
        fits=tuple(fits),
        problem=problem_data,
    )


def _result_from_fit(
    path: CoefficientPath, k: float, lam: float, fit: LogitFit
) -> SelectionResult:
    mask = path.problem.penalty_mask
    nz = np.flatnonzero(mask & (np.abs(fit.coefs_std) > NONZERO_TOL))
    coefs = [float(fit.coefs_orig[j]) for j in nz]
    order = sorted(range(len(nz)), key=lambda i: -coefs[i])  # positive first
    labels = [MaturityLabel.from_code(path.problem.feature_names[nz[i]]) for i in order]
    pair = (labels[0], labels[1]) if len(labels) == 2 else None
    return SelectionResult(
        lambda_selected=lam,
        k_selected=k,
        pair=pair,
        coefs_orig=tuple(coefs[i] for i in order),
        fit=fit,
        feature_names=path.problem.feature_names,
    )


def select_pair(path: CoefficientPath, target_nonzero: int = 2) -> SelectionResult:
    """First lambda along the ascending path with the target support size.

    If the survivor count skips the target between adjacent grid points,
    the interval is bisected in k (refitting, warm-started) until the count
    is hit or the interval narrows below 1e-6 in k, at which point
    CountNeverAttained is raised.
    """
    counts = path.nonzero_counts
    for i, count in enumerate(counts):
        if count == target_nonzero:
            return _result_from_fit(
                path, float(path.k_values[i]), float(path.lambdas[i]), path.fits[i]
            )
        if i > 0 and counts[i - 1] > target_nonzero > count:
            return _bisect(path, i - 1, i, target_nonzero)
    raise CountNeverAttained(
        f"no lambda on the grid yields exactly {target_nonzero} nonzero coefficients "
        f"(counts ranged {counts.min()}..{counts.max()})"
    )


def _bisect(
    path: CoefficientPath, lo_idx: int, hi_idx: int, target: int
) -> SelectionResult:
    mask = path.problem.penalty_mask
    k_lo, k_hi = float(path.k_values[lo_idx]), float(path.k_values[hi_idx])
    fit_lo = path.fits[lo_idx]
    while k_hi - k_lo >= 1e-6:
        k_mid = 0.5 * (k_lo + k_hi)
        lam = LambdaGrid.lambda_at(k_mid)
        fit = _certified(
            fit_l1(
                path.problem.at_lambda(lam),
                path.problem.standardizer,
                start=(fit_lo.intercept_std, fit_lo.coefs_std),
            ),
            k_mid,
        )
        count = _penalized_nonzeros(fit, mask)
        if count == target:
            return _result_from_fit(path, k_mid, lam, fit)
        if count > target:
            k_lo, fit_lo = k_mid, fit
        else:
            k_hi = k_mid
    raise CountNeverAttained(
        f"bisection between k={path.k_values[lo_idx]} and k={path.k_values[hi_idx]} "
        f"never produced exactly {target} nonzero coefficients"
    )
