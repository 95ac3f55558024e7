"""Regularization-path sweep and maturity-pair selection.

The penalty strength is swept over the geometric grid lambda_k = 2^(k/10)
for integer k, starting from a large negative k (lambda ~ 1e-3) and
ascending until the null model is reached. The selected lambda is the first
grid value at which exactly two penalized coefficients survive; if the
survivor count jumps past two between adjacent grid points, the interval is
refined by bisection in k (fractional k allowed); the fit there is panel A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import MATURITY_CODES
from .errors import CountNeverAttained, NotConverged
from .logit import (
    KKT_TOL,
    NONZERO_TOL,
    LogitFit,
    LogitProblem,
    PathStart,
    fit_l1,
    null_model_lambda_bound,
)
from .models import FittedModel, ModelSpec


K_START = -100  # lambda = 2^-10, about 1e-3
TARGET_NONZERO = 2  # the panels are built from a maturity pair


def lambda_at(k: float) -> float:
    """The grid's penalty strength 2^(k/10); k may be fractional."""
    return float(2.0 ** (k / 10.0))


@dataclass(frozen=True, eq=False)
class CoefficientPath:
    """Certified fits along an ascending lambda grid, one per k.

    ``problem`` is the standardized training problem that every fit of the
    path solved, each at its own lambda; a refit starts a ``PathStart`` on
    it. Its penalty mask marks the columns named by maturity codes. The
    fits are in its scale, and its ``original`` maps them back. ``null_fit``
    is the null model's MLE that set the grid's end (None if nothing is
    penalized).
    """

    k_values: np.ndarray
    fits: tuple[LogitFit, ...]
    problem: LogitProblem
    feature_names: tuple[str, ...]
    null_fit: LogitFit | None

    @property
    def lambdas(self) -> np.ndarray:
        """The grid's lambda at each k."""
        return np.array([lambda_at(k) for k in self.k_values.tolist()])

    @property
    def coef_matrix(self) -> np.ndarray:
        """Original-scale coefficients, one row per lambda."""
        return np.array([f.coefs_std for f in self.fits]) / self.problem.stds

    @property
    def nonzero_counts(self) -> np.ndarray:
        """Surviving penalized coefficients per lambda."""
        survives = np.abs([f.coefs_std for f in self.fits]) > NONZERO_TOL
        return np.count_nonzero(survives & self.problem.penalty_mask, axis=1)


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """The first lambda with two surviving maturities, and panel A there:
    ``model``, whose ``pair`` puts the positive coefficient first (the long
    leg on all observed data) and whose ``fit`` is the unreduced selection fit.
    ``trials`` are the bisection's (k, fit) in order, the last one selected."""

    k_selected: float
    model: FittedModel
    trials: tuple[tuple[float, LogitFit], ...] = ()

    @property
    def lambda_selected(self) -> float:
        return lambda_at(self.k_selected)

    @property
    def pair(self) -> tuple[str, str]:
        return self.model.spec.pair

    @property
    def fit(self) -> LogitFit:
        return self.model.fit


def _certified(fit: LogitFit, k: float) -> LogitFit:
    """The fit, or NotConverged naming where and how far the solver got."""
    if not fit.converged:
        raise NotConverged(
            f"L1 fit did not converge at lambda={lambda_at(k):.6g} (k={k}) "
            f"after {fit.iterations} iterations; last KKT residual "
            f"{fit.kkt_residual:.3g} > {KKT_TOL:g}"
        )
    return fit


def _support(fit: LogitFit, mask: np.ndarray) -> np.ndarray:
    """Indices of the fit's surviving penalized coefficients."""
    return np.flatnonzero(mask & (np.abs(fit.coefs_std) > NONZERO_TOL))


def sweep_path(
    features: np.ndarray,
    targets: np.ndarray,
    feature_names: Sequence[str],
    weights: np.ndarray | None = None,
) -> CoefficientPath:
    """Fit the L1 path over lambda_k = 2^(k/10) with warm starts.

    ``features`` are original-scale training rows; they are z-scored here
    and ``coef_matrix`` maps the per-lambda fits back to the original scale.
    ``feature_names`` name the columns: a column is penalized if and only if
    its name is a maturity code, so a control such as a leading index enters
    every fit unpenalized. The grid runs over integer k from K_START to one
    step past the null-model bound, so the path always ends with every
    penalized coefficient at zero.
    Raises NotConverged (naming lambda, k, the iterations used and the last
    KKT residual) if any fit misses its certificate.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    names = tuple(feature_names)
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length does not match feature count")
    mask = [name in MATURITY_CODES for name in names]
    problem = LogitProblem.standardized(X, targets, weights, mask)
    bound, null_fit = null_model_lambda_bound(problem)
    k_end = K_START
    if bound > 0.0:
        k_end = max(int(np.ceil(10.0 * np.log2(bound))) + 1, K_START)
    k_values = np.arange(K_START, k_end + 1)
    carry = PathStart(problem)
    fits = [_certified(fit_l1(carry, lambda_at(k)), k) for k in k_values.tolist()]
    return CoefficientPath(k_values, tuple(fits), problem, names, null_fit)


def _result_from_fit(
    path: CoefficientPath, k: float, fit: LogitFit, trials: tuple = ()
) -> SelectionResult:
    # keep the pair (positive first) and the controls; the rest are exact zeros
    intercept, coefs = path.problem.original(fit)
    mask, names = path.problem.penalty_mask, path.feature_names
    pair = sorted(_support(fit, mask), key=lambda j: -coefs[j])
    controls = np.flatnonzero(~mask)
    spec = ModelSpec(tuple(names[j] for j in pair), False, tuple(names[j] for j in controls))
    model = FittedModel(spec, fit, intercept, coefs[[*pair, *controls]])
    return SelectionResult(k_selected=k, model=model, trials=trials)


def select_pair(path: CoefficientPath) -> SelectionResult:
    """First lambda along the ascending path with exactly two survivors,
    and panel A's model there.

    If the survivor count skips two between adjacent grid points, the
    interval is bisected in k (refitting, warm-started) until the count is
    hit or the interval narrows below 1e-6 in k, at which point
    CountNeverAttained is raised.
    """
    counts = path.nonzero_counts
    for i, count in enumerate(counts):
        if count == TARGET_NONZERO:
            return _result_from_fit(path, float(path.k_values[i]), path.fits[i])
        if i > 0 and counts[i - 1] > TARGET_NONZERO > count:
            return _bisect(path, counts, i - 1, i)
    raise CountNeverAttained(
        f"no lambda on the grid yields exactly {TARGET_NONZERO} nonzero coefficients "
        f"(counts ranged {counts.min()}..{counts.max()})"
    )


def _bisect(path: CoefficientPath, counts: np.ndarray, lo_idx: int, hi_idx: int) -> SelectionResult:
    k_lo, k_hi = float(path.k_values[lo_idx]), float(path.k_values[hi_idx])
    fit_lo = path.fits[lo_idx]
    count_lo, count_hi = counts[lo_idx], counts[hi_idx]
    trials = []
    while k_hi - k_lo >= 1e-6:
        k_mid = 0.5 * (k_lo + k_hi)
        fit = _certified(fit_l1(PathStart(path.problem, fit_lo), lambda_at(k_mid)), k_mid)
        trials.append((k_mid, fit))
        count = _support(fit, path.problem.penalty_mask).size
        if count == TARGET_NONZERO:
            return _result_from_fit(path, k_mid, fit, tuple(trials))
        if count > TARGET_NONZERO:
            k_lo, fit_lo, count_lo = k_mid, fit, count
        else:
            k_hi, count_hi = k_mid, count
    raise CountNeverAttained(
        f"bisection between k={path.k_values[lo_idx]} and k={path.k_values[hi_idx]} "
        f"never produced exactly {TARGET_NONZERO} nonzero coefficients: "
        f"{count_lo} survive at k={k_lo} and {count_hi} at k={k_hi}"
    )
