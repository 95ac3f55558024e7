"""Reference computations the tests check the library against.

Written apart from the library, so that a test compares two independent
routes to the same number.
"""

from __future__ import annotations

import math

import numpy as np

JEFFREYS_THRESHOLD = math.sqrt(10.0)


def exceeds_jeffreys(ebf_value: float) -> bool:
    """True when the EBF clears sqrt(10), Jeffreys' substantial-evidence bar."""
    return ebf_value >= JEFFREYS_THRESHOLD


def trapezoid_auc(points: np.ndarray) -> float:
    """Trapezoidal area under an ordered ROC curve (cross-check for auc)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def intercept_only_lambda_bound(
    features: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> float:
    """The null-model lambda bound when every feature is penalized, in closed
    form: the intercept-only MLE fits every row the weighted positive
    fraction p, so the bound is max_j |sum_i x_ij w_i (y_i - p)|."""
    p = float(np.sum(weights * targets) / np.sum(weights))
    return float(np.max(np.abs(features.T @ (weights * (targets - p)))))
