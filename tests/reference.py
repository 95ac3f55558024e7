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


def loop_auc(targets: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC from average 1-based ranks, assigned by a loop over
    the sorted scores, one tie group at a time."""
    y = np.asarray(targets, dtype=float)
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def loop_roc(targets: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """ROC points (fpr, tpr) from (0, 0), one per distinct score in
    decreasing order, built by a loop over the thresholds."""
    y = np.asarray(targets, dtype=float)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    points = [(0.0, 0.0)]
    for threshold in sorted(set(s.tolist()), reverse=True):
        hit = s >= threshold
        false_pos = float(np.sum(hit & (y == 0.0)))
        true_pos = float(np.sum(hit & (y == 1.0)))
        points.append((false_pos / n_neg, true_pos / n_pos))
    return np.array(points)
