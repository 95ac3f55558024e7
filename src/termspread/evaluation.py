"""Out-of-sample scoring: log likelihood, EBF, ROC/AUC, relative MSE.

log L and log PPL are per-observation averages of the (optionally class-
weighted) Bernoulli log likelihood over the training and test periods. The
empirical Bayes factor compares an alternative model's test-period average
against the benchmark's:

    EBF = exp(log_ppl_alt - log_ppl_benchmark)

i.e. the geometric-mean predictive-likelihood ratio. EBFs at or above
sqrt(10) count as substantial evidence under Jeffreys' criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, SingleClass, ZeroBenchmark
from .logit import PROB_CEIL, PROB_FLOOR


@dataclass(frozen=True)
class EvalReport:
    """One model's forecast metrics at one horizon; the horizon and the panel
    letter are the keys it is stored under (``HorizonArtifacts.reports``)."""

    log_l_train: float
    log_ppl_test: float
    ebf: float
    auc_train: float
    auc_test: float
    rm: float
    avg_weight: float


def avg_log_likelihood(
    targets: np.ndarray,
    probabilities: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Mean over observations of w_i [y_i ln p_i + (1-y_i) ln(1-p_i)].

    Weights default to one; for class-weighted runs pass per-row weights
    built from the TRAINING recession ratio, even when scoring test rows.
    """
    y = np.asarray(targets, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if y.shape != p.shape:
        raise LengthMismatch(f"targets {y.shape} vs probabilities {p.shape}")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise LengthMismatch(f"targets {y.shape} vs weights {w.shape}")
    p = np.clip(p, PROB_FLOOR, PROB_CEIL)
    ll = w * (y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(ll.mean())


def ebf(log_ppl_alt: float, log_ppl_benchmark: float) -> float:
    """exp of the difference of per-observation average log PPLs.

    Rounds to 0 when the alternative trails by more than about 745 nats;
    ``posterior_weight`` takes the difference itself and stays exact there.
    """
    return float(np.exp(log_ppl_alt - log_ppl_benchmark))


def posterior_weight(log_ebf: float) -> float:
    """Posterior weight EBF/(1+EBF) on the alternative under equal priors,
    as the logistic function of log EBF, so that it neither divides an
    underflowed EBF nor overflows an exponential."""
    if log_ebf >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_ebf))
    e = math.exp(log_ebf)
    return e / (1.0 + e)


def _roc_inputs(
    targets: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Targets and scores as float arrays, with the positive and negative
    counts: the checks that ``roc_curve`` and ``auc`` share, so that the two
    accept the same inputs. The shapes must match, every score must be
    finite and both classes must be present."""
    y = np.asarray(targets, dtype=float)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape:
        raise LengthMismatch(f"targets {y.shape} vs scores {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC statistics need both classes present")
    return y, s, n_pos, n_neg


def roc_curve(targets: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(false positive rate, true positive rate) points, one per threshold.

    Thresholds are the distinct score values in decreasing order (a point
    classifies score >= threshold as positive); tied scores share a single
    threshold. The curve starts at (0,0) and ends at (1,1), where the lowest
    threshold classifies every row positive. Returns an array of shape
    (m, 2) ordered along the curve.
    """
    y, s, n_pos, n_neg = _roc_inputs(targets, scores)

    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(1.0 - y_sorted)
    # last index of each tie group marks the threshold at that score
    idx = np.flatnonzero(np.append(np.diff(s_sorted) != 0.0, True))
    points = np.zeros((len(idx) + 1, 2))
    points[1:, 0] = fp[idx] / n_neg
    points[1:, 1] = tp[idx] / n_pos
    return points


def auc(targets: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC: (#{pos>neg} + 0.5 #{ties}) / (n_pos * n_neg).

    Computed from average ranks, so ties get half credit; this equals the
    trapezoidal area under ``roc_curve``.
    """
    y, s, n_pos, n_neg = _roc_inputs(targets, scores)

    # each tie group of c scores ending at 1-based rank r shares the
    # average rank r - (c - 1)/2
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    rank_sum_pos = float(np.sum(ranks[y == 1.0]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def relative_mse(
    targets: np.ndarray,
    probs_alt: np.ndarray,
    probs_benchmark: np.ndarray,
) -> float:
    """MSE(alternative) / MSE(benchmark), both against the binary targets."""
    y = np.asarray(targets, dtype=float)
    a = np.asarray(probs_alt, dtype=float)
    b = np.asarray(probs_benchmark, dtype=float)
    if y.shape != a.shape or y.shape != b.shape:
        raise LengthMismatch("targets and forecast vectors must share a length")
    mse_bench = float(np.mean((y - b) ** 2))
    if mse_bench == 0.0:
        raise ZeroBenchmark("benchmark forecast has zero mean squared error")
    return float(np.mean((y - a) ** 2)) / mse_bench
