"""Out-of-sample scoring: log likelihood, EBF, ROC/AUC, relative MSE.

log L and log PPL are per-observation averages of the (optionally class-
weighted) Bernoulli log likelihood over the training and test periods. The
empirical Bayes factor compares an alternative model's test-period average
against the benchmark's:

    EBF = exp(log_ppl_alt - log_ppl_benchmark)

i.e. the geometric-mean predictive-likelihood ratio. EBFs at or above
sqrt(10) count as substantial evidence under Jeffreys' criterion.

The four metrics that take targets share one input rule: targets are a
non-empty vector of 0s and 1s, and each forecast, score or weight vector is
finite and of the targets' shape; probabilities (``probabilities``,
``probs_alt``, ``probs_benchmark``) lie in [0, 1], and weights are positive,
while ``scores`` may be any finite real. A shape that differs raises
LengthMismatch; any other breach, a ValueError naming its argument.
``auc`` is the exact trapezoidal area under ``roc_curve``'s points, so the
``auc=`` header of each ``roc_h*`` file is the area of the points written
below it.
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


def _checked(targets: np.ndarray, **vectors: np.ndarray) -> list[np.ndarray]:
    """The targets and each named vector as float arrays, after the module's
    input rule."""
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        raise ValueError("targets must not be empty")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be 0 or 1")
    out = [y]
    for name, v in vectors.items():
        a = np.asarray(v, dtype=float)
        if a.shape != y.shape:
            raise LengthMismatch(f"targets {y.shape} vs {name} {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
        if name == "weights" and not np.all(a > 0.0):
            raise ValueError("weights must be positive")
        if name not in ("scores", "weights") and not np.all((a >= 0.0) & (a <= 1.0)):
            raise ValueError(f"{name} must be in [0, 1]")
        out.append(a)
    return out


def avg_log_likelihood(
    targets: np.ndarray,
    probabilities: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Mean over observations of w_i [y_i ln p_i + (1-y_i) ln(1-p_i)].

    Weights default to one; for class-weighted runs pass per-row weights
    built from the TRAINING recession ratio, even when scoring test rows.
    """
    w = np.ones(np.shape(targets)) if weights is None else weights
    y, p, w = _checked(targets, probabilities=probabilities, weights=w)
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


def _roc_counts(targets: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """False and true positive counts at (0, 0) and then at each threshold
    of ``roc_curve``, from one sort: the last row of each tie group."""
    y, s = _checked(targets, scores=scores)
    if y.all() or not y.any():
        raise SingleClass("ROC statistics need both classes present")
    order = np.argsort(-s, kind="stable")
    y = y[order]
    last = np.append(np.diff(s[order]) != 0.0, True)
    fp = np.concatenate(([0.0], np.cumsum(1.0 - y)[last]))
    tp = np.concatenate(([0.0], np.cumsum(y)[last]))
    return fp, tp


def roc_curve(targets: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(false positive rate, true positive rate) points, one per threshold.

    Thresholds are the distinct score values in decreasing order (a point
    classifies score >= threshold as positive); tied scores share a single
    threshold. The curve starts at (0,0) and ends at (1,1), where the lowest
    threshold classifies every row positive. Returns an array of shape
    (m, 2) ordered along the curve.
    """
    fp, tp = _roc_counts(targets, scores)
    return np.column_stack((fp / fp[-1], tp / tp[-1]))


def auc(targets: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC: (#{pos>neg} + 0.5 #{ties}) / (n_pos * n_neg).

    The trapezoid over ``roc_curve``'s counts, so ties get half credit.
    Every term and partial sum is a whole count below 2**53, so the sum is
    exact and the one rounding is the final division.
    """
    fp, tp = _roc_counts(targets, scores)
    return float(0.5 * np.dot(np.diff(fp), tp[1:] + tp[:-1]) / (fp[-1] * tp[-1]))


def relative_mse(
    targets: np.ndarray,
    probs_alt: np.ndarray,
    probs_benchmark: np.ndarray,
) -> float:
    """MSE(alternative) / MSE(benchmark), both against the binary targets."""
    y, a, b = _checked(targets, probs_alt=probs_alt, probs_benchmark=probs_benchmark)
    mse_bench = float(np.mean((y - b) ** 2))
    if mse_bench == 0.0:
        raise ZeroBenchmark("benchmark forecast has zero mean squared error")
    return float(np.mean((y - a) ** 2)) / mse_bench
