"""Logistic regression with an L1 penalty, under the negated-sign convention.

The recession probability for a feature row x is phi(-b0 - b.x) with
phi(z) = 1 / (1 + exp(-z)), so the probability RISES as the linear
combination of yields FALLS. All optimization runs on z-scored features;
coefficients are reported in both scales.

The L1 objective is

    J(b0, b) = NLL(b0, b) + lambda * sum_j(penalized) |b_j|

where NLL is the weighted negative log likelihood SUMMED over rows (not
averaged), the intercept is never penalized, and the penalty mask can
exempt individual features. ``fit_l1`` minimizes J by active-orthant
Newton (after OWL-QN, Andrew & Gao 2007): every iteration makes one fused
evaluation of J, its gradient and the curvature weights w*p*(1-p), which
give the KKT residual, the Newton system on the active orthant and the
certificate stored in ``LogitFit``; coefficients that cross zero are
clipped to exactly zero, and a proximal-gradient step is taken only when
the Newton step fails to descend. ``fit_mle`` solves the unpenalized
problem by Newton-Raphson with step halving on the same evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Separation, SingleClass, Singular

PROB_FLOOR = 1e-300
PROB_CEIL = 1.0 - 1e-16

KKT_TOL = 1e-7
DESCENT_SLACK = 1e-13
MAX_HALVINGS = 40
MAX_ITER_L1 = 100_000
SEPARATION_NORM = 1e4
NONZERO_TOL = 1e-10


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-score transform fitted on training rows only.

    Uses the population standard deviation (divide by n). Constant features
    are rejected at fit time.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        stds = np.asarray(self.stds, dtype=float)
        if means.shape != stds.shape or means.ndim != 1:
            raise ValueError("means and stds must be matching 1-D arrays")
        if np.any(stds <= 0.0):
            raise ValueError("standard deviations must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        X = np.atleast_2d(np.asarray(features, dtype=float))
        means = X.mean(axis=0)
        stds = X.std(axis=0)  # population variance, ddof=0
        if np.any(stds == 0.0):
            bad = [int(j) for j in np.flatnonzero(stds == 0.0)]
            raise ValueError(f"constant feature column(s): {bad}")
        return cls(means=means, stds=stds)

    @classmethod
    def identity(cls, n_features: int) -> "Standardizer":
        return cls(means=np.zeros(n_features), stds=np.ones(n_features))

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.means) / self.stds

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        return np.asarray(Z, dtype=float) * self.stds + self.means


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights 1/(2r) and 1/(2(1-r)) from the recession ratio r."""

    recession_ratio: float
    w_pos: float
    w_neg: float

    @classmethod
    def from_targets(cls, targets: np.ndarray) -> "ClassWeights":
        """Weights from the positive fraction of the TRAINING targets."""
        y = np.asarray(targets, dtype=float)
        r = float(y.mean())
        if r <= 0.0 or r >= 1.0:
            raise SingleClass("both classes must be present to derive class weights")
        return cls(recession_ratio=r, w_pos=1.0 / (2.0 * r), w_neg=1.0 / (2.0 * (1.0 - r)))

    @property
    def oversampling_factor(self) -> float:
        """How many times each recession month is effectively repeated."""
        r = self.recession_ratio
        return (1.0 - r) / r

    def per_row(self, targets: np.ndarray) -> np.ndarray:
        y = np.asarray(targets, dtype=float)
        return np.where(y == 1.0, self.w_pos, self.w_neg)


@dataclass(frozen=True)
class LogitProblem:
    """A weighted, penalized logistic fit problem on standardized features."""

    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None = None
    penalty_mask: np.ndarray | None = None
    lam: float = 0.0

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.targets, dtype=float)
        n, p = X.shape
        if y.shape != (n,):
            raise ValueError("targets length does not match features")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("targets must be binary")
        w = np.ones(n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (n,) or np.any(w <= 0.0):
            raise ValueError("weights must be positive, one per row")
        mask = (
            np.ones(p, dtype=bool)
            if self.penalty_mask is None
            else np.asarray(self.penalty_mask, dtype=bool)
        )
        if mask.shape != (p,):
            raise ValueError("penalty_mask length does not match feature count")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "penalty_mask", mask)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LogitFit:
    """A fitted logistic model in standardized and original scales."""

    intercept_std: float
    coefs_std: np.ndarray
    intercept_orig: float
    coefs_orig: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    kkt_residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefs_std", np.asarray(self.coefs_std, dtype=float))
        object.__setattr__(self, "coefs_orig", np.asarray(self.coefs_orig, dtype=float))


def predict_proba(intercept: float, coefs: np.ndarray, x: np.ndarray) -> "float | np.ndarray":
    """phi(-intercept - coefs.x), clamped to [1e-300, 1 - 1e-16].

    ``x`` may be one feature vector (returns a float) or a matrix with one
    row per observation (returns a vector). Stable for arguments up to
    |700| and beyond: saturated values hit the clamp instead of overflowing.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    a = -(intercept + X @ np.asarray(coefs, dtype=float))
    out = np.empty_like(a)
    pos = a >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    out = np.clip(out, PROB_FLOOR, PROB_CEIL)
    return float(out[0]) if single else out


def weighted_nll(problem: LogitProblem, intercept: float, coefs: np.ndarray) -> float:
    """-sum_i w_i [y_i ln p_i + (1-y_i) ln(1-p_i)], finite by clamping."""
    p = predict_proba(intercept, coefs, problem.features)
    y, w = problem.targets, problem.weights
    return float(-np.sum(w * (y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def nll_gradient(
    problem: LogitProblem, intercept: float, coefs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Gradient of ``weighted_nll`` w.r.t. (intercept, coefs).

    Under the negated convention d/db_j = sum_i w_i (p_i - y_i)(-x_ij),
    i.e. sum_i w_i (y_i - p_i) x_ij.
    """
    p = predict_proba(intercept, coefs, problem.features)
    r = problem.weights * (problem.targets - p)
    return float(np.sum(r)), problem.features.T @ r


def _pseudo_gradient(g: np.ndarray, beta: np.ndarray, pen: np.ndarray, lam: float) -> np.ndarray:
    """Minimum-norm subgradient of J over (intercept, coefs); its largest
    absolute entry equals ``kkt_residual``, which stays the independent
    reference.

    For penalized j: g_j + lambda*sign(b_j) when b_j != 0, else g_j shrunk
    toward zero by lambda; for the intercept and unpenalized features, g_j.
    """
    shrunk = np.sign(g) * np.maximum(np.abs(g) - lam, 0.0)
    return np.where(pen, np.where(beta != 0.0, g + lam * np.sign(beta), shrunk), g)


def kkt_residual(problem: LogitProblem, intercept: float, coefs: np.ndarray) -> float:
    """Max violation of the first-order optimality conditions of J.

    For penalized j: |g_j| <= lambda when b_j = 0 and g_j = -lambda*sign(b_j)
    otherwise; for the intercept and unpenalized features g must vanish.
    """
    g0, g = nll_gradient(problem, intercept, coefs)
    lam, mask = problem.lam, problem.penalty_mask
    b = np.asarray(coefs, dtype=float)
    res = abs(g0)
    pen_nz = mask & (b != 0.0)
    pen_z = mask & (b == 0.0)
    if pen_nz.any():
        res = max(res, float(np.max(np.abs(g[pen_nz] + lam * np.sign(b[pen_nz])))))
    if pen_z.any():
        res = max(res, max(float(np.max(np.abs(g[pen_z]))) - lam, 0.0))
    free = ~mask
    if free.any():
        res = max(res, float(np.max(np.abs(g[free]))))
    return res


def destandardize(
    intercept: float, coefs: np.ndarray, standardizer: Standardizer
) -> tuple[float, np.ndarray]:
    """Map standardized-scale parameters to the original feature scale.

    The probability of every row is unchanged:

        b_orig_j = b_std_j / std_j
        b0_orig  = b0_std - sum_j b_std_j * mean_j / std_j
    """
    b0, b, std = float(intercept), np.asarray(coefs, dtype=float), standardizer
    if len(std.means) != len(b):
        raise ValueError("standardizer feature count does not match coefficients")
    coefs_orig = b / std.stds
    intercept_orig = b0 - float(np.sum(b * std.means / std.stds))
    return intercept_orig, coefs_orig


class _Point(NamedTuple):
    """J, its gradient, its pseudo-gradient and the KKT residual (the
    largest pseudo-gradient entry) at beta = (intercept, coefs)."""

    beta: np.ndarray
    prob: np.ndarray
    objective: float
    grad: np.ndarray
    pseudo_grad: np.ndarray
    kkt: float


class _FusedObjective:
    """J on one problem, evaluated in one fused pass per point.

    The design matrix ``[1 | X]`` is built once. The NLL is summed from the
    margins, softplus((2y - 1)(b0 + x.b)), so its rounding stays far below
    the decrease of a Newton step near the optimum; summing log(1 - p) from
    the clamped p loses 1e-10 and more once some p rounds near 1, and the
    line search then cannot tell a Newton step from noise.
    """

    def __init__(self, problem: LogitProblem, lam: float) -> None:
        self.problem = problem
        self.lam = lam
        self.design = np.column_stack([np.ones(problem.n_rows), problem.features])
        self.pen = np.concatenate([[False], problem.penalty_mask]) & (lam > 0.0)
        self._prox_step = 1.0

    def at(self, beta: np.ndarray) -> _Point:
        prob = self.problem
        p = predict_proba(beta[0], beta[1:], prob.features)
        margins = (2.0 * prob.targets - 1.0) * (self.design @ beta)
        objective = float(np.sum(prob.weights * np.logaddexp(0.0, margins)))
        objective += self.lam * float(np.abs(beta[self.pen]).sum())
        g = self.design.T @ (prob.weights * (prob.targets - p))
        pg = _pseudo_gradient(g, beta, self.pen, self.lam)
        return _Point(beta, p, objective, g, pg, float(np.max(np.abs(pg))))

    def hessian(self, pt: _Point, idx: np.ndarray) -> np.ndarray:
        """NLL Hessian over the entries ``idx`` of beta."""
        s = self.problem.weights * pt.prob * (1.0 - pt.prob)
        A = self.design[:, idx]
        return A.T @ (s[:, None] * A)

    def line_search(
        self, pt: _Point, idx: np.ndarray, step: np.ndarray, orthant: np.ndarray
    ) -> _Point | None:
        """First of beta - t*step (t = 1, 1/2, ...) that does not raise J.

        Entries that leave ``orthant`` are clipped to exactly zero. J may rise
        by DESCENT_SLACK relative: near the optimum the true decrease is
        below J's rounding, and a strict test would halve for nothing.
        """
        limit = pt.objective + DESCENT_SLACK * abs(pt.objective)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            beta = pt.beta.copy()
            beta[idx] -= t * step
            beta[orthant * beta < 0.0] = 0.0
            new = self.at(beta)
            if new.objective <= limit:
                return new
            t *= 0.5
        return None

    def newton_step(self, pt: _Point) -> _Point | None:
        """Projected Newton step on the active orthant; None if it cannot descend.

        Active entries are the free ones, the nonzero ones and the zero ones
        that violate KKT (|g_j| > lambda). A penalized entry keeps the sign of
        its coefficient or, at zero, of the negative pseudo-gradient. A zero
        entry whose Newton step points out of that orthant would only be
        clipped back; it is dropped and the system solved again, because
        keeping it bends the step of the others (on near-separable panels the
        cold start otherwise crawls for thousands of iterations).
        """
        b, pg = pt.beta, pt.pseudo_grad
        orthant = np.where(b != 0.0, np.sign(b), -np.sign(pg)) * self.pen
        active = ~self.pen | (b != 0.0) | (pg != 0.0)
        while True:
            idx = np.flatnonzero(active)
            try:
                step = np.linalg.solve(self.hessian(pt, idx), pg[idx])
            except np.linalg.LinAlgError:
                return None
            leaving = (b[idx] == 0.0) & (orthant[idx] * step > 0.0)
            if not leaving.any():
                break
            active[idx[leaving]] = False
        if not pg[idx] @ step > 0.0:
            return None  # a numerically singular system gave no descent direction
        return self.line_search(pt, idx, step, orthant)

    def proximal_step(self, pt: _Point) -> _Point | None:
        """Proximal-gradient step that backtracks on the quadratic majorization
        of the NLL, so J cannot rise; None once the step no longer moves.

        The step length carries over between calls and grows by 1.25 after
        each, so flat (near-separable) regions are crossed in long steps.
        """
        b, g, pen, lam = pt.beta, pt.grad, self.pen, self.lam
        t = self._prox_step
        while t >= 1e-18:
            v = b - t * g
            beta = np.where(pen, np.sign(v) * np.maximum(np.abs(v) - t * lam, 0.0), v)
            d = beta - b
            if not d.any():
                return None
            new = self.at(beta)
            bound = pt.objective + g @ d + d @ d / (2.0 * t)
            bound += lam * float(np.abs(beta[pen]).sum() - np.abs(b[pen]).sum())
            if new.objective <= bound + DESCENT_SLACK * abs(bound):
                self._prox_step = 1.25 * t
                return new
            t *= 0.5
        return None


def _make_fit(
    pt: _Point, iterations: int, converged: bool, standardizer: Standardizer | None
) -> LogitFit:
    b0, b = float(pt.beta[0]), pt.beta[1:].copy()
    std = standardizer if standardizer is not None else Standardizer.identity(len(b))
    i_orig, c_orig = destandardize(b0, b, std)
    return LogitFit(
        intercept_std=b0,
        coefs_std=b,
        intercept_orig=i_orig,
        coefs_orig=c_orig,
        objective_value=pt.objective,
        iterations=iterations,
        converged=converged,
        kkt_residual=pt.kkt,
    )


def fit_l1(
    problem: LogitProblem,
    standardizer: Standardizer | None = None,
    start: tuple[float, np.ndarray] | None = None,
    max_iter: int = MAX_ITER_L1,
) -> LogitFit:
    """Minimize NLL + lambda * ||penalized coefs||_1 by active-orthant Newton.

    Each iteration reuses the one evaluation of J, its gradient and the KKT
    residual made at the point the last step accepted, then takes a projected
    Newton step on the active orthant with a descent-only line search; when
    that fails, it takes a proximal-gradient step instead.
    Crossings are clipped to exact zeros. Convergence is the certificate
    ``kkt_residual <= KKT_TOL``; at the iteration cap, or when no step can
    move, the fit is returned with ``converged=False``.
    """
    objective = _FusedObjective(problem, problem.lam)
    beta = np.zeros(problem.n_features + 1)
    if start is not None:
        beta[0], beta[1:] = start[0], start[1]
    pt = objective.at(beta)
    iterations = 0
    while pt.kkt > KKT_TOL and iterations < max_iter:
        nxt = objective.newton_step(pt)
        if nxt is None:
            nxt = objective.proximal_step(pt)
            if nxt is None:
                break
        pt = nxt
        iterations += 1
    return _make_fit(pt, iterations, pt.kkt <= KKT_TOL, standardizer)


def fit_mle(
    problem: LogitProblem,
    standardizer: Standardizer | None = None,
    grad_tol: float = 1e-9,
    max_iter: int = 200,
) -> LogitFit:
    """Unpenalized MLE by Newton-Raphson with step halving.

    Raises Separation when the iterates diverge (logistic MLE has no finite
    optimum under quasi-separation): either the coefficient norm passes 1e4
    or the fit saturates, classifying every row perfectly to within 1e-8,
    which is where the vanishing gradient would otherwise halt Newton.
    Raises Singular when the Hessian cannot be inverted.
    """
    if np.unique(problem.targets).size < 2:
        raise SingleClass("logistic MLE needs both classes in the training targets")
    objective = _FusedObjective(problem, 0.0)
    everything = np.arange(problem.n_features + 1)
    no_orthant = np.zeros(problem.n_features + 1)
    pt = objective.at(np.zeros(problem.n_features + 1))
    iterations = 0
    while pt.kkt > grad_tol and iterations < max_iter:
        try:
            step = np.linalg.solve(objective.hessian(pt, everything), pt.grad)
        except np.linalg.LinAlgError:
            raise Singular("Hessian is singular; features may be collinear") from None
        if not np.all(np.isfinite(step)):
            raise Singular("Newton step is non-finite")
        nxt = objective.line_search(pt, everything, step, no_orthant)
        if nxt is None:
            break  # cannot descend along the Newton direction; keep the current point
        pt = nxt
        iterations += 1
        if float(np.max(np.abs(pt.beta))) > SEPARATION_NORM:
            raise Separation(
                "coefficient norm exceeded 1e4; data appears linearly separable"
            )
    converged = pt.kkt <= grad_tol
    if converged and float(np.max(np.abs(problem.targets - pt.prob))) < 1e-8:
        raise Separation(
            "fit saturated to a perfect classification; data appears linearly separable"
        )
    return _make_fit(pt, iterations, converged, standardizer)


def null_model_lambda_bound(
    features_std: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
    penalty_mask: np.ndarray | None = None,
) -> float:
    """Smallest lambda at which every penalized coefficient can sit at zero.

    The "null model" fits the intercept and any unpenalized features freely;
    the KKT condition for a zero penalized coefficient there is
    |g_j| <= lambda, so the bound is the largest penalized |g_j|.
    """
    X = np.atleast_2d(np.asarray(features_std, dtype=float))
    y = np.asarray(targets, dtype=float)
    n, p = X.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    mask = np.ones(p, dtype=bool) if penalty_mask is None else np.asarray(penalty_mask, bool)
    if not mask.any():
        return 0.0
    if mask.all():
        # intercept-only optimum: every fitted probability equals the
        # weighted positive fraction
        p_bar = float(np.sum(w * y) / np.sum(w))
        if p_bar <= 0.0 or p_bar >= 1.0:
            raise SingleClass("both classes required to bound lambda")
        g = X.T @ (w * (y - p_bar))
        return float(np.max(np.abs(g[mask])))
    free = np.flatnonzero(~mask)
    sub = LogitProblem(features=X[:, free], targets=y, weights=w)
    base = fit_mle(sub)
    full = np.zeros(p)
    full[free] = base.coefs_std
    _, g = nll_gradient(LogitProblem(features=X, targets=y, weights=w), base.intercept_std, full)
    return float(np.max(np.abs(g[mask])))
