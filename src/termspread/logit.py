"""Logistic regression with an L1 penalty, under the negated-sign convention.

The recession probability for a feature row x is phi(-b0 - b.x) with
phi(z) = 1 / (1 + exp(-z)), so the probability RISES as the linear
combination of yields FALLS. All optimization runs on z-scored features;
coefficients are reported in both scales.

The L1 objective is

    J(b0, b) = NLL(b0, b) + lambda * sum_j(penalized) |b_j|

where NLL is the weighted negative log likelihood SUMMED over rows (not
averaged), the intercept is never penalized, and the penalty mask can
exempt individual features. A ``LogitProblem`` holds the data only;
lambda is the argument of each fit. ``fit_l1`` minimizes J by active-orthant
Newton (after OWL-QN, Andrew & Gao 2007): every iteration makes one fused
evaluation of J, its gradient and the curvature weights w*p*(1-p), all from
one product [1 | X] b, which give the KKT residual, the Newton system on
the active orthant and the certificate stored in ``LogitFit``;
coefficients that cross zero are clipped to exactly zero, a clipped step
that fails is retried at the first zero crossing before it halves, and a
proximal-gradient step is taken only when the Newton step fails to
descend. Every fit runs from a ``PathStart``, which builds [1 | X] and the
other per-path constants once, starts at zero or at a given fit, and
carries each optimum into the fit at the next lambda, re-priced without a
new evaluation. Once it holds three certified optima with one sign pattern,
it also extrapolates them quadratically in log lambda (Park & Hastie's
predictor, 3 b1 - 3 b2 + b3 on the grid) and starts from that prediction
when it keeps the sign pattern and lowers J below the carried point's.
``fit_mle`` solves the unpenalized problem by Newton-Raphson with step
halving on the same evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotConverged, Separation, SingleClass, Singular

PROB_FLOOR = 1e-300
PROB_CEIL = 1.0 - 1e-16

KKT_TOL = 1e-7
DESCENT_SLACK = 1e-13
MAX_HALVINGS = 40
MAX_ITER_L1 = 100_000
MLE_GRAD_TOL = 1e-9
MAX_ITER_MLE = 200
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
    """A fitted logistic model in standardized and original scales.

    ``evaluations`` counts the fused evaluations of J the fit made: every
    line-search and proximal trial, and the start point unless it was
    carried from the previous fit of a path.
    """

    intercept_std: float
    coefs_std: np.ndarray
    intercept_orig: float
    coefs_orig: np.ndarray
    objective_value: float
    iterations: int
    evaluations: int
    converged: bool
    kkt_residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefs_std", np.asarray(self.coefs_std, dtype=float))
        object.__setattr__(self, "coefs_orig", np.asarray(self.coefs_orig, dtype=float))


def _logistic(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """phi(-eta) from e = exp(-|eta|), clamped to [1e-300, 1 - 1e-16]:
    1/(1 + e) where eta <= 0 and e/(1 + e) elsewhere, so nothing overflows."""
    p = np.where(eta <= 0.0, 1.0, e)
    p /= 1.0 + e
    np.maximum(p, PROB_FLOOR, out=p)
    return np.minimum(p, PROB_CEIL, out=p)


def predict_proba(intercept: float, coefs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """phi(-intercept - coefs.x) for each row x of the matrix ``X``, clamped
    to [1e-300, 1 - 1e-16].

    Stable for arguments up to |700| and beyond: saturated values hit the
    clamp instead of overflowing.
    """
    eta = intercept + np.asarray(X, dtype=float) @ np.asarray(coefs, dtype=float)
    return _logistic(eta, np.exp(-np.abs(eta)))


def weighted_nll(problem: LogitProblem, intercept: float, coefs: np.ndarray) -> float:
    """-sum_i w_i [y_i ln p_i + (1-y_i) ln(1-p_i)], exact for any coefficients.

    With eta_i = b0 + x_i.b, -ln p_i = softplus(eta_i) and -ln(1-p_i) =
    softplus(-eta_i), so each row costs softplus(m_i) with the margin
    m_i = (2y_i - 1) eta_i, summed as logaddexp(0, m) without clamping any
    probability. Written apart from the solver's own evaluation, so that
    tests can check its objective against this one.
    """
    eta = intercept + problem.features @ np.asarray(coefs, dtype=float)
    m = (2.0 * problem.targets - 1.0) * eta
    return float(np.sum(problem.weights * np.logaddexp(0.0, m)))


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
    pg = np.abs(g)
    pg -= lam
    np.maximum(pg, 0.0, out=pg)
    pg *= np.sign(g)
    moved = np.sign(beta)
    moved *= lam
    moved += g
    np.copyto(pg, moved, where=beta != 0.0)
    np.copyto(pg, g, where=~pen)
    return pg


def kkt_residual(
    problem: LogitProblem, lam: float, intercept: float, coefs: np.ndarray
) -> float:
    """Max violation of the first-order optimality conditions of J at ``lam``.

    For penalized j: |g_j| <= lambda when b_j = 0 and g_j = -lambda*sign(b_j)
    otherwise; for the intercept and unpenalized features g must vanish.
    """
    g0, g = nll_gradient(problem, intercept, coefs)
    mask = problem.penalty_mask
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
    """The NLL, J, the NLL gradient, the pseudo-gradient and the KKT residual
    (the largest pseudo-gradient entry) at beta = (intercept, coefs)."""

    beta: np.ndarray
    prob: np.ndarray
    nll: float
    objective: float
    grad: np.ndarray
    pseudo_grad: np.ndarray
    kkt: float


def _first_crossing(
    b: np.ndarray, step: np.ndarray, orthant: np.ndarray, idx: np.ndarray
) -> tuple[float, np.ndarray]:
    """The t < 1 at which the first signed entry of b - t*step reaches zero,
    and the entries of ``idx`` that reach it there; (1/2, none) when no
    entry crosses before the full step."""
    crossing = (orthant != 0.0) & (b * step > 0.0) & (np.abs(b) < np.abs(step))
    if not crossing.any():
        return 0.5, idx[:0]
    ratio = b[crossing] / step[crossing]
    t = float(ratio.min())
    return t, idx[crossing][ratio == t]


class _FusedObjective:
    """J on one problem at one lambda, evaluated in one fused pass per point.

    Each evaluation makes one product eta = [1 | X] beta and derives both the
    probabilities and the NLL from it. The NLL is summed from the margins,
    softplus((2y - 1) eta), so its rounding stays far below the decrease of
    a Newton step near the optimum; summing log(1 - p) from the clamped p
    loses 1e-10 and more once some p rounds near 1, and the line search then
    cannot tell a Newton step from noise. ``evaluations`` counts them.
    """

    def __init__(self, start: PathStart, lam: float) -> None:
        self.start = start
        self.problem = start.problem
        self.lam = lam
        self.design = start.design
        self.pen = start.pen if lam > 0.0 else start.no_pen
        self._prox_step = 1.0
        self.evaluations = 0

    def at(self, beta: np.ndarray) -> _Point:
        self.evaluations += 1
        start, weights = self.start, self.problem.weights
        eta = self.design @ beta
        e = np.abs(eta)
        np.negative(e, out=e)
        np.exp(e, out=e)
        p = _logistic(eta, e)
        softplus = start.signs * eta
        np.maximum(softplus, 0.0, out=softplus)
        softplus += np.log1p(e, out=e)
        softplus *= weights
        residual = self.problem.targets - p
        residual *= weights
        return self._priced(beta, p, float(softplus.sum()), start.design_t @ residual)

    def carried(self, pt: _Point) -> _Point:
        """``pt``, found at another lambda, priced at this one.

        Only the penalty depends on lambda, so the probabilities, the NLL and
        its gradient carry over and no matrix product is needed.
        """
        return self._priced(pt.beta, pt.prob, pt.nll, pt.grad)

    def _priced(self, beta: np.ndarray, p: np.ndarray, nll: float, g: np.ndarray) -> _Point:
        objective = nll + self.lam * float(np.abs(beta[self.pen]).sum())
        pg = _pseudo_gradient(g, beta, self.pen, self.lam)
        return _Point(beta, p, nll, objective, g, pg, float(np.abs(pg).max()))

    def hessian(self, pt: _Point, idx: np.ndarray) -> np.ndarray:
        """NLL Hessian over the entries ``idx`` of beta."""
        s = self.problem.weights * pt.prob * (1.0 - pt.prob)
        A = self.design[:, idx]
        return A.T @ (s[:, None] * A)

    def line_search(
        self, pt: _Point, idx: np.ndarray, step: np.ndarray, orthant: np.ndarray
    ) -> _Point | None:
        """First of beta - t*step that does not raise J.

        Entries that leave ``orthant`` are clipped to exactly zero. When the
        full step (t = 1) clips an entry and fails, the next trial is the t
        at which the first entry reaches zero, with that entry set to exactly
        zero; halving then goes on from there (from t = 1/2 when nothing is
        clipped). J may rise by DESCENT_SLACK relative: near the optimum the
        true decrease is below J's rounding, and a strict test would halve
        for nothing.
        """
        limit = pt.objective + DESCENT_SLACK * abs(pt.objective)
        t, first_zeros = 1.0, idx[:0]
        for trial in range(MAX_HALVINGS):
            beta = pt.beta.copy()
            beta[idx] -= t * step
            beta[orthant * beta < 0.0] = 0.0
            beta[first_zeros] = 0.0
            new = self.at(beta)
            if new.objective <= limit:
                return new
            if trial == 0:
                t, first_zeros = _first_crossing(pt.beta[idx], step, orthant[idx], idx)
            else:
                t, first_zeros = 0.5 * t, idx[:0]
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
        nonzero = b != 0.0
        orthant = np.where(nonzero, np.sign(b), -np.sign(pg)) * self.pen
        active = ~self.pen | nonzero | (pg != 0.0)
        while True:
            idx = np.flatnonzero(active)
            try:
                step = np.linalg.solve(self.hessian(pt, idx), pg[idx])
            except np.linalg.LinAlgError:
                return None
            leaving = ~nonzero[idx] & (orthant[idx] * step > 0.0)
            if not leaving.any():
                break
            active[idx[leaving]] = False
        if not pg[idx] @ step > 0.0:
            return None  # a numerically singular system gave no descent direction
        return self.line_search(pt, idx, step, orthant)

    def proximal_step(self, pt: _Point) -> _Point | None:
        """Proximal-gradient step that backtracks on the quadratic majorization
        of the NLL, so J cannot rise; None once the step no longer moves.

        The step length carries over between the calls of one fit and grows
        by 1.25 after each, so flat (near-separable) regions are crossed in
        long steps; each fit starts again at 1.
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
    pt: _Point, objective: _FusedObjective, iterations: int, converged: bool,
    standardizer: Standardizer | None,
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
        evaluations=objective.evaluations,
        converged=converged,
        kkt_residual=pt.kkt,
    )


class PathStart:
    """Where fits of one problem start, carrying each optimum to the next.

    The first fit starts at ``fit``'s standardized coefficients, or at zero
    when ``fit`` is None. Pass the same start to ``fit_l1`` for every lambda
    of one path, in order: between grid points only the penalty changes, so
    the probabilities, the NLL and its gradient at the last optimum stay
    valid, and each later fit re-prices them at its own lambda instead of
    evaluating them again.

    The start also keeps the last three certified optima and their lambdas.
    When the carried point is not already optimal, the three share one sign
    pattern of the penalized coefficients, and their quadratic extrapolation
    in log lambda keeps it, J is evaluated at that prediction, and the fit
    starts there if J is lower than at the carried point. The sign guard
    keeps a prediction from moving a coefficient across or off zero, which
    the Newton steps decide. A fresh start has no optima, so its first
    three fits start as a warm start would.

    The design ``[1 | X]``, its transpose, 2y - 1 and the penalty mask
    extended by the intercept (and its all-false twin for lambda = 0) are
    built here, once per path. Nothing of this state goes into the returned
    fits.
    """

    def __init__(self, problem: LogitProblem, fit: LogitFit | None = None) -> None:
        self.problem = problem
        self.design = np.column_stack([np.ones(problem.n_rows), problem.features])
        self.design_t = self.design.T
        self.signs = 2.0 * problem.targets - 1.0
        self.pen = np.concatenate([[False], problem.penalty_mask])
        self.no_pen = np.zeros_like(self.pen)
        self.beta = np.zeros(problem.n_features + 1)
        if fit is not None:
            self.beta[0], self.beta[1:] = fit.intercept_std, fit.coefs_std
        self.point: _Point | None = None
        self.optima: list[tuple[float, np.ndarray, bytes]] = []

    def first_point(self, objective: _FusedObjective) -> _Point:
        """Where the fit at ``objective.lam`` starts: the carried optimum
        re-priced, or the predicted point when its J is lower."""
        if self.point is None:
            return objective.at(self.beta)
        carried = objective.carried(self.point)
        if carried.kkt <= KKT_TOL:
            return carried
        guess = self._predicted(objective.lam)
        if guess is None:
            return carried
        trial = objective.at(guess)
        return trial if trial.objective < carried.objective else carried

    def _predicted(self, lam: float) -> np.ndarray | None:
        """The last three optima extrapolated quadratically in log lambda to
        ``lam`` (3 b1 - 3 b2 + b3 on the grid), or None unless they and the
        extrapolation share one sign pattern of the penalized entries."""
        if len(self.optima) < 3:
            return None
        (l3, b3, s3), (l2, b2, s2), (l1, b1, s1) = self.optima
        if not s1 == s2 == s3 or min(lam, l1, l2, l3) <= 0.0:
            return None
        x, x1, x2, x3 = (math.log(v) for v in (lam, l1, l2, l3))
        if len({x, x1, x2, x3}) < 4:
            return None
        guess = (
            (x - x2) * (x - x3) / ((x1 - x2) * (x1 - x3)) * b1
            + (x - x1) * (x - x3) / ((x2 - x1) * (x2 - x3)) * b2
            + (x - x1) * (x - x2) / ((x3 - x1) * (x3 - x2)) * b3
        )
        return guess if self._signs_of(guess) == s1 else None

    def _signs_of(self, beta: np.ndarray) -> bytes:
        """The sign pattern of the penalized entries, -0.0 read as 0.0."""
        return (np.sign(beta[self.pen]) + 0.0).tobytes()

    def record(self, pt: _Point, lam: float, certified: bool) -> None:
        """Carry ``pt`` to the next fit; keep it as one of the last three
        optima if it is certified, else forget them."""
        self.point = pt
        optimum = (lam, pt.beta, self._signs_of(pt.beta))
        self.optima = (self.optima + [optimum])[-3:] if certified else []


def fit_l1(
    problem: LogitProblem,
    lam: float,
    standardizer: Standardizer | None = None,
    start: PathStart | None = None,
) -> LogitFit:
    """Minimize NLL + lam * ||penalized coefs||_1 by active-orthant Newton.

    ``start`` is a ``PathStart`` of ``problem`` (None means
    ``PathStart(problem)``, a cold start at zero); the fit continues from
    its last optimum, or from the optimum it predicts, and leaves its own
    there. Each iteration reuses the one
    evaluation of J, its gradient and the KKT residual made at the point the
    last step accepted, then takes a projected Newton step on the active
    orthant with a descent-only line search; when that fails, it takes a
    proximal-gradient step instead.
    Crossings are clipped to exact zeros. Convergence is the certificate
    ``kkt_residual <= KKT_TOL``; after MAX_ITER_L1 iterations, or when no
    step can move, the fit is returned with ``converged=False``.
    """
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    start = PathStart(problem) if start is None else start
    if start.problem is not problem:
        raise ValueError("start belongs to another problem")
    objective = _FusedObjective(start, lam)
    pt = start.first_point(objective)
    iterations = 0
    while pt.kkt > KKT_TOL and iterations < MAX_ITER_L1:
        nxt = objective.newton_step(pt)
        if nxt is None:
            nxt = objective.proximal_step(pt)
            if nxt is None:
                break
        pt = nxt
        iterations += 1
    start.record(pt, lam, pt.kkt <= KKT_TOL)
    return _make_fit(pt, objective, iterations, pt.kkt <= KKT_TOL, standardizer)


def fit_mle(problem: LogitProblem, standardizer: Standardizer | None = None) -> LogitFit:
    """Unpenalized MLE by Newton-Raphson with step halving.

    Every returned fit is certified: its largest gradient entry is at most
    MLE_GRAD_TOL. Raises NotConverged, naming the iterations and that entry,
    when MAX_ITER_MLE iterations or a stalled line search leave it above.

    Raises Separation when the iterates diverge (logistic MLE has no finite
    optimum under quasi-separation): either the coefficient norm passes 1e4
    or the fit saturates, classifying every row perfectly to within 1e-8,
    which is where the vanishing gradient would otherwise halt Newton.
    Raises Singular when the Hessian cannot be inverted.
    """
    if np.unique(problem.targets).size < 2:
        raise SingleClass("logistic MLE needs both classes in the training targets")
    objective = _FusedObjective(PathStart(problem), 0.0)
    everything = np.arange(problem.n_features + 1)
    no_orthant = np.zeros(problem.n_features + 1)
    pt = objective.at(np.zeros(problem.n_features + 1))
    iterations = 0
    while pt.kkt > MLE_GRAD_TOL and iterations < MAX_ITER_MLE:
        try:
            step = np.linalg.solve(objective.hessian(pt, everything), pt.grad)
        except np.linalg.LinAlgError:
            raise Singular("Hessian is singular; features may be collinear") from None
        if not np.all(np.isfinite(step)):
            raise Singular("Newton step is non-finite")
        nxt = objective.line_search(pt, everything, step, no_orthant)
        if nxt is None:
            break  # cannot descend along the Newton direction
        pt = nxt
        iterations += 1
        if float(np.max(np.abs(pt.beta))) > SEPARATION_NORM:
            raise Separation(
                "coefficient norm exceeded 1e4; data appears linearly separable"
            )
    if pt.kkt > MLE_GRAD_TOL:
        raise NotConverged(
            f"MLE did not converge after {iterations} iterations; largest gradient "
            f"entry {pt.kkt:.3g} > {MLE_GRAD_TOL:g}"
        )
    if float(np.max(np.abs(problem.targets - pt.prob))) < 1e-8:
        raise Separation(
            "fit saturated to a perfect classification; data appears linearly separable"
        )
    return _make_fit(pt, objective, iterations, True, standardizer)


def null_model_lambda_bound(problem: LogitProblem) -> float:
    """Smallest lambda at which every penalized coefficient can sit at zero.

    The "null model" is the MLE of the intercept and any unpenalized
    features (the intercept alone when every feature is penalized); the KKT
    condition for a zero penalized coefficient there is |g_j| <= lambda, so
    the bound is the largest penalized |g_j|.
    """
    mask = problem.penalty_mask
    if not mask.any():
        return 0.0
    free = np.flatnonzero(~mask)
    base = fit_mle(LogitProblem(problem.features[:, free], problem.targets, problem.weights))
    beta = np.zeros(problem.n_features + 1)
    beta[0], beta[1 + free] = base.intercept_std, base.coefs_std
    g = _FusedObjective(PathStart(problem), 0.0).at(beta).grad[1:]
    return float(np.max(np.abs(g[mask])))
