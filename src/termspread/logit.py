"""Logistic regression with an L1 penalty, under the negated-sign convention.

The recession probability for a feature row x is phi(-b0 - b.x) with
phi(z) = 1 / (1 + exp(-z)), so the probability RISES as the linear
combination of yields FALLS. All optimization runs on z-scored features:
a ``LogitFit`` is the solver's point in the scale of its ``LogitProblem``,
whose ``original`` maps it to the input scale where a number is reported
(``selection`` and ``models``).

The L1 objective is

    J(b0, b) = NLL(b0, b) + lambda * sum_j(penalized) |b_j|

where NLL is the weighted negative log likelihood SUMMED over rows (not
averaged), the intercept is never penalized, and the penalty mask can
exempt individual features. A ``LogitProblem`` holds the data and builds
[1 | X], 2y - 1 and the penalty flags once: ``penalty_mask`` per feature
and ``penalized`` per coefficient, intercept first; lambda is the argument
of each fit. ``fit_l1(start, lam)`` minimizes J by active-orthant
Newton (after OWL-QN, Andrew & Gao 2007): every iteration makes one fused
evaluation of J, its gradient and the curvature weights w*p*(1-p), all from
one product [1 | X] b, which give the KKT residual and the Newton system
on the active orthant. The residual at the optimum is the one certificate a
``LogitFit`` stores: it is converged when that is at most KKT_TOL;
coefficients that cross zero are clipped to exactly zero, a clipped step
that fails is retried at the first zero crossing before it halves, and a
proximal-gradient step is taken only when the Newton step fails to
descend. Every fit runs from a ``PathStart`` of its problem, which starts at
zero or at a given fit and carries each optimum into the fit at the next
lambda, re-priced without a new evaluation; the start is the fit's only
input besides lambda. Once it holds three certified optima with one sign
pattern, it also extrapolates them quadratically in log lambda (Park &
Hastie's predictor, 3 b1 - 3 b2 + b3 on the grid) and starts from that
prediction when it keeps the sign pattern and lowers J below the carried
point's. ``fit_mle`` solves the unpenalized problem with the same Newton
step, taken at lambda = 0; only it lets a singular Hessian raise.

NumPy does only the work that touches the rows: the fused evaluation,
the Hessian product over the active columns (the design itself when all
are active) and ``np.linalg.solve``. Everything over the ten or so
coefficients (the pseudo-gradient, penalty and KKT residual of a point,
the orthant, active set, finiteness and descent test of a Newton step, the
line search's trial points, and the sign patterns, log lambdas and
prediction of a ``PathStart``) runs on Python floats from ``tolist()``,
because at that size a NumPy call costs a fixed dispatch larger than its
arithmetic. Sums run in index order, so J can differ from NumPy's in its
last bit; the design stays row-major, which keeps identical columns tied.
The one exception is ``proximal_step``, the fallback for a Newton step that
fails to descend, which does its coefficient arithmetic in NumPy: it made
no call in the plain or weighted runs on the test markets (seed 42 and
reseeds 1-10).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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


def constant_mask(X: np.ndarray) -> np.ndarray:
    """Flags the columns of the 2-D ``X`` whose rows are all equal."""
    return (X == X[:1]).all(axis=0)


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


@dataclass(frozen=True, eq=False)
class LogitProblem:
    """A weighted, penalized logistic fit problem on (u - means) / stds of
    the input columns u: their z-scores when built by ``standardized``, else
    the identity scale; ``original`` maps a fit back to the input scale.

    The solver's constants are built here, once per problem: the design
    ``[1 | X]`` (``features`` is its view without the intercept column, so
    the data are held once), 2y - 1, and ``penalized``, the list of the
    ``penalty_mask`` flags after the never-penalized intercept's.
    """

    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None = None
    penalty_mask: np.ndarray | None = None
    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    design: np.ndarray = field(init=False, repr=False)
    signs: np.ndarray = field(init=False, repr=False)
    penalized: list[bool] = field(init=False, repr=False)

    @classmethod
    def standardized(
        cls, features: np.ndarray, targets: np.ndarray,
        weights: np.ndarray | None = None, penalty_mask: np.ndarray | None = None,
    ) -> LogitProblem:
        """The problem on the z-scores of the input rows ``features``, by the
        population standard deviation (divide by n). Rejects a column whose
        rows are all equal, whatever rounding leaves in its standard
        deviation, and one whose standard deviation is 0."""
        U = np.atleast_2d(np.asarray(features, dtype=float))
        means = U.mean(axis=0)
        stds = U.std(axis=0)  # population variance, ddof=0
        bad = np.flatnonzero(constant_mask(U) | (stds == 0.0))
        if bad.size:
            raise ValueError(f"constant feature column(s): {bad.tolist()}")
        return cls((U - means) / stds, targets, weights, penalty_mask, means, stds)

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.targets, dtype=float)
        n, p = X.shape
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        means = np.zeros(p) if self.means is None else np.asarray(self.means, dtype=float)
        stds = np.ones(p) if self.stds is None else np.asarray(self.stds, dtype=float)
        if means.shape != (p,) or stds.shape != (p,):
            raise ValueError("means and stds must hold one value per feature")
        if not (np.all(np.isfinite(means)) and np.all((stds > 0.0) & np.isfinite(stds))):
            raise ValueError("means must be finite and stds strictly positive and finite")
        if y.shape != (n,):
            raise ValueError("targets length does not match features")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("targets must be binary")
        w = np.ones(n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (n,) or not np.all((w > 0.0) & np.isfinite(w)):
            raise ValueError("weights must be positive and finite, one per row")
        mask = (
            np.ones(p, dtype=bool)
            if self.penalty_mask is None
            else np.asarray(self.penalty_mask, dtype=bool)
        )
        if mask.shape != (p,):
            raise ValueError("penalty_mask length does not match feature count")
        design = np.column_stack([np.ones(n), X])
        object.__setattr__(self, "features", design[:, 1:])
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "penalty_mask", mask)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "signs", 2.0 * y - 1.0)
        object.__setattr__(self, "penalized", [False, *mask.tolist()])

    def original(self, fit: LogitFit) -> tuple[float, np.ndarray]:
        """The fit's intercept and coefficients on the input scale, b0 - sum_j
        b_j * mean_j / std_j and b_j / std_j: every row's probability is kept."""
        b = fit.coefs_std
        if len(b) != len(self.stds):
            raise ValueError("problem feature count does not match coefficients")
        return fit.intercept_std - float((b * self.means / self.stds).sum()), b / self.stds


@dataclass(frozen=True, eq=False)
class LogitFit:
    """A fitted logistic model in the scale of the problem it solved: the
    standardized one when the features were z-scored, which the problem's
    ``original`` maps back.

    ``evaluations`` counts the fused evaluations of J the fit made: every
    line-search and proximal trial, and the start point unless it was
    carried from the previous fit of a path. ``kkt_residual`` is the fit's
    optimality certificate, and ``converged`` is read from it.
    """

    intercept_std: float
    coefs_std: np.ndarray
    objective_value: float
    iterations: int
    evaluations: int
    kkt_residual: float

    @property
    def converged(self) -> bool:
        return self.kkt_residual <= KKT_TOL


def _logistic(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """phi(-eta) from e = exp(-|eta|), clamped to [1e-300, 1 - 1e-16]:
    1/(1 + e) where eta <= 0 and e/(1 + e) elsewhere, so nothing overflows."""
    p = np.maximum(e, eta <= 0.0)  # 1 where eta <= 0, as e <= 1; e elsewhere
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


class _Point(NamedTuple):
    """The NLL, J, the NLL gradient, the pseudo-gradient and the KKT residual
    (the largest pseudo-gradient entry) at beta = (intercept, coefs); the
    pseudo-gradient is a list of Python floats."""

    beta: np.ndarray
    prob: np.ndarray
    nll: float
    objective: float
    grad: np.ndarray
    pseudo_grad: list[float]
    kkt: float


def _first_crossing(
    b: list[float], step: list[float], orthant: list[int], idx: list[int]
) -> tuple[float, list[int]]:
    """The t < 1 at which the first signed entry of b - t*step reaches zero,
    and the entries of ``idx`` that reach it there; (1/2, none) when no
    entry crosses before the full step."""
    ratios = [
        (j, b[j] / d) for j, d in zip(idx, step)
        if orthant[j] != 0.0 and b[j] * d > 0.0 and abs(b[j]) < abs(d)
    ]
    if not ratios:
        return 0.5, []
    t = min(r for _, r in ratios)
    return t, [j for j, r in ratios if r == t]


class _FusedObjective:
    """J on one problem at one lambda, evaluated in one fused pass per point.

    Each evaluation makes one product eta = [1 | X] beta and derives both the
    probabilities and the NLL from it. The NLL is summed from the margins,
    softplus((2y - 1) eta), so its rounding stays far below the decrease of
    a Newton step near the optimum; summing log(1 - p) from the clamped p
    loses 1e-10 and more once some p rounds near 1, and the line search then
    cannot tell a Newton step from noise. ``evaluations`` counts them.
    """

    def __init__(self, problem: LogitProblem, lam: float) -> None:
        self.problem = problem
        self.lam = float(lam)
        self.design = problem.design
        self.penalized = [pen and lam > 0.0 for pen in problem.penalized]
        self._prox_step = 1.0
        self.evaluations = 0

    def at(self, beta: np.ndarray) -> _Point:
        self.evaluations += 1
        problem, weights = self.problem, self.problem.weights
        eta = self.design.dot(beta)
        e = np.abs(eta)
        np.negative(e, out=e)
        np.exp(e, out=e)
        p = _logistic(eta, e)
        softplus = problem.signs * eta
        np.maximum(softplus, 0.0, out=softplus)
        softplus += np.log1p(e, out=e)
        residual = problem.targets - p
        residual *= weights
        return self._priced(beta, p, float(weights.dot(softplus)), self.design.T.dot(residual))

    def carried(self, pt: _Point) -> _Point:
        """``pt``, found at another lambda, priced at this one.

        Only the penalty depends on lambda, so the probabilities, the NLL and
        its gradient carry over and no matrix product is needed.
        """
        return self._priced(pt.beta, pt.prob, pt.nll, pt.grad)

    def _priced(self, beta: np.ndarray, p: np.ndarray, nll: float, g: np.ndarray) -> _Point:
        """The point with J and the minimum-norm subgradient of J: g_j for
        the intercept and unpenalized entries, g_j + lambda*sign(b_j) where
        b_j != 0, else g_j shrunk toward zero by lambda."""
        lam, pg, penalty = self.lam, [], 0.0
        for gj, bj, penalized in zip(g.tolist(), beta.tolist(), self.penalized):
            if not penalized:
                pg.append(gj)
                continue
            penalty += abs(bj)
            if bj > 0.0 or bj == 0.0 and gj < -lam:
                pg.append(gj + lam)
            elif bj < 0.0 or gj > lam:
                pg.append(gj - lam)
            else:
                pg.append(0.0)
        return _Point(beta, p, nll, nll + lam * penalty, g, pg, max(map(abs, pg)))

    def line_search(
        self, pt: _Point, idx: list[int], steps: list[float], orthant: list[int]
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
        b = pt.beta.tolist()
        t, first_zeros = 1.0, []
        for trial in range(MAX_HALVINGS):
            beta = b.copy()
            for j, d in zip(idx, steps):
                v = b[j] - t * d
                beta[j] = 0.0 if orthant[j] * v < 0.0 else v
            for j in first_zeros:
                beta[j] = 0.0
            new = self.at(np.array(beta))
            if new.objective <= limit:
                return new
            if trial == 0:
                t, first_zeros = _first_crossing(b, steps, orthant, idx)
            else:
                t, first_zeros = 0.5 * t, []
        return None

    def newton_step(self, pt: _Point) -> _Point | None:
        """Projected Newton step on the active orthant; None if it cannot descend.

        Active entries are the free ones, the nonzero ones and the zero ones
        that violate KKT (|g_j| > lambda). A penalized entry keeps the sign of
        its coefficient or, at zero, of the negative pseudo-gradient. A zero
        entry whose Newton step points out of that orthant would only be
        clipped back; it is dropped and the system solved again, because
        keeping it bends the step of the others (on near-separable panels the
        cold start otherwise crawls for thousands of iterations). Raises
        Singular when the system cannot be solved or its solution is not
        finite; ``fit_mle`` lets it propagate, ``fit_l1`` takes a proximal step.
        """
        b, pg, flags = pt.beta.tolist(), pt.pseudo_grad, self.penalized
        orthant = [((bj > 0.0) - (bj < 0.0) or (gj < 0.0) - (gj > 0.0)) if pen else 0
                   for bj, gj, pen in zip(b, pg, flags)]
        idx = [j for j, pen in enumerate(flags) if not pen or b[j] != 0.0 or pg[j] != 0.0]
        s = self.problem.weights * pt.prob * (1.0 - pt.prob)  # curvature weights
        while True:
            rhs = [pg[j] for j in idx]
            A = self.design if len(idx) == len(b) else self.design[:, idx]
            try:
                step = np.linalg.solve(A.T.dot(s[:, None] * A), rhs).tolist()
            except np.linalg.LinAlgError:
                raise Singular("Hessian is singular; features may be collinear") from None
            staying = [j for j, d in zip(idx, step) if b[j] != 0.0 or not orthant[j] * d > 0.0]
            if len(staying) == len(idx):
                break
            idx = staying
        if not all(map(math.isfinite, step)):
            raise Singular("Newton step is non-finite")
        if not sum(map(operator.mul, rhs, step)) > 0.0:
            return None  # a numerically singular system gave no descent direction
        return self.line_search(pt, idx, step, orthant)

    def proximal_step(self, pt: _Point) -> _Point | None:
        """Proximal-gradient step that backtracks on the quadratic majorization
        of the NLL, so J cannot rise; None once the step no longer moves.

        The step length carries over between the calls of one fit and grows
        by 1.25 after each, so flat (near-separable) regions are crossed in
        long steps; each fit starts again at 1.
        """
        b, g, pen, lam = pt.beta, pt.grad, np.array(self.penalized), self.lam
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


def _make_fit(pt: _Point, objective: _FusedObjective, iterations: int) -> LogitFit:
    return LogitFit(
        intercept_std=float(pt.beta[0]),
        coefs_std=pt.beta[1:].copy(),
        objective_value=pt.objective,
        iterations=iterations,
        evaluations=objective.evaluations,
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

    A start holds only where the next fit begins: its problem, the first
    point, the carried point and the last three optima. The data and the
    penalty mask belong to the problem. Nothing of this state goes into the
    returned fits.
    """

    def __init__(self, problem: LogitProblem, fit: LogitFit | None = None) -> None:
        self.problem = problem
        self.beta = np.zeros(problem.design.shape[1])
        if fit is not None:
            self.beta[0], self.beta[1:] = fit.intercept_std, fit.coefs_std
        self.point: _Point | None = None
        # (log lambda, beta, sign pattern) of each of the last three optima
        self.optima: list[tuple[float, list[float], tuple[int, ...]]] = []

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
        if len(self.optima) < 3 or lam <= 0.0:
            return None
        (x3, b3, s3), (x2, b2, s2), (x1, b1, s1) = self.optima
        x = math.log(lam)
        if not s1 == s2 == s3 or len({x, x1, x2, x3}) < 4:
            return None
        c1 = (x - x2) * (x - x3) / ((x1 - x2) * (x1 - x3))
        c2 = (x - x1) * (x - x3) / ((x2 - x1) * (x2 - x3))
        c3 = (x - x1) * (x - x2) / ((x3 - x1) * (x3 - x2))
        guess = [c1 * u + c2 * v + c3 * w for u, v, w in zip(b1, b2, b3)]
        return np.array(guess) if self._signs_of(guess) == s1 else None

    def _signs_of(self, beta: list[float]) -> tuple[int, ...]:
        """The sign pattern of the penalized entries, -0.0 read as 0."""
        return tuple((b > 0.0) - (b < 0.0) for b, pen in zip(beta, self.problem.penalized) if pen)

    def record(self, pt: _Point, lam: float) -> None:
        """Carry ``pt`` to the next fit; keep it as one of the last three
        optima if it is certified at a positive lambda, else forget them."""
        self.point, beta = pt, pt.beta.tolist()
        if pt.kkt <= KKT_TOL and lam > 0.0:  # the prediction extrapolates in log lambda
            self.optima = (self.optima + [(math.log(lam), beta, self._signs_of(beta))])[-3:]
        else:
            self.optima = []


def fit_l1(start: PathStart, lam: float) -> LogitFit:
    """Minimize NLL + lam * ||penalized coefs||_1 of ``start.problem`` by
    active-orthant Newton.

    ``start`` is the fit's only input besides lambda. The fit begins where
    it says: at its first point (zero for a cold ``PathStart(problem)``),
    later at its last optimum or the optimum it predicts, and leaves its own
    optimum there. Each iteration reuses the one evaluation of J, its
    gradient and the KKT residual made at the point the last step accepted,
    then takes a projected Newton step on the active orthant with a
    descent-only line search; when that fails or raises Singular, it takes a
    proximal-gradient step instead, so no fit raises Singular. Crossings are
    clipped to exact zeros. Convergence is the certificate ``kkt_residual <=
    KKT_TOL``; after MAX_ITER_L1 iterations, or when no step can move, the
    fit is returned uncertified, so its ``converged`` reads False.
    """
    if not lam >= 0.0:  # NaN included
        raise ValueError("lambda must be non-negative")
    objective = _FusedObjective(start.problem, lam)
    pt = start.first_point(objective)
    iterations = 0
    while pt.kkt > KKT_TOL and iterations < MAX_ITER_L1:
        try:
            nxt = objective.newton_step(pt)
        except Singular:
            nxt = None
        if nxt is None:
            nxt = objective.proximal_step(pt)
            if nxt is None:
                break
        pt = nxt
        iterations += 1
    start.record(pt, lam)
    return _make_fit(pt, objective, iterations)


def fit_mle(problem: LogitProblem) -> LogitFit:
    """Unpenalized MLE by the path's Newton step, taken at lambda = 0.

    Every returned fit is certified: its largest gradient entry is at most
    MLE_GRAD_TOL. Raises NotConverged, naming the iterations and that entry,
    when MAX_ITER_MLE iterations or a stalled line search leave it above.

    Raises Separation when the iterates diverge (logistic MLE has no finite
    optimum under quasi-separation): either the coefficient norm passes 1e4
    or the fit saturates, classifying every row perfectly to within 1e-8,
    which is where the vanishing gradient would otherwise halt Newton.
    Raises Singular, from ``newton_step``, when the Hessian cannot be inverted.
    """
    if np.count_nonzero(problem.targets) in (0, len(problem.targets)):
        raise SingleClass("logistic MLE needs both classes in the training targets")
    objective = _FusedObjective(problem, 0.0)
    pt = objective.at(np.zeros(problem.design.shape[1]))
    iterations = 0
    while pt.kkt > MLE_GRAD_TOL and iterations < MAX_ITER_MLE:
        nxt = objective.newton_step(pt)
        if nxt is None:
            break  # cannot descend along the Newton direction
        pt = nxt
        iterations += 1
        if float(np.max(np.abs(pt.beta))) > SEPARATION_NORM:
            raise Separation(
                "coefficient norm exceeded 1e4; data appears linearly separable"
            )
    if not pt.kkt <= MLE_GRAD_TOL:  # a NaN gradient certifies nothing
        raise NotConverged(
            f"MLE did not converge after {iterations} iterations; largest gradient "
            f"entry {pt.kkt:.3g} > {MLE_GRAD_TOL:g}"
        )
    if float(np.max(np.abs(problem.targets - pt.prob))) < 1e-8:
        raise Separation(
            "fit saturated to a perfect classification; data appears linearly separable"
        )
    return _make_fit(pt, objective, iterations)


def null_model_lambda_bound(problem: LogitProblem) -> tuple[float, LogitFit | None]:
    """Smallest lambda at which every penalized coefficient can sit at zero,
    and the null model's fit that gives it; (0.0, None) if nothing is penalized.

    The "null model" is the MLE of the intercept and any unpenalized
    features (the intercept alone when every feature is penalized); the KKT
    condition for a zero penalized coefficient there is |g_j| <= lambda, so
    the bound is the largest penalized |g_j|.
    """
    mask = problem.penalty_mask
    if not mask.any():
        return 0.0, None
    free = np.flatnonzero(~mask)
    base = fit_mle(LogitProblem(problem.features[:, free], problem.targets, problem.weights))
    beta = np.zeros(problem.design.shape[1])
    beta[0], beta[1 + free] = base.intercept_std, base.coefs_std
    g = _FusedObjective(problem, 0.0).at(beta).grad[1:]
    return float(np.max(np.abs(g[mask]))), base
