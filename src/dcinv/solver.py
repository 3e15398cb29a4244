"""Strictly convex QP solve over the scaled simplex {w >= 0, (1/l) sum w = 1}.

The objective is the distributional misfit (1/2) w^T H w - b^T w of a
:class:`~dcinv.assembly.QpProblem`, which holds its samples and b and builds
H from the samples (see the assembly module; the minimizer is the L2-optimal
weighting). On 1-D samples the QP is a bounded weighted isotonic regression,
which :func:`solve_isotonic` solves exactly by pool-adjacent-violators from
the samples and b alone. In any dimension, :func:`solve_qp` solves it by
block principal pivoting: each round factors the free block of H once and
moves every variable whose sign condition fails across the bound at once,
so a solve takes a handful of dense factorizations (at most ~15 rounds
observed up to l = 3000).

KKT conditions certified at the returned point, with equality multiplier nu
and bound multipliers mu >= 0, relative to the gradient's scale
s = max(|b|_inf, |nu|/l) (|b|_inf shrinks like 1/l, so an absolute bound
would loosen as l grows):

    stationarity     ||H w - b + (nu/l) 1 - mu||_inf <= KKT_RTOL s
    feasibility      |(1/l) sum w - 1| <= KKT_RTOL  and  w >= -KKT_RTOL
    complementarity  |mu_i w_i| <= KKT_RTOL s for all i

Weights are mean-one, so feasibility needs no scale.
"""

from dataclasses import dataclass

import numpy as np

from .core import Normalization, WeightVector

# Relative KKT pass rule: both solvers reach 3e-14 or better on the CLI's
# fits and at most 1.7e-12 on 10 000 random block-pivoting instances, while
# an early stop 1.4e-2 off in its weights read 4.8e-7.
KKT_RTOL = 1e-10
# Weights above this count as support when verify_kkt reconstructs nu.
_SUPPORT_THRESHOLD = 1e-8
# Block principal pivoting: rounds without progress before Murty's
# one-variable rule, and the round cap (random instances up to l = 3000
# took at most 15 rounds).
_BACKUP_ROUNDS = 3
_MAX_ROUNDS = 1000


class NonPositiveDefiniteError(np.linalg.LinAlgError):
    """The fitting matrix is not positive definite.

    Carries the index of the first non-positive pivot; repeated samples,
    which :func:`~dcinv.binning.fit_weights` merges before it solves, and
    boundary-corner samples are the usual culprits.
    """

    def __init__(self, pivot):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite (first bad pivot at index {pivot})"
        )

    def __reduce__(self):  # rebuilt from the pivot, not from the message
        return type(self), (self.pivot,)


class WeightCollapseError(RuntimeError):
    """Every weight is zero, so the weights cannot be normalized: the QP's
    final iterate after clipping negatives, or every density ratio."""


def _cholesky_or_pivot(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    lo, hi = 1, mat.shape[0]
    # smallest leading minor that fails
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(mat[:mid, :mid])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    raise NonPositiveDefiniteError(lo - 1)


@dataclass(frozen=True)
class KktReport:
    """Optimality certificate for a candidate weight vector; ``scale`` is
    max(b_scale, |nu|/l), the gradient's scale the pass rule is relative to."""

    stationarity_residual: float
    feasibility_residual: float
    complementarity_residual: float
    b_scale: float
    scale: float

    @property
    def passed(self):
        bound = KKT_RTOL * self.scale
        return (
            self.stationarity_residual <= bound
            and self.feasibility_residual <= KKT_RTOL
            and self.complementarity_residual <= bound
        )

    def relative(self):
        """The three residuals divided by ``scale``."""
        residuals = {
            "stationarity": self.stationarity_residual,
            "feasibility": self.feasibility_residual,
            "complementarity": self.complementarity_residual,
        }
        return {k: v / self.scale for k, v in residuals.items()}


@dataclass(frozen=True)
class QpSolution:
    """Solver output: cleaned weights plus convergence diagnostics."""

    w: np.ndarray
    converged: bool
    iterations: int
    kkt: KktReport
    objective: float
    method: str

    @property
    def weights(self):
        return WeightVector(self.w, Normalization.MEAN_ONE)


def verify_kkt(problem, w):
    """Check the KKT conditions of the simplex QP at ``w``.

    The equality multiplier is reconstructed by least squares over the
    support of ``w`` (stationarity forces g_i + nu/l = 0 wherever w_i > 0).
    Bound multipliers are taken as mu = max(0, g + nu/l), which is the
    residual-minimizing choice. The report passes when each residual is
    within KKT_RTOL of its scale (see the module docstring).
    """
    w = np.asarray(w, dtype=float)
    ell = problem.size
    if w.shape != (ell,):
        raise ValueError(f"w has shape {w.shape}, problem has size {ell}")
    g = problem.gradient(w)
    support = w > _SUPPORT_THRESHOLD
    if not np.any(support):
        support = np.ones(ell, dtype=bool)
    nu = -ell * float(np.mean(g[support]))
    shifted = g + nu / ell
    mu = np.maximum(shifted, 0.0)
    stationarity = float(np.max(np.abs(shifted - mu)))
    feasibility = max(abs(float(np.sum(w)) / ell - 1.0), float(max(0.0, -w.min())))
    complementarity = float(np.max(np.abs(mu * w)))
    b_scale = float(np.max(np.abs(problem.b)))
    # |nu|/l keeps a scale when b = 0, as in solve_qp's multiplier margin
    scale = max(b_scale, abs(nu) / ell)
    return KktReport(stationarity, feasibility, complementarity, b_scale, scale)


def _cleanup(w, ell):
    w = np.maximum(w, 0.0)
    total = w.sum()
    if total <= 0.0:
        raise WeightCollapseError("all weights collapsed to zero during cleanup")
    return w * (ell / total)


def solve_qp(problem):
    """Solve the simplex-constrained fitting QP by block principal pivoting.

    Every variable starts free. Each round factors the free block H_FF once,
    solves x1 = H_FF^-1 b_F and x2 = H_FF^-1 1, sets w_F = x1 - c x2 with
    c = (sum x1 - l) / sum x2 (so sum w = l) and w = 0 elsewhere, and reads
    the bound multipliers mu = H w - b + c. Every free variable with
    w < -1e-12 and every fixed one with mu < -1e-12 max(|b|_inf, |c|)
    changes sides at once (Judice & Pires 1994; Kim & Park 2011); the
    margins keep rounding-level signs from cycling. After _BACKUP_ROUNDS
    rounds in a row without fewer such variables, only the largest index
    changes sides (Murty's rule), which terminates.

    Returns a QpSolution with method "active-set"; ``iterations`` counts
    rounds, and ``converged`` is the verdict of :func:`verify_kkt` once
    negative weights are clipped to zero, or False after _MAX_ROUNDS rounds.

    Raises
    ------
    NonPositiveDefiniteError
        If the Cholesky factorization of ``h`` fails, reporting the first
        bad pivot.
    WeightCollapseError
        If no weight stays positive once negatives are clipped.
    """
    from scipy.linalg import cho_solve  # imported on first use: a cold CLI start skips scipy

    h, b = problem.h, problem.b
    ell = problem.size
    b_scale = float(np.max(np.abs(b)))
    free = np.ones(ell, dtype=bool)
    w = np.zeros(ell)
    fewest, backup = ell + 1, _BACKUP_ROUNDS
    optimal = False
    rounds = 0
    while not optimal and rounds < _MAX_ROUNDS:
        rounds += 1
        idx = np.flatnonzero(free)
        block = h if idx.size == ell else h[np.ix_(idx, idx)]
        rhs = np.column_stack([b[idx], np.ones(idx.size)])
        x = cho_solve((_cholesky_or_pivot(block), True), rhs, check_finite=False)
        c = (x[:, 0].sum() - ell) / x[:, 1].sum()
        w[:] = 0.0
        w[idx] = x[:, 0] - c * x[:, 1]
        mu = h @ w - b + c
        mu_floor = -1e-12 * max(b_scale, abs(c))  # |c| keeps a scale when b = 0
        infeasible = np.flatnonzero(np.where(free, w < -1e-12, mu < mu_floor))
        optimal = infeasible.size == 0
        if infeasible.size < fewest:
            fewest, backup = infeasible.size, _BACKUP_ROUNDS
        elif backup > 0:
            backup -= 1
        else:
            infeasible = infeasible[-1:]
        free[infeasible] = ~free[infeasible]
    w = _cleanup(w, ell)
    report = verify_kkt(problem, w)
    return QpSolution(
        w, optimal and report.passed, rounds, report, problem.objective(w), "active-set"
    )


def solve_isotonic(problem):
    """Solve the fitting QP of 1-D samples exactly.

    The samples are ``problem.points[:, 0]`` and b may come from any target
    (empirical or closed form); H is never formed except by the
    certificate. Sort the samples, q_(1) < ... < q_(l), and let
    C_k = (1/l) sum_{j <= k} w_(j) be the weighted EDF on [q_(k), q_(k+1)).
    Summation by parts turns (1/2) w^T H w - b^T w into

        (1/2) sum_{k < l} gap_k (C_k - m_k)^2 + const,
        gap_k = q_(k+1) - q_(k),   m_k = l (b_(k) - b_(k+1)) / gap_k,

    and the constraints into 0 <= C_1 <= ... <= C_(l-1) <= 1. The minimizer
    is the weighted isotonic regression of m with weights gap, clipped to
    [0, 1], which pool-adjacent-violators finds exactly (Ayer et al. 1955;
    Best & Chakravarti 1990). The mean of a pooled block i..j telescopes to
    l (b_(i) - b_(j+1)) / (q_(j+1) - q_(i)), so it is read off b and q
    directly. Then w_(k) = l (C_k - C_(k-1)) with C_0 = 0 and C_l = 1.

    Returns a QpSolution with method "isotonic"; ``iterations`` counts pool
    merges, and ``converged`` is the verdict of :func:`verify_kkt` on the
    dense problem.

    Raises
    ------
    ValueError
        If the samples are not 1-D.
    NonPositiveDefiniteError
        If two samples coincide (a zero gap leaves the split of weight
        between them undefined), reporting the same pivot as the dense
        factorization: the first sample that repeats an earlier one.
        :func:`~dcinv.binning.fit_weights` merges repeats before it solves.
    WeightCollapseError
        If no weight stays positive once negatives are clipped.
    """
    if problem.points.shape[1] != 1:
        raise ValueError(f"isotonic solve needs 1-D samples, got d = {problem.points.shape[1]}")
    q = problem.points[:, 0]
    ell = problem.size
    order = np.argsort(q, kind="stable")
    qs = q[order]
    ties = np.nonzero(qs[1:] <= qs[:-1])[0]
    if ties.size:
        raise NonPositiveDefiniteError(int(order[ties + 1].min()))
    qs = qs.tolist()
    bs = problem.b[order].tolist()
    starts, means = [], []
    merges = 0
    for k in range(ell - 1):
        i = k
        mean = ell * (bs[k] - bs[k + 1]) / (qs[k + 1] - qs[k])
        while means and means[-1] > mean:
            means.pop()
            i = starts.pop()
            merges += 1
            mean = ell * (bs[i] - bs[k + 1]) / (qs[k + 1] - qs[i])
        starts.append(i)
        means.append(mean)
    sizes = np.diff(np.append(starts, ell - 1).astype(np.int64))
    c = np.concatenate(([0.0], np.repeat(np.clip(means, 0.0, 1.0), sizes), [1.0]))
    w = np.empty(ell)
    w[order] = ell * np.diff(c)
    w = _cleanup(w, ell)
    report = verify_kkt(problem, w)
    return QpSolution(w, report.passed, merges, report, problem.objective(w), "isotonic")
