"""Strictly convex QP solve over the scaled simplex {w >= 0, (1/l) sum w = 1}.

The objective is the distributional misfit (1/2) w^T H w - b^T w (see the
assembly module; its minimizer is the L2-optimal weighting). The primary
method is a primal active-set iteration warm-started from the all-ones
vector, which is always feasible. Each working-set change updates a Cholesky
factor of the free block incrementally (append one column, or rank-1-update
away one row/column), so a solve costs O(free^2) per iteration instead of a
fresh O(free^3) factorization. A projected-gradient fallback handles the
(never observed in practice) case of active-set cycling.

KKT conditions certified at the returned point, with equality multiplier nu
and bound multipliers mu >= 0:

    stationarity     ||H w - b + (nu/l) 1 - mu||_inf <= tol
    feasibility      |(1/l) sum w - 1| <= tol  and  w >= -tol (then clipped)
    complementarity  |mu_i w_i| <= tol for all i
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import Normalization, WeightVector

DEFAULT_TOL = 1e-8


class NonPositiveDefiniteError(np.linalg.LinAlgError):
    """The fitting matrix is not positive definite.

    Carries the index of the first non-positive pivot; duplicated or
    boundary-corner samples are the usual culprits.
    """

    def __init__(self, pivot):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite (first bad pivot at index {pivot})"
        )


class WeightCollapseError(RuntimeError):
    """Every weight of the final iterate is zero after clipping negatives, so
    the weights cannot be normalized."""


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


def _chol_rank1_update(L, x):
    """In-place lower-Cholesky update: L L^T + x x^T (x is consumed)."""
    n = x.size
    for k in range(n):
        lkk = L[k, k]
        r = np.hypot(lkk, x[k])
        c = r / lkk
        s = x[k] / lkk
        L[k, k] = r
        if k + 1 < n:
            col = L[k + 1 :, k]
            col += s * x[k + 1 :]
            col /= c
            x[k + 1 :] = c * x[k + 1 :] - s * col
    return L


class _FreeBlockFactor:
    """Cholesky factor of H[free][:, free], maintained under set changes.

    ``free`` is an ordered list of variable indices; freed variables are
    appended at the end, fixed variables are removed in place.
    """

    def __init__(self, h, free):
        self.h = h
        self.free = list(free)
        if self.free == list(range(h.shape[0])):
            block = h  # every variable free, in order: no full-size gather
        else:
            block = h[np.ix_(self.free, self.free)]
        self.L = _cholesky_or_pivot(block)

    def append(self, j):
        col = self.h[self.free, j]
        x = solve_triangular(self.L, col, lower=True, check_finite=False)
        d = self.h[j, j] - x @ x
        if d <= 0.0:
            raise NonPositiveDefiniteError(j)
        n = self.L.shape[0]
        newL = np.zeros((n + 1, n + 1))
        newL[:n, :n] = self.L
        newL[n, :n] = x
        newL[n, n] = np.sqrt(d)
        self.L = newL
        self.free.append(j)

    def remove(self, pos):
        L = self.L
        n = L.shape[0]
        tail = L[pos + 1 :, pos + 1 :].copy()
        spike = L[pos + 1 :, pos].copy()
        _chol_rank1_update(tail, spike)
        newL = np.zeros((n - 1, n - 1))
        newL[:pos, :pos] = L[:pos, :pos]
        newL[pos:, :pos] = L[pos + 1 :, :pos]
        newL[pos:, pos:] = tail
        self.L = newL
        del self.free[pos]

    def solve(self, rhs):
        y = solve_triangular(self.L, rhs, lower=True, check_finite=False)
        return solve_triangular(self.L.T, y, lower=False, check_finite=False)


@dataclass(frozen=True)
class KktReport:
    """Optimality certificate for a candidate weight vector."""

    stationarity_residual: float
    feasibility_residual: float
    complementarity_residual: float
    tol: float
    nu: float

    @property
    def passed(self):
        return (
            self.stationarity_residual <= self.tol
            and self.feasibility_residual <= self.tol
            and self.complementarity_residual <= self.tol
        )


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


def verify_kkt(problem, w, tol=DEFAULT_TOL, nu=None):
    """Check the KKT conditions of the simplex QP at ``w``.

    When ``nu`` is not supplied, the equality multiplier is reconstructed by
    least squares over the support of ``w`` (stationarity forces
    g_i + nu/l = 0 wherever w_i > 0). Bound multipliers are taken as
    mu = max(0, g + nu/l), which is the residual-minimizing choice.
    """
    w = np.asarray(w, dtype=float)
    ell = problem.size
    if w.shape != (ell,):
        raise ValueError(f"w has shape {w.shape}, problem has size {ell}")
    g = problem.gradient(w)
    if nu is None:
        support = w > max(tol, 1e-14)
        if not np.any(support):
            support = np.ones(ell, dtype=bool)
        nu = -ell * float(np.mean(g[support]))
    shifted = g + nu / ell
    mu = np.maximum(shifted, 0.0)
    stationarity = float(np.max(np.abs(shifted - mu))) if ell else 0.0
    feasibility = max(
        abs(float(np.sum(w)) / ell - 1.0),
        float(max(0.0, -w.min())) if ell else 0.0,
    )
    complementarity = float(np.max(np.abs(mu * w))) if ell else 0.0
    return KktReport(stationarity, feasibility, complementarity, tol, float(nu))


def _project_scaled_simplex(v, total):
    """Euclidean projection onto {w >= 0, sum w = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _projected_gradient(problem, w0, tol, max_iter):
    h, b = problem.h, problem.b
    ell = problem.size
    lam_max = float(np.linalg.eigvalsh(h)[-1])
    step = 1.0 / max(lam_max, 1e-300)
    w = _project_scaled_simplex(np.asarray(w0, dtype=float), float(ell))
    for it in range(max_iter):
        g = h @ w - b
        w = _project_scaled_simplex(w - step * g, float(ell))
        if it % 16 == 0 or it == max_iter - 1:
            if verify_kkt(problem, w, tol).passed:
                return w, True, it + 1
    return w, False, max_iter


def _cleanup(w, ell, tol):
    w = np.asarray(w, dtype=float).copy()
    w[(w < 0.0) & (w >= -tol)] = 0.0
    if w.min() < 0.0:
        w = np.maximum(w, 0.0)
    total = w.sum()
    if total <= 0.0:
        raise WeightCollapseError("all weights collapsed to zero during cleanup")
    return w * (ell / total)


def solve_qp(problem, tol=DEFAULT_TOL, max_iter=None, w0=None):
    """Solve the simplex-constrained fitting QP.

    Parameters
    ----------
    problem : QpProblem
        Must have symmetric positive-definite ``h``.
    tol : float
        KKT residual tolerance; also the clipping band for tiny negative
        weights in the returned vector.
    max_iter : int, optional
        Working-set change budget; default 50 * l.
    w0 : array-like, optional
        Feasible starting point; defaults to all ones.

    Returns
    -------
    QpSolution
        ``converged`` is False when the iteration budget was exhausted; the
        best iterate is still returned, with its achieved residuals.

    Raises
    ------
    NonPositiveDefiniteError
        If a Cholesky factorization of (a principal block of) ``h`` fails,
        reporting the offending pivot index.
    WeightCollapseError
        If no weight stays positive once negatives are clipped.
    """
    h, b = problem.h, problem.b
    ell = problem.size
    if max_iter is None:
        max_iter = 50 * ell
    if w0 is None:
        w = np.ones(ell)
    else:
        w = _project_scaled_simplex(np.asarray(w0, dtype=float), float(ell))

    active = w <= 0.0
    factor = _FreeBlockFactor(h, np.nonzero(~active)[0])
    seen_sets = {}
    nu = 0.0
    optimal = False

    iteration = 0
    while iteration < max_iter:
        iteration += 1
        free = factor.free
        key = frozenset(free)
        seen_sets[key] = seen_sets.get(key, 0) + 1
        if seen_sets[key] > 2:
            w_pg, ok, its = _projected_gradient(problem, w, tol, max_iter * 8)
            w_clean = _cleanup(w_pg, ell, tol)
            report = verify_kkt(problem, w_clean, tol)
            return QpSolution(
                w_clean, ok and report.passed, iteration + its, report,
                problem.objective(w_clean), "projected-gradient",
            )

        bf = b[free]
        a = factor.solve(bf)
        c = factor.solve(np.ones(len(free)))
        nu = ell * (float(np.sum(a)) - ell) / float(np.sum(c))
        w_target = a - (nu / ell) * c
        wf = w[free]
        p = w_target - wf

        step_scale = max(1.0, float(np.max(np.abs(wf))))
        if np.max(np.abs(p)) <= 1e-14 * step_scale:
            # stationary on the current working set: check bound multipliers
            if np.all(~active):
                optimal = True
                break
            g = h @ w - b
            mu = g[active] + nu / ell
            worst = np.argmin(mu)
            if mu[worst] >= -tol:
                optimal = True
                break
            j = np.nonzero(active)[0][worst]
            factor.append(j)
            active[j] = False
            continue

        blocking = p < 0.0
        if np.any(blocking):
            ratios = np.where(blocking, wf / np.where(blocking, -p, 1.0), np.inf)
            alpha = float(np.min(ratios))
        else:
            alpha = np.inf
        if alpha >= 1.0:
            w[free] = w_target
        else:
            w[free] = wf + alpha * p
            hit = int(np.argmin(ratios))
            j = free[hit]
            w[j] = 0.0
            active[j] = True
            factor.remove(hit)

    w_clean = _cleanup(w, ell, tol)
    report = verify_kkt(problem, w_clean, tol, nu=nu)
    if not report.passed:
        report = verify_kkt(problem, w_clean, tol)
    converged = optimal and report.passed
    return QpSolution(
        w_clean, converged, iteration, report, problem.objective(w_clean), "active-set"
    )
