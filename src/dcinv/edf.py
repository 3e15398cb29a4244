"""Evaluation of (weighted) empirical distribution functions and distances
between distribution functions.

The indicator convention is the standard one for a CDF: a sample counts at a
query point when it is component-wise less than or equal to the query.
Distances are grid quadratures over a bounding box; exact piecewise
integration of d-dimensional step functions is combinatorial and grid
quadrature at a documented resolution is enough for reporting and tests.
"""

from functools import partial

import numpy as np

from .core import Normalization, SampleSet, WeightedEdf, as_box, as_points, grid_points

DEFAULT_GRID_1D = 512
DEFAULT_GRID_2D = 128

_CHUNK = 256


def _eval_points(points, dim):
    pts = as_points(points)
    if pts.shape[1] != dim:
        raise ValueError(f"query points have dim {pts.shape[1]}, samples have dim {dim}")
    return pts


def _indicator_weight_sums(sample_pts, weights, query_pts):
    """sum_i w_i * I(sample_i <= q) for each query point q (component-wise)."""
    n, d = sample_pts.shape
    if d == 1:
        # a +0.0 weight moves no partial sum (S + 0.0 == S, bit for bit, and
        # no partial sum of nonzero weights is -0.0), so only the others are
        # sorted; a -0.0 weight can make a partial sum -0.0, so then all are
        zero = weights == 0
        if zero.any() and not np.signbit(weights[zero]).any():
            sample_pts, weights = sample_pts[~zero], weights[~zero]
        order = np.argsort(sample_pts[:, 0], kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(weights[order])])
        idx = np.searchsorted(sample_pts[order, 0], query_pts[:, 0], side="right")
        return cum[idx]
    out = np.empty(query_pts.shape[0])
    for start in range(0, query_pts.shape[0], _CHUNK):
        block = query_pts[start : start + _CHUNK]
        # the (block, n) dominance mask, one dimension at a time: no (block, n, d) cube
        below = sample_pts[:, 0] <= block[:, :1]
        for k in range(1, d):
            below &= sample_pts[:, k] <= block[:, k : k + 1]
        out[start : start + block.shape[0]] = below @ weights
    return out


def edf_eval(samples, point):
    """Empirical distribution function of ``samples`` at one query point.

    Returns the fraction of samples that are component-wise <= ``point``.
    """
    return float(edf_eval_many(samples, np.atleast_2d(np.asarray(point, float)))[0])


def edf_eval_many(samples, points):
    """Vectorized :func:`edf_eval` over an (m, d) array of query points."""
    pts = as_points(samples)
    query = _eval_points(points, pts.shape[1])
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return _indicator_weight_sums(pts, w, query)


def wedf_eval(wedf, point):
    """Weighted EDF value at one query point.

    Mean-one weights contribute (1/n) * sum w_i * I(...); sum-one weights
    contribute sum u_i * I(...).
    """
    return float(wedf_eval_many(wedf, np.atleast_2d(np.asarray(point, float)))[0])


def wedf_eval_many(wedf, points):
    """Vectorized :func:`wedf_eval` over an (m, d) array of query points."""
    pts = wedf.samples.points
    query = _eval_points(points, pts.shape[1])
    w = np.asarray(wedf.weights.weights, dtype=float)
    if wedf.weights.normalization is Normalization.MEAN_ONE:
        w = w / w.size
    return _indicator_weight_sums(pts, w, query)


def as_cdf_callable(f):
    """Normalize a distribution function to a callable over (m, d) arrays.

    Accepts a WeightedEdf, a SampleSet/array (interpreted as its plain EDF),
    a target (anything with a ``cdf`` method; a 1-D target gets the first
    column, and an EmpiricalTarget gives its plain EDF bit for bit), or any
    callable already mapping an (m, d) array to m values.
    """
    if isinstance(f, WeightedEdf):
        return partial(wedf_eval_many, f)
    if isinstance(f, SampleSet) or isinstance(f, np.ndarray):
        return partial(wedf_eval_many, WeightedEdf.plain(f))
    if hasattr(f, "cdf"):
        return lambda pts: np.asarray(f.cdf(pts[:, 0] if pts.shape[1] == 1 else pts))
    if callable(f):
        return f
    raise TypeError(f"cannot interpret {type(f).__name__} as a distribution function")


def _grid_diff(f, g, box, grid_per_dim, extra_points=None):
    """(f - g at the cell midpoints of a regular grid on ``box``, the volume
    of one cell). ``grid_per_dim`` None means DEFAULT_GRID_1D cells per
    dimension for d = 1 and DEFAULT_GRID_2D for d >= 2. ``extra_points`` and
    points just below them are evaluated after the midpoints."""
    box = as_box(box)
    if grid_per_dim is None:
        grid_per_dim = DEFAULT_GRID_1D if box.dim == 1 else DEFAULT_GRID_2D
    if grid_per_dim < 2:
        raise ValueError(f"grid_per_dim must be >= 2, got {grid_per_dim}")
    pts = grid_points([
        box.lower[k] + (np.arange(grid_per_dim) + 0.5) * box.width[k] / grid_per_dim
        for k in range(box.dim)
    ])
    cell_vol = box.volume / len(pts)
    if extra_points is not None:
        extra = as_points(extra_points)
        eps = np.maximum(np.abs(extra), 1.0) * 1e-12
        pts = np.vstack([pts, extra, extra - eps])
    return as_cdf_callable(f)(pts) - as_cdf_callable(g)(pts), cell_vol


def l2_distance(f, g, box, grid_per_dim=None):
    """Midpoint-rule approximation of the L2 norm of (f - g) over ``box``.

    Reports the norm itself (not its square). Default grid: 512 cells per
    dimension for d=1, 128 for d>=2. ``box`` goes through ``core.as_box``,
    so a ``(lower, upper)`` pair of bound vectors names a box only for d = 1.
    """
    diff, cell_vol = _grid_diff(f, g, box, grid_per_dim)
    return float(np.sqrt(np.sum(diff**2) * cell_vol))


def l1_distance(f, g, box, grid_per_dim=None):
    """Midpoint-rule approximation of the L1 norm of (f - g) over ``box``
    (read as in :func:`l2_distance`)."""
    diff, cell_vol = _grid_diff(f, g, box, grid_per_dim)
    return float(np.sum(np.abs(diff)) * cell_vol)


def sup_distance(f, g, box, grid_per_dim=None, extra_points=None):
    """Sup-norm of (f - g) over a grid on ``box``.

    For step functions the supremum is attained arbitrarily close to jump
    locations; pass those locations (e.g. the sample points) via
    ``extra_points`` to capture both sides of each jump exactly. ``box`` is
    read as in :func:`l2_distance`.
    """
    diff, _ = _grid_diff(f, g, box, grid_per_dim, extra_points)
    return float(np.max(np.abs(diff)))
