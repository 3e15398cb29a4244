"""Assembly of the weighted-EDF fitting quadratic program.

On samples scaled to the unit hypercube, the squared L2 misfit between the
weighted EDF and a target distribution function expands into a quadratic in
the weights with

    H_ij = (1/l^2) prod_k (1 - max(q_k^i, q_k^j)),
    b_i  = (1/l)   int over [q^i, 1] of F_targ(q) dq,

so that (1/2) w^T H w - b^T w equals half the squared misfit up to a constant
independent of w. H and the sample-target b are exact closed forms; only
exact-CDF targets without a closed-form running integral need quadrature.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from . import targets as _targets
from .core import BoxScaler, as_points, grid_points

COORD_TOL = 1e-12
JITTER = 1e-10
DEFAULT_QUAD_POINTS = 64

_B_CHUNK = 2_000_000  # elements per (l x m-chunk) block in empirical assembly
# Elements of the reusable block that empirical assembly fills within one
# m-chunk (256 KiB). Small on purpose: the factors are written and summed
# while the block is still in cache, instead of streaming full (l x chunk)
# temporaries through memory once per operation.
_B_BLOCK = 1 << 15
_SAFE_DOUBLING = 2.0**1022  # |x| <= this keeps x + x finite
_SYM_TILE = 256  # side of the square tiles of the QpProblem symmetry check


@dataclass(frozen=True)
class QpProblem:
    """Matrix and vector of the fitting QP, plus the simplex constraints.

    The feasible set is {w >= 0, (1/l) sum w_i = 1}; the objective is
    (1/2) w^T h w - b^T w.

    ``h`` must be finite and symmetric within 1e-12; it is stored as
    0.5 * (h + h.T). When ``h`` is a float64 array that is already symmetric
    bit for bit with no entry above 2^1022 in magnitude, that expression
    equals ``h`` exactly and a read-only view of it is stored instead of a
    copy, so the caller must not modify the array afterwards.
    """

    h: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"h must be square, got shape {h.shape}")
        if b.shape != (h.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({h.shape[0]},)")
        if h.size == 0:
            raise ValueError("h must not be empty")
        if not np.all(np.isfinite(b)):
            raise ValueError("h and b must be finite")
        exact, max_asym = _symmetry(h)
        if max_asym > COORD_TOL:
            raise ValueError("h must be symmetric within 1e-12")
        if exact:
            # 0.5 * (h + h.T) is h bit for bit here, so skip the full-size
            # temporaries and keep a read-only view.
            h = h.view()
        else:
            h = 0.5 * (h + h.T)
        h.flags.writeable = False
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "b", b)

    @property
    def size(self):
        return self.b.size

    def objective(self, w):
        w = np.asarray(w, dtype=float)
        return float(0.5 * w @ self.h @ w - self.b @ w)

    def gradient(self, w):
        return self.h @ np.asarray(w, dtype=float) - self.b


def _symmetry(h):
    """(exactly symmetric, max |h - h.T|) of a finite square matrix.

    "Exactly" means bit for bit (signed zeros included) and with every entry
    at most 2^1022 in magnitude, so that h + h.T cannot overflow. Raises if h
    holds a non-finite entry. Tiles above the diagonal are compared with their
    mirror tiles, so no full-size temporary is made; |x - y| = |y - x| in
    floating point, so the maximum is the number the full-size expression
    gives, and a bit-equal pair of tiles contributes exactly 0 to it.
    """
    lo, hi = h.min(), h.max()  # NaN propagates through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("h and b must be finite")
    ell = h.shape[0]
    bits_equal = True
    max_asym = 0.0
    for i0 in range(0, ell, _SYM_TILE):
        for j0 in range(i0, ell, _SYM_TILE):
            tile = h[i0 : i0 + _SYM_TILE, j0 : j0 + _SYM_TILE]
            mirror = h[j0 : j0 + _SYM_TILE, i0 : i0 + _SYM_TILE].T
            if bits_equal and np.array_equal(tile.view(np.int64), mirror.view(np.int64)):
                continue
            bits_equal = False
            diff = tile - mirror
            max_asym = max(max_asym, float(np.abs(diff, out=diff).max()))
    exact = bits_equal and -_SAFE_DOUBLING <= lo and hi <= _SAFE_DOUBLING
    return exact, max_asym


def _check_unit_box(pts, what="samples"):
    if pts.size and (pts.min() < -COORD_TOL or pts.max() > 1.0 + COORD_TOL):
        raise ValueError(
            f"{what} must lie in the unit box; range "
            f"[{pts.min()}, {pts.max()}]"
        )
    return np.clip(pts, 0.0, 1.0)


def dedupe_jitter(points):
    """Perturb duplicated rows by ~1e-10 toward the box interior.

    Duplicate samples make the fitting matrix singular; the jitter restores
    strict positive-definiteness while moving each point by a step in
    (JITTER / 2, JITTER] per coordinate. First occurrences are left
    untouched. The r-th of n repeats of one row steps inside the middle half
    of the r-th of n equal slices of that band, so repeats stay at least
    JITTER / (4 n) apart and come out distinct wherever that exceeds two
    units in the last place. The offsets within the slices are drawn from a
    generator seeded with 0, so equal inputs give equal outputs. A warning
    reports how many rows were perturbed.
    """
    pts = as_points(points)
    order = np.lexsort(pts.T[::-1])  # stable: each run of equal rows is in index order
    same = np.all(pts[order[:-1]] == pts[order[1:]], axis=1)
    if not np.any(same):
        return pts
    new_run = np.append(True, ~same)
    run = np.cumsum(new_run) - 1
    rank = np.arange(len(pts)) - np.flatnonzero(new_run)[run]  # 0 at first occurrences
    repeats = np.bincount(run)[run] - 1
    dup = rank > 0
    rows, rank, repeats = order[dup], rank[dup], repeats[dup]
    warnings.warn(
        f"{rows.size} duplicated sample row(s) jittered by {JITTER} to keep "
        "the fitting matrix positive definite",
        stacklevel=2,
    )
    offset = np.random.default_rng(0).uniform(0.25, 0.75, size=(rows.size, pts.shape[1]))
    step = 0.5 * JITTER * (1.0 + (rank[:, None] - 1 + offset) / repeats[:, None])
    out = pts.copy()
    out[rows] += np.where(out[rows] > 0.5, -1.0, 1.0) * step
    return out


def assemble_h(samples):
    """Closed-form fitting matrix on unit-box samples.

    H_ij = (1/l^2) prod_k (1 - max(q_k^i, q_k^j)); exactly symmetric by
    construction. Raises if any coordinate is outside [0, 1] beyond 1e-12.
    """
    pts = _check_unit_box(as_points(samples))
    ell, d = pts.shape
    if ell == 0:
        raise ValueError("cannot assemble an empty problem")
    # 1.0 * x == x, so starting from the first factor is bit for bit the
    # product started from ones; at most two (l x l) arrays are alive.
    col = pts[:, 0]
    h = np.maximum(col[:, None], col[None, :])
    np.subtract(1.0, h, out=h)
    tmp = np.empty_like(h) if d > 1 else None
    for k in range(1, d):
        col = pts[:, k]
        np.maximum(col[:, None], col[None, :], out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        h *= tmp
    h /= ell * ell
    return h


def assemble_b_empirical(samples, target_samples):
    """Closed-form b for a sample-based (EDF) target.

    b_i = (1/(l m)) sum_j prod_k max(0, 1 - max(q_k^i, y_k^j)). This is the
    exact integral of the target EDF over [q^i, 1]: target samples above the
    unit box contribute nothing and samples below it contribute their full
    column, which the clipped factor reproduces exactly.

    Each factor is computed in the min form min(1 - q_k^i, max(1 - y_k^j, 0))
    from two vectors made once per call. This is bit for bit the clipped form:
    x -> fl(1 - x) is monotone non-increasing, so fl(1 - max(q, y)) =
    min(fl(1 - q), fl(1 - y)); and since 1 - q >= 0 (q is clipped to [0, 1]),
    max(min(a, g), 0) = min(a, max(g, 0)). Under round-to-nearest 1 - x is
    never -0.0, so no signed zero differs either. The target is taken in
    chunks of max(1, _B_CHUNK // l) samples; within a chunk the rows are
    filled _B_BLOCK elements at a time into one reusable buffer and summed
    whole, so every row's chunk segment is summed by the same pairwise sum,
    in the same order, as a full (l x chunk) array would be.
    """
    q = _check_unit_box(as_points(samples))
    y = as_points(target_samples)
    if y.shape[0] == 0:
        raise ValueError("empirical target needs at least one sample")
    if q.shape[1] != y.shape[1]:
        raise ValueError(
            f"dimension mismatch: samples have dim {q.shape[1]}, "
            f"target has dim {y.shape[1]}"
        )
    ell, d = q.shape
    m = y.shape[0]
    a = 1.0 - q
    hy = np.ascontiguousarray(np.maximum(1.0 - y, 0.0).T)  # (d, m)
    b = np.zeros(ell)
    part = np.empty(ell)
    chunk = max(1, _B_CHUNK // max(ell, 1))
    rows = max(1, _B_BLOCK // chunk)
    buf = np.empty(rows * min(chunk, m))
    tmp = np.empty_like(buf)
    for start in range(0, m, chunk):
        hc = hy[:, start : start + chunk]
        width = hc.shape[1]
        for i0 in range(0, ell, rows):
            i1 = min(i0 + rows, ell)
            f = buf[: (i1 - i0) * width].reshape(i1 - i0, width)
            np.minimum(a[i0:i1, 0, None], hc[None, 0], out=f)
            for k in range(1, d):
                fk = tmp[: f.size].reshape(f.shape)
                np.minimum(a[i0:i1, k, None], hc[None, k], out=fk)
                f *= fk
            f.sum(axis=1, out=part[i0:i1])
        b += part
    return b / (ell * m)


def assemble_b_exact(samples, cdf, quad_points_per_dim=DEFAULT_QUAD_POINTS, integral_of_cdf=None):
    """b for an exact-CDF target.

    Parameters
    ----------
    samples : array-like, shape (l, d)
        Unit-box sample points.
    cdf : callable
        Maps an (m, d) array of unit-box points to CDF values.
    quad_points_per_dim : int
        Gauss-Legendre nodes per dimension for the tensor-product quadrature
        over [q^i, 1].
    integral_of_cdf : callable, optional
        For d = 1 only: running integral I(t) = int^t cdf, in which case
        b_i = (1/l) (I(1) - I(q_i)) exactly and no quadrature is used.
    """
    pts = _check_unit_box(as_points(samples))
    ell, d = pts.shape
    if ell == 0:
        raise ValueError("cannot assemble an empty problem")
    if d == 1 and integral_of_cdf is not None:
        upper = np.asarray(integral_of_cdf(np.ones(1)))[0]
        b = (upper - np.asarray(integral_of_cdf(pts[:, 0]))) / ell
        return np.maximum(b, 0.0)
    if quad_points_per_dim < 2:
        raise ValueError(
            f"quad_points_per_dim must be >= 2, got {quad_points_per_dim}"
        )
    nodes, weights = roots_legendre(quad_points_per_dim)
    nodes = 0.5 * (nodes + 1.0)  # map to [0, 1]
    weights = 0.5 * weights
    b = np.empty(ell)
    if d == 1:
        q = pts[:, 0]
        width = 1.0 - q
        t = q[:, None] + width[:, None] * nodes[None, :]
        vals = np.asarray(cdf(t.reshape(-1, 1))).reshape(ell, -1)
        b = width * (vals @ weights)
        return b / ell
    for i in range(ell):
        grid = grid_points([pts[i, k] + (1.0 - pts[i, k]) * nodes for k in range(d)])
        vals = np.asarray(cdf(grid)).reshape([quad_points_per_dim] * d)
        wprod = np.ones([1] * d)
        for k in range(d):
            shape = [1] * d
            shape[k] = quad_points_per_dim
            wprod = wprod * weights.reshape(shape)
        b[i] = np.prod(1.0 - pts[i]) * float(np.sum(vals * wprod))
    return b / ell


def scaled_cdf(target, box):
    """Adapt a target defined on the data space to unit-box coordinates.

    Returns (cdf, integral_of_cdf) callables over scaled coordinates;
    integral_of_cdf is None when the target has no closed form (or d > 1).
    """

    def cdf(points_scaled):
        pts = as_points(points_scaled)
        return np.asarray(target.cdf(box.unscale(pts)))

    integral = None
    if box.dim == 1 and getattr(target, "integral_of_cdf", None) is not None:
        width = float(box.width[0])
        lo = float(box.lower[0])

        def integral(t):
            t = np.asarray(t, dtype=float)
            return (np.asarray(target.integral_of_cdf(lo + t * width))) / width

    return cdf, integral


def assemble_qp(scaled_samples, target, box=None):
    """Build the full QpProblem for unit-box samples against a target.

    ``box`` maps the target's data space onto the unit box; None means the
    unit box ``BoxScaler(zeros(d), ones(d))``. Duplicated samples are
    jittered once so the matrix and vector stay consistent. Empirical target
    samples are scaled through ``box``; exact targets go through
    :func:`scaled_cdf` and DEFAULT_QUAD_POINTS nodes per dimension.
    """
    pts = dedupe_jitter(_check_unit_box(as_points(scaled_samples)))
    target = _targets.as_target(target)
    if target.dim != pts.shape[1]:
        raise ValueError(f"target has dim {target.dim}, samples have dim {pts.shape[1]}")
    if box is None:
        box = BoxScaler(np.zeros(pts.shape[1]), np.ones(pts.shape[1]))
    if isinstance(target, _targets.EmpiricalTarget):
        b = assemble_b_empirical(pts, box.scale(target.samples.points))
    else:
        cdf, integral = scaled_cdf(target, box)
        b = assemble_b_exact(pts, cdf, integral_of_cdf=integral)
    return QpProblem(assemble_h(pts), b)
