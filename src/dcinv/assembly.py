"""Assembly of the weighted-EDF fitting quadratic program.

On samples scaled to the unit hypercube, the squared L2 misfit between the
weighted EDF and a target distribution function expands into a quadratic in
the weights with

    H_ij = (1/l^2) prod_k (1 - max(q_k^i, q_k^j)),
    b_i  = (1/l)   int over [q^i, 1] of F_targ(q) dq,

so that (1/2) w^T H w - b^T w equals half the squared misfit up to a constant
independent of w. H and b are exact closed forms: an empirical target's b
sums over its samples (on 1-D data by one sort and a prefix sum, at d >= 2
over every sample pair), and an exact target (one of the 1-D laws in
:mod:`dcinv.targets`) gives b from its closed-form running integral of F_targ.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import targets as _targets
from .core import BoxScaler, as_points

COORD_TOL = 1e-12
JITTER = 1e-10

_B_CHUNK = 2_000_000  # elements per (l x m-chunk) block in empirical assembly
# Elements of the reusable block that empirical assembly fills within one
# m-chunk (256 KiB). Small on purpose: the factors are written and summed
# while the block is still in cache, instead of streaming full (l x chunk)
# temporaries through memory once per operation.
_B_BLOCK = 1 << 15


@dataclass(frozen=True)
class QpProblem:
    """The fitting QP of unit-box samples: minimize (1/2) w^T h w - b^T w
    over {w >= 0, (1/l) sum w_i = 1}.

    ``points`` is the non-empty (l, d) array of samples, finite and inside
    [0, 1] within 1e-12 (then clipped to it); ``b`` is a finite vector of
    length l. Both are stored read-only. ``h`` is :func:`assemble_h` of the
    points, built on its first read and kept, read-only; it is symmetric by
    construction.
    """

    points: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        pts = _check_unit_box(as_points(self.points))
        b = np.array(self.b, dtype=float)
        if b.shape != (pts.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({pts.shape[0]},)")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        pts.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "b", b)

    @functools.cached_property
    def h(self):
        h = assemble_h(self.points)
        h.flags.writeable = False
        return h

    @property
    def size(self):
        return self.b.size

    def objective(self, w):
        w = np.asarray(w, dtype=float)
        return float(0.5 * w @ self.h @ w - self.b @ w)

    def gradient(self, w):
        return self.h @ np.asarray(w, dtype=float) - self.b


def _check_unit_box(pts):
    """Non-empty samples inside [0, 1] within 1e-12, clipped to it."""
    if pts.size == 0:
        raise ValueError("cannot assemble an empty problem")
    if pts.min() < -COORD_TOL or pts.max() > 1.0 + COORD_TOL:
        raise ValueError(f"samples must lie in the unit box; range [{pts.min()}, {pts.max()}]")
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
    never -0.0, so no signed zero differs either.

    At d = 1, with a_i = 1 - q_i and h the sorted max(1 - y_j, 0), the sum is
    sum_j min(a_i, h_j) = (h_0 + ... + h_(k-1)) + a_i (m - k), where
    k = searchsorted(h, a_i, "left") counts the h_j < a_i: those contribute
    themselves and every other sample contributes a_i. A tie h_j = a_i gives
    the same value from either branch; target samples above the box have
    h_j = 0 and samples below it h_j > 1 >= a_i. One sort, one searchsorted
    and one cumulative sum, done in place on the one length-m array, cost
    O((l + m) log m). The prefix is summed in order rather than pairwise,
    so its error bound grows like m ulps instead of log m; on seeded data it
    stays within 1e-14 relative of math.fsum up to m = 1e6.

    At d >= 2 the target is taken in chunks of max(1, _B_CHUNK // l)
    samples; within a chunk the rows are filled _B_BLOCK elements at a time
    into one reusable buffer and summed whole, so every row's chunk segment
    is summed by the same pairwise sum, in the same order, as a full
    (l x chunk) array would be. The tracer in perfbench/ wraps this function
    by name and reads the arguments ``samples`` and ``target_samples``.
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
    if d == 1:
        a = a[:, 0]
        h = np.subtract(1.0, y[:, 0])
        np.maximum(h, 0.0, out=h)
        h.sort()
        k = np.searchsorted(h, a, "left")  # h[:k] < a <= h[k:]
        np.cumsum(h, out=h)
        below = np.where(k > 0, h[k - 1], 0.0)
        return (below + a * (m - k)) / (ell * m)
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


def assemble_b_exact(samples, integral_of_cdf):
    """Closed-form b for an exact 1-D target.

    ``samples`` is an (l, 1) array of unit-box points and ``integral_of_cdf``
    the running integral I(t) = int^t F_targ over scaled coordinates (up to a
    constant), so that b_i = (1/l) (I(1) - I(q_i)), clipped at 0 against
    rounding. Raises ValueError on samples of another dimension than 1.
    The tracer in perfbench/ wraps this function by name.
    """
    pts = _check_unit_box(as_points(samples))
    ell, d = pts.shape
    if d != 1:
        raise ValueError(f"exact targets are 1-D, samples have dim {d}")
    upper = np.asarray(integral_of_cdf(np.ones(1)))[0]
    b = (upper - np.asarray(integral_of_cdf(pts[:, 0]))) / ell
    return np.maximum(b, 0.0)


def scaled_cdf(target, box):
    """The running integral of a 1-D exact target's CDF in unit-box coordinates.

    Returns t -> target.integral_of_cdf(lower + t width) / width, the input
    :func:`assemble_b_exact` takes. The name is kept for the tracer in
    perfbench/, which wraps this function by name.
    """
    width = float(box.width[0])
    lo = float(box.lower[0])

    def integral(t):
        return np.asarray(target.integral_of_cdf(lo + np.asarray(t, dtype=float) * width)) / width

    return integral


def assemble_qp(scaled_samples, target, box=None):
    """Build the full QpProblem for unit-box samples against a target.

    ``box`` maps the target's data space onto the unit box; None means the
    unit box ``BoxScaler(zeros(d), ones(d))``. Duplicated samples are
    jittered by :func:`dedupe_jitter` and the problem holds the jittered
    points, so its matrix and vector are built on the same points. Empirical
    target samples are scaled through ``box`` and clipped to the unit box,
    which keeps b bit for bit (see :func:`assemble_b_empirical`) and a sample
    whose scaled value overflows finite. Exact (1-D) targets go through the
    closed form of :func:`assemble_b_exact` on :func:`scaled_cdf`.
    """
    pts = dedupe_jitter(_check_unit_box(as_points(scaled_samples)))
    target = _targets.as_target(target)
    if target.dim != pts.shape[1]:
        raise ValueError(f"target has dim {target.dim}, samples have dim {pts.shape[1]}")
    if box is None:
        box = BoxScaler(np.zeros(pts.shape[1]), np.ones(pts.shape[1]))
    if isinstance(target, _targets.EmpiricalTarget):
        b = assemble_b_empirical(pts, np.clip(box.scale(target.samples.points), 0.0, 1.0))
    else:
        b = assemble_b_exact(pts, scaled_cdf(target, box))
    return QpProblem(pts, b)
