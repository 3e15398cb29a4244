"""Sample containers, weight vectors, weighted EDFs, bounding-box scaling, and
an exact ``exp`` that skips its slow underflow lanes.

Everything downstream (QP assembly, binning, density estimation) works on the
types defined here. All containers are immutable after construction: the
underlying numpy arrays are marked read-only so instances can be shared freely
across concurrent work.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

ZERO_WIDTH_EPS = 1e-9
NORMALIZATION_TOL = 1e-8
# exp(x) rounds to +0.0 at and below this argument; see exp_or_zero.
EXP_ZERO_AT = -746.0


class Normalization(Enum):
    """How a weight vector is normalized.

    MEAN_ONE: (1/n) * sum(w) == 1, the convention for weights returned by the
        quadratic program.
    SUM_ONE: sum(u) == 1, the convention for per-sample weights produced by
        distributing cell weights in the binning method.
    """

    MEAN_ONE = "mean_one"
    SUM_ONE = "sum_one"


def _as_points(points):
    """Coerce input to a read-only (n, d) float array; 1-D input means d=1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a 1-D or 2-D array, got ndim={pts.ndim}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def as_points(samples):
    """Return the (n, d) array behind ``samples`` (SampleSet or array-like)."""
    if isinstance(samples, SampleSet):
        return samples.points
    return _as_points(samples)


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of n points in d-dimensional space.

    Index i always refers to the same sample; sample order is never permuted
    by any operation in this package.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.n

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.points.astype(dtype)
        return self.points

    def prefix(self, n):
        """First n samples, preserving order (used for appended-sample studies)."""
        if not 0 <= n <= self.n:
            raise ValueError(f"prefix length {n} out of range for {self.n} samples")
        return SampleSet(self.points[:n])


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights with a declared normalization convention."""

    weights: np.ndarray
    normalization: Normalization = Normalization.MEAN_ONE

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-D array")
        if w.size == 0:
            raise ValueError("weights must be nonempty")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError(f"weights must be nonnegative, min={w.min()}")
        total = w.sum()
        if self.normalization is Normalization.MEAN_ONE:
            if abs(total / w.size - 1.0) > NORMALIZATION_TOL:
                raise ValueError(
                    f"mean-one weights have mean {total / w.size}, expected 1"
                )
        else:
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"sum-one weights sum to {total}, expected 1")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.weights.size

    def __len__(self):
        return self.n

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.weights.astype(dtype)
        return self.weights


@dataclass(frozen=True)
class WeightedEdf:
    """A step distribution function: samples plus nonnegative weights.

    With all-equal mean-one weights this is the plain empirical distribution
    function of the samples.
    """

    samples: SampleSet
    weights: WeightVector

    def __post_init__(self):
        if not isinstance(self.samples, SampleSet):
            object.__setattr__(self, "samples", SampleSet(self.samples))
        if not isinstance(self.weights, WeightVector):
            object.__setattr__(self, "weights", WeightVector(np.asarray(self.weights, float)))
        if self.weights.n != self.samples.n:
            raise ValueError(
                f"{self.weights.n} weights for {self.samples.n} samples"
            )

    @property
    def dim(self):
        return self.samples.dim

    def eval(self, point):
        from .edf import wedf_eval

        return wedf_eval(self, point)

    def eval_many(self, points):
        from .edf import wedf_eval_many

        return wedf_eval_many(self, points)

    @classmethod
    def plain(cls, samples):
        """The unweighted EDF of a sample set."""
        samples = samples if isinstance(samples, SampleSet) else SampleSet(samples)
        return cls(samples, WeightVector(np.ones(samples.n)))


@dataclass(frozen=True)
class BoxScaler:
    """Component-wise affine map between a bounding box and the unit hypercube."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(hi <= lo):
            bad = int(np.argmax(hi <= lo))
            raise ValueError(
                f"upper must exceed lower in every component; "
                f"component {bad}: [{lo[bad]}, {hi[bad]}]"
            )
        lo, hi = lo.copy(), hi.copy()
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.size

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def volume(self):
        return float(np.prod(self.width))

    def scale(self, points):
        """Map points into unit-box coordinates."""
        pts = as_points(points)
        self._check_dim(pts)
        return (pts - self.lower) / self.width

    def unscale(self, points):
        """Inverse of :meth:`scale`."""
        pts = as_points(points)
        self._check_dim(pts)
        return self.lower + pts * self.width

    def contains(self, points):
        pts = as_points(points)
        self._check_dim(pts)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def _check_dim(self, pts):
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, box has dim {self.dim}")


def as_box(box):
    """Return ``box`` as a BoxScaler. A BoxScaler passes through; anything
    else is read as rows of (lower, upper) bounds, one row per dimension, such
    as ``[[1.9, 2.1], [0.5, 1.5]]``, or as one ``(lower, upper)`` pair for d = 1."""
    if isinstance(box, BoxScaler):
        return box
    bounds = np.atleast_2d(np.asarray(box, dtype=float))
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"a box is rows of (lower, upper) bounds, got shape {bounds.shape}")
    return BoxScaler(bounds[:, 0], bounds[:, 1])


def fit_box(samples, padding=0.0):
    """Fit a bounding box to a sample set.

    Parameters
    ----------
    samples : SampleSet or array-like, shape (n, d)
        Nonempty collection of points.
    padding : float, optional
        Each side of the box is extended by this fraction of the side's width
        on both ends, so ``padding > 0`` puts every sample strictly in the
        interior. Default 0 (tight component-wise min/max box).

    Returns
    -------
    BoxScaler

    Notes
    -----
    A dimension in which all samples share one coordinate has zero width; it
    is widened symmetrically by 1e-9 and a warning is issued, so constant
    output components do not abort a run.
    """
    pts = as_points(samples)
    if pts.shape[0] == 0:
        raise ValueError("cannot fit a box to an empty sample set")
    if padding < 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    degenerate = hi - lo <= 0
    if np.any(degenerate):
        dims = np.nonzero(degenerate)[0].tolist()
        warnings.warn(
            f"zero-width dimension(s) {dims} widened by {ZERO_WIDTH_EPS}",
            stacklevel=2,
        )
        lo = np.where(degenerate, lo - 0.5 * ZERO_WIDTH_EPS, lo)
        hi = np.where(degenerate, hi + 0.5 * ZERO_WIDTH_EPS, hi)
    if padding > 0:
        pad = padding * (hi - lo)
        lo = lo - pad
        hi = hi + pad
    return BoxScaler(lo, hi)


def exp_or_zero(x, out=None):
    """``np.exp(x, out=out)``, bit for bit, at a fraction of the cost where
    many arguments underflow.

    For x <= -746 the exact exp(x) is below 2^-1075 (ln 2^-1075 = -745.13),
    half the smallest subnormal 2^-1074, so round-to-nearest gives +0.0,
    which is also what np.exp returns there. Those entries are written as
    +0.0 directly and np.exp runs on the rest: on a 2-vCPU Xeon with
    AVX-512, numpy's exp costs about 18 ns per underflowing element against
    about 1.2 ns on ordinary ones. Arguments in (-746, -708) have subnormal
    results (or zero, just above -746) and still go through np.exp.

    When nothing underflows this is one min and one plain np.exp call,
    because a masked exp costs about twice as much as an unmasked one. (A
    NaN makes the min NaN and takes the masked path, which keeps it.)
    """
    if x.min(initial=0.0) > EXP_ZERO_AT:
        return np.exp(x, out=out)
    under = x <= EXP_ZERO_AT
    out = np.exp(x, out=out, where=~under)
    out[under] = 0.0
    return out
