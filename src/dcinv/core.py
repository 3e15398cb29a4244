"""Sample containers, weight vectors, weighted EDFs, bounding-box scaling, and
the ordered process pool.

Everything downstream (QP assembly, binning, density estimation) works on the
types defined here. All containers are immutable after construction: the
underlying numpy arrays are marked read-only so instances can be shared freely
across concurrent work. ``ordered_map`` runs tasks in worker processes for the
convergence study and the CSV writer, and yields their results in task order.
"""

import multiprocessing
import os
import pickle
import traceback
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum

import numpy as np

ZERO_WIDTH_EPS = 1e-9
NORMALIZATION_TOL = 1e-8
PIPELINE_PADDING = 1e-3  # widening of a fitted box per side, as a fraction of its width


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

    @classmethod
    def plain(cls, samples):
        """The unweighted EDF of a sample set."""
        samples = samples if isinstance(samples, SampleSet) else SampleSet(samples)
        return cls(samples, WeightVector(np.ones(samples.n)))


class WeightedPairs:
    """The result shape of the naive, binning and density methods: aligned
    ``initial`` and ``predicted`` SampleSets, one ``weights`` WeightVector on
    them (its ``normalization`` says mean-one or sum-one), the data ``box``
    and the ``qp_solution`` of the fit, both None where no QP is fitted."""

    def pushforward(self):
        """The same weights on the predicted values (the data-space fit)."""
        return WeightedEdf(self.predicted, self.weights)


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


def grid_points(axes):
    """The (prod len(a), d) tensor grid of the 1-D ``axes``, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fit_box(samples):
    """Fit a bounding box to a sample set, padded by ``PIPELINE_PADDING``.

    Parameters
    ----------
    samples : SampleSet or array-like, shape (n, d)
        Nonempty collection of points.

    Returns
    -------
    BoxScaler
        The component-wise min/max box with each side extended by
        ``PIPELINE_PADDING`` (1e-3) of its width on both ends, so every sample
        lies strictly inside. The padding is a constant of the pipeline: a
        tight box puts each coordinate's largest sample at 1 in unit-box
        coordinates, which on data of two or more dimensions zeroes its row of
        the fitting matrix.

    Notes
    -----
    A dimension in which all samples share one coordinate has zero width; it
    is widened symmetrically by 1e-9 (before the padding) and a warning is
    issued, so constant output components do not abort a run.
    """
    pts = as_points(samples)
    if pts.shape[0] == 0:
        raise ValueError("cannot fit a box to an empty sample set")
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
    pad = PIPELINE_PADDING * (hi - lo)
    return BoxScaler(lo - pad, hi + pad)


def cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _send(pipe, obj):
    """Write ``obj`` to ``pipe`` as its pickle's length in 8 bytes, then the pickle."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe):
    """The next object ``_send`` wrote to ``pipe``; None at the end of the pipe."""
    header = pipe.read(8)
    size = int.from_bytes(header, "little")
    data = pipe.read(size)
    return pickle.loads(data) if len(header) == 8 and len(data) == size else None


def _work(fn, payloads, fd):
    """Send ``(True, fn(p))`` for each payload in turn through the pipe
    ``fd``, or ``(False, (exc, its traceback's text))`` for the first
    exception ``fn`` raises."""
    with open(fd, "wb") as pipe:
        try:
            for p in payloads:
                _send(pipe, (True, fn(p)))
        except Exception as exc:
            _send(pipe, (False, (exc, traceback.format_exc())))


def ordered_map(fn, payloads, workers):
    """Yield ``fn(p)`` for each of the sequence ``payloads``, in order.

    With ``workers`` > 1, more than one payload and a platform that can
    fork, ``w = min(workers, len(payloads))`` forked worker processes run
    the tasks, so that none imports the package again or is sent its
    payloads; elsewhere the tasks run in process. Worker k runs payloads
    k, k + w, ... and writes each result to a pipe of its own; the calling
    thread reads them in task order, each with one read of its exact size,
    and no other thread starts. A write blocks until the pipe has room, so
    a worker runs at most one result ahead of what its pipe holds. An
    exception raised by ``fn`` reaches the caller as itself; a worker that
    dies raises ``BrokenProcessPool``. When the generator finishes, raises
    or is closed, every worker has been joined, and killed first unless it
    ran to the end.
    """
    workers = min(workers, len(payloads))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield from map(fn, payloads)
        return
    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    finished = False
    try:
        for k in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                proc = context.Process(target=_work, args=(fn, payloads[k::workers], write_fd))
                proc.start()
            finally:
                os.close(write_fd)  # so that the worker's exit ends the pipe
            procs.append(proc)
        for i in range(len(payloads)):
            message = _receive(pipes[i % workers])
            if message is None:
                raise BrokenProcessPool(f"a worker process died before it sent result {i}")
            ok, value = message
            if not ok:
                exc, trace = value
                raise exc from RuntimeError(f"raised in a worker process:\n{trace}")
            yield value
        finished = True
    finally:
        for proc in procs:
            if not finished:
                proc.kill()
            proc.join()
        for pipe in pipes:
            pipe.close()
