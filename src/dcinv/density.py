"""Density-based inversion baseline: Gaussian KDE, the observed-to-predicted
density ratio, the predictability diagnostic, and rejection sampling.

The ratio r(lambda) = pi_obs(Q(lambda)) / pi_pred(Q(lambda)) reweights the
initial samples; its sample mean is the predictability diagnostic and should
be close to one when the observed distribution is dominated by the predicted.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Normalization, SampleSet, WeightedPairs, WeightVector, as_box, as_points,
                   ordered_map, pool_size, sample_pair)
from .solver import WeightCollapseError

DENSITY_FLOOR = 1e-300
COV_EPS = 1e-12
BINNED_GRID = 4096  # grid cells of the binned 1-D evaluation

# Query-by-sample elements per block of exact evaluation (about 13 query rows
# at n = 10 000). Kept small so that the block (1 MiB at d = 1) stays in cache
# through its subtract, whiten, square, exp and sum passes; large blocks made
# each pass a round trip to memory and held several 128 MB temporaries. A
# block whose rows' kernel windows leave out some samples computes only the
# window span, in a second buffer of the same size; at d >= 2 the
# differences take a third buffer, d times that size.
_EVAL_BLOCK_ELEMS = 1 << 17
# Blocks of 1-D exact evaluation per worker process, below which forking the
# worker costs more than it saves (measured in KdeModel.pdf).
KDE_POOL_BLOCKS_PER_WORKER = 24

# exp(x) rounds to +0.0 at and below this argument: the exact exp(-746) is
# below 2^-1075 (ln 2^-1075 = -745.13), half the smallest subnormal.
EXP_ZERO_AT = -746.0

# Half-width of a kernel window on the first coordinate, in units of L_00 of
# the bandwidth's Cholesky factor L: a sample farther than this from the
# query there has a computed kernel argument below EXP_ZERO_AT (see
# KdeModel.pdf). The 1e-6 slack covers a few roundings of 2^-53.
_WINDOW_REACH = float(np.sqrt(-2.0 * EXP_ZERO_AT)) * (1.0 + 1e-6)


class BandwidthError(ValueError):
    """The bandwidth matrix is not finite, symmetric and positive definite."""


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density estimate with a full bandwidth matrix."""

    points: SampleSet
    bandwidth_matrix: np.ndarray

    def __post_init__(self):
        if not isinstance(self.points, SampleSet):
            object.__setattr__(self, "points", SampleSet(self.points))
        bw = np.asarray(self.bandwidth_matrix, dtype=float)
        d = self.points.dim
        if bw.shape != (d, d):
            raise ValueError(f"bandwidth matrix shape {bw.shape}, expected ({d}, {d})")
        if not np.all(np.isfinite(bw)):  # NaN passes the two tests below
            raise BandwidthError("bandwidth matrix must be finite")
        if np.max(np.abs(bw - bw.T)) > 1e-12:
            raise BandwidthError("bandwidth matrix must be symmetric")
        try:
            chol = np.linalg.cholesky(bw)
        except np.linalg.LinAlgError:
            raise BandwidthError("bandwidth matrix must be positive definite") from None
        bw = bw.copy()
        bw.flags.writeable = False
        object.__setattr__(self, "bandwidth_matrix", bw)
        object.__setattr__(self, "_chol", chol)

    @functools.cached_property
    def _sorted(self):
        """The stable argsort of the samples by their first coordinate and
        the sample rows in that order, sorted on the first exact evaluation
        (binned needs neither)."""
        order = np.argsort(self.points.points[:, 0], kind="stable")
        return order, self.points.points[order]

    @property
    def dim(self):
        return self.points.dim

    @property
    def n(self):
        return self.points.n

    def pdf(self, q, method="exact"):
        """Density values at query points.

        method="exact" sums the kernels directly, in blocks of about 1 MiB
        whatever n and m are. At every d it evaluates, for each query q, only
        the samples whose first coordinate lies within q_0 -+ r, for r =
        sqrt(-2 EXP_ZERO_AT) (1 + 1e-6) L_00 and L the lower Cholesky factor
        of the bandwidth matrix. With v = q - x the kernel argument is
        -|L^-1 v|^2 / 2. Its first whitened component v_0 / L_00 is computed
        within an ulp; the other squares are >= 0 and rounding is monotone,
        so the computed sum of squares is >= the computed (v_0 / L_00)^2. A
        sample outside the window so gets an argument below EXP_ZERO_AT =
        -746 (the slack covers the rounding of the subtract, the whitening
        and the square), and its kernel is +0.0 in any order of operations.
        A query with an empty window gives +0.0 and is never computed. The
        other rows are taken in order of q_0, a block at a time; a block
        whose window span holds all n samples is computed whole, any other
        over its span only and scattered into zeroed rows of n. Each row is
        summed whole, adding the same values in the same order as a sum over
        all n kernels, so the result is bit for bit the same. Time is O(n m)
        at worst and proportional to the window spans in general.

        At d = 1, on two or more CPUs of a platform that can fork, those rows
        are cut into runs of whole blocks, one run per worker process
        (``core.pool_size``: one per KDE_POOL_BLOCKS_PER_WORKER = 24 blocks,
        at most one per CPU), and each worker runs the same block loop over
        its run. The blocks are those of the loop in one process and a row's
        sum reads only its own row of kernels, so the bits do not move.
        Forking two workers from a 60 MiB process costs about 7 ms, the time
        of about 22 dense blocks at n = 10 000 on a 2-vCPU host: two workers
        broke even at 44 to 48 blocks. At d >= 2 the whitening is a
        triangular solve that a threaded BLAS (OpenBLAS here) already spreads
        over threads of its own, and forked workers, each with such threads,
        ran 1.7 to 2 times slower than one process at 2 to 128 blocks; so
        those rows are evaluated in process.

        method="binned" (d = 1 only) convolves a histogram of the samples
        with the kernel on a regular grid and interpolates: O(n + grid log
        grid + m) time. With BINNED_GRID = 4096 cells its relative error is
        ~(grid spacing / bandwidth)^2 / 24, far below Monte-Carlo noise.
        """
        pts = as_points(q)
        if pts.shape[1] != self.dim:
            raise ValueError(f"query dim {pts.shape[1]}, kde dim {self.dim}")
        if method == "binned":
            if self.dim != 1:
                raise ValueError("binned evaluation is 1-D only")
            return self._pdf_binned_1d(pts[:, 0])
        if method != "exact":
            raise ValueError(f"unknown evaluation method {method!r}")
        return self._pdf_exact(pts)

    def _pdf_exact(self, pts):
        d = self.dim
        log_norm = d * 0.5 * np.log(2.0 * np.pi) + np.sum(np.log(np.diag(self._chol)))
        rows = max(1, _EVAL_BLOCK_ELEMS // (self.n * d))
        return self._kernel_sums(pts, rows) / (self.n * np.exp(log_norm))

    def _kernel_sums(self, q, rows):
        reach = _WINDOW_REACH * self._chol[0, 0]
        first_coord = self._sorted[1][:, 0]
        lo = np.searchsorted(first_coord, q[:, 0] - reach, side="left")
        hi = np.searchsorted(first_coord, q[:, 0] + reach, side="right")
        # rows in first-coordinate order, so that a block's windows overlap
        # and their span [lo of its first row, hi of its last row) is tight
        order = np.argsort(q[:, 0], kind="stable")
        order = order[hi[order] > lo[order]]
        blocks = -(-order.size // rows)
        workers = max(pool_size(blocks, KDE_POOL_BLOCKS_PER_WORKER), 1) if self.dim == 1 else 1
        # one run of whole blocks per worker: the blocks are those of one loop
        runs = np.split(order, rows * (blocks * np.arange(1, workers) // workers))
        out = np.zeros(q.shape[0])
        out[order] = np.concatenate(list(ordered_map(
            functools.partial(self._block_sums, q, lo, hi, rows), runs, workers)))
        return out

    def _block_sums(self, q, lo, hi, rows, run):
        """The kernel sums of the query rows ``run``, in order of their first
        coordinate and none with an empty window, a block of ``rows`` at a time."""
        x = self.points.points
        n, d = x.shape
        sq_norms = _sq_norms_1d if d == 1 else _sq_norms
        x_order, x_sorted = self._sorted
        sums = np.empty(run.size)
        quad = np.empty((min(rows, run.size), n))
        span_buf = np.empty(quad.size)
        diff_buf = np.empty(quad.size * d if d > 1 else 0)
        for start in range(0, run.size, rows):
            idx = run[start : start + rows]
            block = quad[: idx.size]
            first, stop = lo[idx[0]], hi[idx[-1]]
            width = stop - first
            dense = width == n
            kernels = block if dense else span_buf[: idx.size * width].reshape(idx.size, width)
            sq_norms(q[idx], x if dense else x_sorted[first:stop], self._chol, kernels, diff_buf)
            kernels *= -0.5
            np.exp(kernels, out=kernels)
            if not dense:
                block.fill(0.0)
                block[:, x_order[first:stop]] = kernels
            # each query row is reduced whole, so the summation order is the
            # same at any block size and with either branch
            sums[start : start + idx.size] = block.sum(axis=1)
        return sums

    def _pdf_binned_1d(self, q):
        if q.size == 0:
            return np.empty(0)
        x = self.points.points[:, 0]
        h = float(np.sqrt(self.bandwidth_matrix[0, 0]))
        pad = 8.0 * h
        lo = min(x.min(), q.min()) - pad
        hi = max(x.max(), q.max()) + pad
        delta = (hi - lo) / BINNED_GRID
        edges = np.linspace(lo, hi, BINNED_GRID + 1)
        counts, _ = np.histogram(x, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        # data spread far below h gives pad / delta ~ BINNED_GRID / 2: cap the kernel
        half = min(int(np.ceil(pad / delta)), (BINNED_GRID - 1) // 2)
        offs = np.arange(-half, half + 1) * delta
        kernel = np.exp(-0.5 * (offs / h) ** 2) / (np.sqrt(2.0 * np.pi) * h)
        dens = np.convolve(counts, kernel, mode="same") / self.n
        # sorted queries make np.interp's bracket search start at the last
        # bracket; the bracket of a query is unique, so no bit moves. The
        # sorted copy then takes the results in the queries' order
        order = np.argsort(q)
        out = q[order]
        out[order] = np.interp(out, centers, dens, left=0.0, right=0.0)
        return out


def _sq_norms_1d(q, x, chol, out, _diff_buf):
    """Write the squared whitened distances ((q_i - x_j) / chol[0, 0])^2 of
    the 1-D query rows ``q`` and samples ``x`` into ``out``."""
    np.subtract(q, x.T, out=out)
    # bit for bit what a triangular solve does at d = 1 (a multiply by the
    # reciprocal); dividing by chol[0, 0] is not
    out *= 1.0 / chol[0, 0]
    np.square(out, out=out)


def _sq_norms(q, x, chol, out, diff_buf):
    """Write the squared whitened distances |chol^-1 (q_i - x_j)|^2 of the
    query rows ``q`` and samples ``x`` (d >= 2) into ``out``, through the
    differences in ``diff_buf``."""
    from scipy.linalg import solve_triangular

    d = x.shape[1]
    # at least two right-hand sides: a single one is solved by another BLAS
    # path (trsv), whose last bits differ; the buffer holds n >= 2 of them
    cols = max(out.size, 2)
    diff = diff_buf[: cols * d].reshape(cols, d)
    np.subtract(q[:, None, :], x[None, :, :], out=diff[: out.size].reshape(out.shape + (d,)))
    diff[out.size :] = 0.0
    white = solve_triangular(chol, diff.T, lower=True, overwrite_b=True, check_finite=False)
    np.square(white, out=white)
    np.sum(white[:, : out.size], axis=0, out=out.reshape(-1))


def _bandwidth_factor(rule, n, d):
    if rule == "scott":
        return n ** (-2.0 / (d + 4))
    if rule == "silverman":
        return (n * (d + 2.0) / 4.0) ** (-2.0 / (d + 4))
    raise ValueError(f"unknown bandwidth rule {rule!r}")


def kde_fit(samples, rule="scott"):
    """Fit a Gaussian KDE.

    Parameters
    ----------
    samples : SampleSet or array-like, shape (n, d), n >= 2
    rule : "scott", "silverman", or a positive float
        Rules scale the sample covariance by n^(-2/(d+4)) (Scott) or
        (n (d+2)/4)^(-2/(d+4)) (Silverman). A float h fixes the bandwidth
        matrix to h^2 I (h is the kernel standard deviation per coordinate).

    A singular sample covariance falls back to its diagonal with a 1e-12
    variance floor, with a warning.
    """
    pts = as_points(samples)
    n, d = pts.shape
    if n < 2:
        raise ValueError(f"KDE needs at least 2 samples, got {n}")
    if isinstance(rule, (int, float)) and not isinstance(rule, bool):
        h = float(rule)
        if h <= 0:
            raise ValueError(f"fixed bandwidth must be positive, got {h}")
        return KdeModel(SampleSet(pts), h * h * np.eye(d))
    cov = np.atleast_2d(np.cov(pts.T, ddof=1))
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        warnings.warn(
            "singular sample covariance; falling back to its diagonal "
            f"with variance floor {COV_EPS}",
            stacklevel=2,
        )
        cov = np.diag(np.maximum(np.diag(cov), COV_EPS))
    bw = cov * _bandwidth_factor(rule, n, d)
    return KdeModel(SampleSet(pts), bw)


def density_ratio(observed_kde, predicted_kde, q):
    """r(q) = pi_obs(q) / pi_pred(q) at a single point.

    Returns +inf when the predicted density at q underflows the 1e-300
    floor (a predictability violation at q).
    """
    ratios, _ = density_ratio_many(observed_kde, predicted_kde, np.atleast_2d(q))
    return float(ratios[0])


def density_ratio_many(observed_kde, predicted_kde, q, method="exact"):
    """Vectorized density ratio.

    Returns
    -------
    ratios : ndarray
        Observed over predicted density; +inf where predicted underflows.
    violations : ndarray of bool
        True where the predicted density fell below the floor.
    """
    pts = as_points(q)
    num = observed_kde.pdf(pts, method=method)
    den = predicted_kde.pdf(pts, method=method)
    violations = den < DENSITY_FLOOR
    ratios = np.full(pts.shape[0], np.inf)
    np.divide(num, den, out=ratios, where=~violations)
    return ratios, violations


def diagnostic(r_values):
    """Sample average of the density ratio.

    Equals one in expectation when the observed distribution is dominated by
    the predicted; values well below one flag observed mass the model cannot
    reach.
    """
    r = np.asarray(r_values, dtype=float)
    if r.size == 0:
        raise ValueError("diagnostic needs at least one ratio value")
    return float(np.mean(r))


def rejection_sample(initial_samples, r_values, seed):
    """Accept sample i with probability r_i / max(r); reproducible under seed.

    Returns the accepted subset as a SampleSet (an iid draw from the updated
    distribution when the ratios are exact).
    """
    samples = initial_samples if isinstance(initial_samples, SampleSet) else SampleSet(initial_samples)
    r = np.asarray(r_values, dtype=float)
    if r.shape != (samples.n,):
        raise ValueError(f"{r.shape[0] if r.ndim else 0} ratios for {samples.n} samples")
    if not np.all(np.isfinite(r)):
        raise ValueError("ratios must be finite for rejection sampling")
    m = r.max()
    if m <= 0.0:
        raise ValueError("all ratios are zero; nothing can be accepted")
    rng = np.random.default_rng(seed)
    accept = rng.uniform(size=samples.n) < r / m
    return SampleSet(samples.points[accept])


def update_probability(region, initial_samples, r_values):
    """Probability of an axis-aligned parameter region under the update.

    Returns the self-normalized estimate sum_{lambda_i in region} r_i /
    sum_i r_i (0.0 when every ratio is zero). Dividing by the summed ratios
    rather than by n makes it invariant to KDE mass leaking outside the
    sampling box. ``region`` goes through ``core.as_box``.
    """
    region = as_box(region)
    pts = as_points(initial_samples)
    r = np.asarray(r_values, dtype=float)
    if r.shape != (pts.shape[0],):
        raise ValueError("ratios misaligned with samples")
    inside = region.contains(pts)
    total = float(np.sum(r))
    return float(np.sum(r[inside]) / total) if total > 0 else 0.0


@dataclass(frozen=True)
class DensitySolution(WeightedPairs):
    """Full output of the density-based inversion on a sample set."""

    initial: SampleSet
    predicted: SampleSet
    r_values: np.ndarray
    violations: np.ndarray
    diagnostic: float
    observed_kde: KdeModel
    predicted_kde: KdeModel

    box = None  # no data box and no QP: the ratios need neither
    qp_solution = None

    @property
    def n_violations(self):
        return int(np.sum(self.violations))

    @property
    def weights(self):
        """Self-normalized ratios on the initial samples (sum to one)."""
        total = float(np.sum(self.r_values))
        if total <= 0:
            raise WeightCollapseError("all density ratios are zero")
        return WeightVector(self.r_values / total, Normalization.SUM_ONE)


def solve_density(initial_samples, predicted_samples, observed_samples, rule="scott", method="exact"):
    """Run the density-based inversion.

    Fits Gaussian KDEs to the observed and predicted samples, evaluates the
    density ratio at every predicted sample, and reports the diagnostic.
    Infinite ratios (predicted density underflow) are excluded from the
    diagnostic mean but counted as violations.
    """
    initial, predicted_pts = sample_pair(initial_samples, predicted_samples)
    predicted = SampleSet(predicted_pts)
    observed_kde = kde_fit(observed_samples, rule)
    predicted_kde = kde_fit(predicted, rule)
    ratios, violations = density_ratio_many(
        observed_kde, predicted_kde, predicted.points, method=method
    )
    finite = np.isfinite(ratios)
    diag = diagnostic(ratios[finite]) if np.any(finite) else np.inf
    return DensitySolution(
        initial, predicted, ratios, violations, diag, observed_kde, predicted_kde
    )
