"""Density-based inversion baseline: Gaussian KDE, the observed-to-predicted
density ratio, the predictability diagnostic, and rejection sampling.

The ratio r(lambda) = pi_obs(Q(lambda)) / pi_pred(Q(lambda)) reweights the
initial samples; its sample mean is the predictability diagnostic and should
be close to one when the observed distribution is dominated by the predicted.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Normalization, SampleSet, WeightedPairs, WeightVector, as_box, as_points,
                   exp_or_zero)
from .models import _sample_pair

DENSITY_FLOOR = 1e-300
COV_EPS = 1e-12
BINNED_GRID = 4096  # grid cells of the binned 1-D evaluation

# Query-by-sample elements per block of exact evaluation (about 13 query rows
# at n = 10 000). Kept small so that the block (1 MiB at d = 1) stays in cache
# through its subtract, whiten, square, exp and sum passes; large blocks made
# each pass a round trip to memory and held several 128 MB temporaries.
_EVAL_BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density estimate with a full bandwidth matrix."""

    points: SampleSet
    bandwidth_matrix: np.ndarray
    rule: str

    def __post_init__(self):
        if not isinstance(self.points, SampleSet):
            object.__setattr__(self, "points", SampleSet(self.points))
        bw = np.asarray(self.bandwidth_matrix, dtype=float)
        d = self.points.dim
        if bw.shape != (d, d):
            raise ValueError(f"bandwidth matrix shape {bw.shape}, expected ({d}, {d})")
        if np.max(np.abs(bw - bw.T)) > 1e-12:
            raise ValueError("bandwidth matrix must be symmetric")
        try:
            chol = np.linalg.cholesky(bw)
        except np.linalg.LinAlgError:
            raise ValueError("bandwidth matrix must be positive definite") from None
        bw = bw.copy()
        bw.flags.writeable = False
        object.__setattr__(self, "bandwidth_matrix", bw)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self):
        return self.points.dim

    @property
    def n(self):
        return self.points.n

    def pdf(self, q, method="exact"):
        """Density values at query points.

        method="exact" sums all n kernels directly: O(n m) time for m
        queries in O(block) scratch memory, about 1 MiB whatever n and m
        are. On a 2-vCPU Xeon it takes about 0.2 s per 1e8 kernels when no
        kernel underflows and up to about 2 s per 1e8 when a third to two
        thirds of them do, because np.exp is slow on arguments near its
        underflow.

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
        from scipy.linalg import solve_triangular

        x = self.points.points
        n, d = x.shape
        chol = self._chol
        log_norm = d * 0.5 * np.log(2.0 * np.pi) + np.sum(np.log(np.diag(chol)))
        out = np.empty(pts.shape[0])
        rows = max(1, _EVAL_BLOCK_ELEMS // (n * d))
        quad = np.empty((min(rows, pts.shape[0]), n))
        # at d = 1 the differences land in quad itself and are whitened there
        diff = quad[:, :, None] if d == 1 else np.empty(quad.shape + (d,))
        for start in range(0, pts.shape[0], rows):
            stop = min(start + rows, pts.shape[0])
            block, block_diff = quad[: stop - start], diff[: stop - start]
            np.subtract(pts[start:stop, None, :], x[None, :, :], out=block_diff)
            if d == 1:
                # bit for bit what the triangular solve below does at d = 1
                # (a multiply by the reciprocal); dividing by chol[0, 0] is not
                block *= 1.0 / chol[0, 0]
                np.square(block, out=block)
            else:
                white = solve_triangular(
                    chol, block_diff.reshape(-1, d).T, lower=True,
                    overwrite_b=True, check_finite=False,
                )
                np.square(white, out=white)
                np.sum(white, axis=0, out=block.reshape(-1))
            block *= -0.5
            exp_or_zero(block, out=block)
            # each query row is reduced whole, so the summation order is the
            # same at any block size
            block.sum(axis=1, out=out[start:stop])
        return out / (self.n * np.exp(log_norm))

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
        half = int(np.ceil(pad / delta))
        offs = np.arange(-half, half + 1) * delta
        kernel = np.exp(-0.5 * (offs / h) ** 2) / (np.sqrt(2.0 * np.pi) * h)
        dens = np.convolve(counts, kernel, mode="same") / self.n
        return np.interp(q, centers, dens, left=0.0, right=0.0)


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
        return KdeModel(SampleSet(pts), h * h * np.eye(d), rule="fixed")
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
    return KdeModel(SampleSet(pts), bw, rule=rule)


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


@dataclass(frozen=True)
class UpdateProbability:
    """Raw and self-normalized estimates of an updated-distribution probability."""

    raw: float
    self_normalized: float


def update_probability(region, initial_samples, r_values):
    """Probability of an axis-aligned parameter region under the update.

    raw = (1/n) sum r_i I(lambda_i in region); the self-normalized variant
    divides by the mean ratio instead of n, making it invariant to KDE mass
    leaking outside the sampling box. ``region`` goes through ``core.as_box``.
    """
    region = as_box(region)
    pts = as_points(initial_samples)
    r = np.asarray(r_values, dtype=float)
    if r.shape != (pts.shape[0],):
        raise ValueError("ratios misaligned with samples")
    inside = region.contains(pts)
    raw = float(np.sum(r[inside]) / r.size)
    total = float(np.sum(r))
    self_norm = float(np.sum(r[inside]) / total) if total > 0 else 0.0
    return UpdateProbability(raw, self_norm)


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
            raise ValueError("all density ratios are zero")
        return WeightVector(self.r_values / total, Normalization.SUM_ONE)


def solve_density(initial_samples, predicted_samples, observed_samples, rule="scott", method="exact"):
    """Run the density-based inversion.

    Fits Gaussian KDEs to the observed and predicted samples, evaluates the
    density ratio at every predicted sample, and reports the diagnostic.
    Infinite ratios (predicted density underflow) are excluded from the
    diagnostic mean but counted as violations.
    """
    initial, predicted_pts = _sample_pair(initial_samples, predicted_samples)
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
