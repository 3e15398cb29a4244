"""Partition the data space, fit cell weights by the QP, and distribute them
onto parameter samples.

The two-step method: (1) solve the weighted-EDF fitting QP on the partition's
representative points, giving one weight w_k per cell; (2) classify the
predicted samples into cells and give every sample in cell k the weight
u_i = w_k / (p n_k). Samples sharing a cell share a weight exactly, which is
what preserves the initially assumed conditional structure inside the
pre-image of each cell. Summed over a cell the u's reproduce w_k / p, so the
push-forward of the u-weighted parameter EDF through the cell classifier is
identical to the w-weighted EDF over the representative points.

Cell geometry is never materialized: a partition is its representative
points plus a total classifier.
"""

from dataclasses import dataclass, replace

import numpy as np

from .assembly import assemble_qp, group_repeats
from .core import (BoxScaler, Normalization, SampleSet, WeightedEdf, WeightedPairs, WeightVector,
                   as_box, as_points, fit_box, grid_points, sample_pair)
from .solver import solve_isotonic, solve_qp
from .targets import as_target

DEFAULT_MAX_BATCHES = 1000
KMEANS_MAX_ITER = 100
WEIGHT_FLOOR = 1e-6  # cell weights at or below it count as zero; see distribute_cell_weights


class UnreachableCellError(RuntimeError):
    """A cell kept positive weight but no sampled model output reaches it.

    The target puts mass where the predicted samples never land, so the
    partition is too fine for the predicted sample density (or the model
    simply cannot produce that data). Reducing the number of bins is the
    usual fix.
    """

    def __init__(self, cells, weights):
        self.cells = list(map(int, cells))
        self.weights = [float(w) for w in weights]
        detail = ", ".join(
            f"cell {c} (weight {w:.3g})" for c, w in zip(self.cells, self.weights)
        )
        super().__init__(
            f"no predicted samples reach {detail}; reduce the number of bins "
            "or check that the target is reachable by the model"
        )

    def __reduce__(self):  # rebuilt from the arguments, not from the message
        return type(self), (self.cells, self.weights)


class AllWeightsFlooredError(ValueError):
    """Every cell weight is at or below the weight floor, so no cell is kept."""


class KMeansCellsError(ValueError):
    """Fewer distinct samples than k-means cells."""


class DataBoxError(ValueError):
    """The given data box misses some of the predicted samples."""


class PartitionBoxError(ValueError):
    """A grid partition's box reaches outside the data box, so its outer
    representatives would be clipped onto the data box's edge."""


@dataclass(frozen=True)
class RegularGridPartition:
    """Half-open hyper-rectangles tiling a box; representatives are centers.

    Cells are [low, high) per dimension with the last cell closed;
    classification clamps points outside the box to the boundary cells, so
    the classifier is total.
    """

    box: BoxScaler
    cells_per_dim: tuple

    kind = "grid"

    def __post_init__(self):
        cells = tuple(int(c) for c in np.atleast_1d(self.cells_per_dim))
        if len(cells) != self.box.dim:
            raise ValueError(
                f"{len(cells)} cell counts for a {self.box.dim}-D box"
            )
        if any(c < 1 for c in cells):
            raise ValueError(f"cells_per_dim must be positive, got {cells}")
        object.__setattr__(self, "cells_per_dim", cells)

    @property
    def p(self):
        return int(np.prod(self.cells_per_dim))

    @property
    def reps(self):
        return SampleSet(grid_points([
            self.box.lower[k] + (np.arange(c) + 0.5) * self.box.width[k] / c
            for k, c in enumerate(self.cells_per_dim)
        ]))

    def classify_many(self, points):
        pts = as_points(points)
        if pts.shape[1] != self.box.dim:
            raise ValueError(f"points dim {pts.shape[1]}, partition dim {self.box.dim}")
        idx = np.zeros(pts.shape[0], dtype=np.int64)
        for k, c in enumerate(self.cells_per_dim):
            rel = (pts[:, k] - self.box.lower[k]) / self.box.width[k]
            cell = np.clip(np.floor(rel * c).astype(np.int64), 0, c - 1)
            idx = idx * c + cell
        return idx


@dataclass(frozen=True)
class KMeansPartition:
    """Implicit Voronoi cells of k-means centroids; nearest-centroid classifier."""

    centroids: SampleSet

    kind = "kmeans"

    def __post_init__(self):
        if not isinstance(self.centroids, SampleSet):
            object.__setattr__(self, "centroids", SampleSet(self.centroids))

    @property
    def p(self):
        return self.centroids.n

    @property
    def reps(self):
        return self.centroids

    def classify_many(self, points):
        pts = as_points(points)
        c = self.centroids.points
        if pts.shape[1] != c.shape[1]:
            raise ValueError(f"points dim {pts.shape[1]}, centroids dim {c.shape[1]}")
        return _nearest(pts, c)


def make_regular_grid(box, cells_per_dim):
    """Regular grid partition of ``box`` (read by ``core.as_box``)."""
    box = as_box(box)
    if np.isscalar(cells_per_dim):
        cells_per_dim = (int(cells_per_dim),) * box.dim
    return RegularGridPartition(box, tuple(cells_per_dim))


def _kmeans_pp_init(pts, p, rng):
    n = pts.shape[0]
    centroids = np.empty((p, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, p):
        total = d2.sum()
        if total <= 0:
            centroids[k] = pts[rng.integers(n)]
            continue
        centroids[k] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centroids[k]) ** 2).sum(axis=1))
    return centroids


def make_kmeans(samples, p, seed):
    """Cluster samples with Lloyd's algorithm from a k-means++ start.

    Reproducible under ``seed``; runs at most KMEANS_MAX_ITER iterations. An
    empty cluster is re-seeded at the point farthest from its assigned
    centroid. Requires at least p distinct points (KMeansCellsError).
    """
    pts = as_points(samples)
    n_distinct = np.unique(pts, axis=0).shape[0]
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if n_distinct < p:
        raise KMeansCellsError(f"need at least p={p} distinct points, got {n_distinct}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(pts, p, rng)
    assignments = None
    for _ in range(KMEANS_MAX_ITER):
        new_assign = _nearest(pts, centroids)
        closest = ((pts - centroids[new_assign]) ** 2).sum(axis=1)
        for k in range(p):
            mask = new_assign == k
            if np.any(mask):
                centroids[k] = pts[mask].mean(axis=0)
            else:
                far = int(np.argmax(closest))
                centroids[k] = pts[far]
                new_assign[far] = k
                closest[far] = 0.0
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return KMeansPartition(SampleSet(centroids))


def _nearest(pts, centroids):
    """Index of each point's nearest centroid (ties toward the lowest index),
    from squared distances in chunks of about 4e6 point-centroid pairs."""
    out = np.empty(pts.shape[0], dtype=np.int64)
    chunk = max(1, 4_000_000 // max(centroids.shape[0], 1))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        d2 = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        out[start : start + block.shape[0]] = np.argmin(d2, axis=1)
    return out


def fit_weights(points, target, box):
    """Scale data-space ``points`` into the unit box of ``box``, clip them to
    it, and solve their fitting QP against ``target``. Returns the QpSolution,
    whose mean-one weights align with ``points``.

    Equal points enter the objective only through their summed weight, so
    the QP is solved over the L' distinct points (:func:`group_repeats`), and
    each of the c repeats of a point of weight W' gets W' (l / L') / c: an
    optimum of the full problem with the same objective. The certificate and
    iterations are the distinct problem's. 1-D data is solved exactly by
    isotonic regression (method "isotonic"); higher dimensions by block
    principal pivoting (method "active-set"). Either way ``converged`` is the
    relative KKT certificate of :func:`~dcinv.solver.verify_kkt`."""
    pts = np.clip(box.scale(points), 0.0, 1.0)
    keep, group, counts = group_repeats(pts)
    merged = keep.size < group.size
    problem = assemble_qp(pts[keep] if merged else pts, target, box=box)
    sol = (solve_isotonic if pts.shape[1] == 1 else solve_qp)(problem)
    if not merged:
        return sol
    return replace(sol, w=sol.w[group] * (group.size / keep.size) / counts[group])


def resolve_data_box(predicted, data_box):
    """``data_box``, a known support of the ``predicted`` points, or if None the
    box ``fit_box`` fits to them; DataBoxError if ``data_box`` misses any of
    them."""
    pts = as_points(predicted)
    if data_box is None:
        return fit_box(pts)
    inside = int(data_box.contains(pts).sum())
    if inside < pts.shape[0]:
        found = f"only {inside}" if inside else "none"
        raise DataBoxError(
            f"data box {_bounds(data_box)} contains {found} of the {pts.shape[0]} samples"
        )
    return data_box


def _bounds(box):
    return np.column_stack([box.lower, box.upper]).tolist()


def classify(partition, q):
    """Total classifier: the (zero-based) cell index of a single data point."""
    return int(partition.classify_many(np.atleast_2d(np.asarray(q, float)))[0])


@dataclass(frozen=True)
class BinnedSolution(WeightedPairs):
    """Output of the binning method.

    cell_weights w are mean-one over the p cells; weights u are sum-one over
    the n parameter samples, constant within each cell.
    """

    partition: object
    cell_weights: WeightVector
    weights: WeightVector
    assignments: np.ndarray
    counts: np.ndarray
    n_min: np.ndarray
    initial: SampleSet
    predicted: SampleSet
    box: BoxScaler
    qp_solution: object
    n_batches: int

    @property
    def p(self):
        return self.partition.p

    @property
    def n(self):
        return self.initial.n


def pushforward_binned(solution):
    """Push-forward of the binned solution through the cell classifier.

    The w-weighted EDF over the representative points; identical by
    construction to aggregating the sample weights u over cells.
    """
    return WeightedEdf(solution.partition.reps, solution.cell_weights)


def distribute_cell_weights(w, assignments, p, strict=True):
    """Distribute cell weights w onto samples as u_i = w_k / (p n_k).

    Weights at or below ``WEIGHT_FLOOR`` (1e-6) are zeroed and the rest
    renormalized to mean one first, so the returned u sums to one exactly
    (samples in floored cells get u_i = 0). The floor is a constant, not a
    parameter: it counts weights too small to matter as zero, so their cells
    demand no samples, and the mean-one weights of a QP always keep a cell
    above it. Given weights that are all at or below it,
    AllWeightsFlooredError is raised. In strict mode a kept cell with no
    samples raises UnreachableCellError; otherwise its mass is dropped, and
    u sums to one less that mass.

    Returns (u, w_floored, counts).
    """
    w = np.asarray(w, dtype=float)
    assignments = np.asarray(assignments)
    if w.shape != (p,):
        raise ValueError(f"{w.shape[0] if w.ndim else 0} cell weights for p={p}")
    w_floored = np.where(w > WEIGHT_FLOOR, w, 0.0)
    total = w_floored.sum()
    if total <= 0:
        raise AllWeightsFlooredError(
            f"all cell weights are at or below the floor {WEIGHT_FLOOR:g}"
        )
    w_floored = w_floored * (p / total)
    counts = np.bincount(assignments, minlength=p)
    kept = w_floored > 0
    empty_kept = kept & (counts == 0)
    if strict and np.any(empty_kept):
        cells = np.nonzero(empty_kept)[0]
        raise UnreachableCellError(cells, w_floored[cells])
    per_cell = np.zeros(p)
    usable = kept & (counts > 0)
    per_cell[usable] = w_floored[usable] / (p * counts[usable])
    u = per_cell[assignments]
    return u, w_floored, counts


def proportional_min_fill(w, p, n_target):
    """n_min_k = ceil((n_target / p) w_k) for cells above WEIGHT_FLOOR, else 0."""
    s = n_target / p
    w = np.asarray(w, dtype=float)
    return np.where(w > WEIGHT_FLOOR, np.ceil(s * w), 0.0).astype(np.int64)


def at_least_one_min_fill(w, p, n_target):
    """n_min_k = 1 for cells above WEIGHT_FLOOR, else 0."""
    return (np.asarray(w, dtype=float) > WEIGHT_FLOOR).astype(np.int64)


_MIN_FILL_POLICIES = {
    "proportional": proportional_min_fill,
    "at_least_one": at_least_one_min_fill,
    "none": lambda w, p, n_target: np.zeros(len(w), dtype=np.int64),
}


def _resolve_partition(partition, predicted, box, seed):
    if isinstance(partition, (RegularGridPartition, KMeansPartition)):
        return partition
    kind, arg = partition
    if kind == "grid":
        return make_regular_grid(box, arg)
    if kind == "kmeans":
        return make_kmeans(predicted, int(arg), seed=seed)
    raise ValueError(f"unknown partition spec {partition!r}")


def solve_binning(
    initial,
    predicted,
    target,
    partition,
    draw=None,
    seed=0,
    n_batch=None,
    min_fill="proportional",
    data_box=None,
):
    """Run the full binning method on n aligned (parameter, data) sample pairs.

    Parameters
    ----------
    initial, predicted : SampleSet or array
        Aligned (n, d_in) parameter and (n, d_out) data samples.
    target : target distribution (exact or empirical)
    partition : Partition, ("grid", cells_per_dim), or ("kmeans", p)
        A ("grid", ...) spec covers the data box; a given grid partition's box
        must lie inside it.
    draw : callable, optional
        ``draw(k)`` returns k more aligned (initial, predicted) arrays, for
        example ``functools.partial(models.draw_pairs, sampler, qoi, rng=rng)``.
        It feeds the fill loop; without it there is no fill loop and
        ``n_min`` is all zeros.
    seed : int
        Seeds k-means.
    n_batch : int, optional
        Batch size of the fill loop; defaults to n.
    min_fill : "proportional", "at_least_one" or "none"
        Policy mapping cell weights to minimum counts, sized by n. "none"
        skips the fill loop (the weight distribution is still strict about
        reachable cells).
    data_box : BoxScaler, optional
        Known compact support of the predicted distribution; overrides the
        box fitted to the samples and must contain all of them.

    Returns
    -------
    BinnedSolution

    Notes
    -----
    Two values are constants of the method, not parameters: the fitted data
    box is padded by ``PIPELINE_PADDING`` (1e-3 of its width per side), which
    keeps the fitting matrix positive definite on data of two or more
    dimensions, and cell weights at or below ``WEIGHT_FLOOR`` (1e-6) count as
    zero, in the minimum fill and in the weight distribution.

    Raises
    ------
    UnreachableCellError
        When a positive-weight cell is not filled within DEFAULT_MAX_BATCHES
        batches (or has no samples at all without ``draw``).
    DataBoxError
        When ``data_box`` misses some of the predicted samples.
    PartitionBoxError
        When a grid partition's box is not inside the data box.
    """
    initial, predicted_pts = sample_pair(initial, predicted)
    initial_pts = initial.points
    if n_batch is None:
        n_batch = initial.n

    target = as_target(target)
    box = resolve_data_box(predicted_pts, data_box)
    part = _resolve_partition(partition, predicted_pts, box, seed)
    if part.kind == "grid" and not box.contains(np.vstack([part.box.lower, part.box.upper])).all():
        raise PartitionBoxError(
            f"partition box {_bounds(part.box)} is not inside the data box {_bounds(box)}"
        )
    p = part.p

    qp_sol = fit_weights(part.reps.points, target, box)
    w = qp_sol.w
    policy = _MIN_FILL_POLICIES["none" if draw is None else min_fill]
    n_min = policy(w, p, initial.n)

    assignments = part.classify_many(predicted_pts)
    counts = np.bincount(assignments, minlength=p)
    # The loop may run hundreds of batches, so it keeps per-batch arrays and
    # adds each batch's counts; stacking everything and recounting after
    # every batch would cost O(batches x total samples).
    chunks = [(initial_pts, predicted_pts, assignments)]
    batches = 0
    while np.any(counts < n_min):
        if batches >= DEFAULT_MAX_BATCHES:
            deficient = np.nonzero(counts < n_min)[0]
            raise UnreachableCellError(deficient, w[deficient])
        new_initial, new_pred = draw(n_batch)
        new_assign = part.classify_many(new_pred)
        chunks.append((new_initial, new_pred, new_assign))
        counts += np.bincount(new_assign, minlength=p)
        batches += 1
    if batches:
        initial_pts, predicted_pts, assignments = (np.concatenate(c) for c in zip(*chunks))
    del chunks  # the batch copies would otherwise stay alive through the distribution

    u, w_floored, counts = distribute_cell_weights(w, assignments, p, strict=True)
    return BinnedSolution(
        partition=part,
        cell_weights=WeightVector(w_floored, Normalization.MEAN_ONE),
        weights=WeightVector(u, Normalization.SUM_ONE),
        assignments=assignments,
        counts=counts,
        n_min=n_min,
        initial=SampleSet(initial_pts),
        predicted=SampleSet(predicted_pts),
        box=box,
        qp_solution=qp_sol,
        n_batches=batches,
    )


@dataclass(frozen=True)
class NaiveSolution(WeightedPairs):
    """Output of the naive method: QP weights applied directly to the
    parameter samples."""

    weights: WeightVector
    initial: SampleSet
    predicted: SampleSet
    box: BoxScaler
    qp_solution: object


def solve_naive(initial, predicted, target, data_box=None):
    """Fit weights on the aligned predicted samples and apply them to the
    parameters.

    Optimal in the data space by construction, but nothing controls the
    weight variability inside pre-image sets, so the weights fluctuate much
    more than the binning method's. ``data_box`` (a known compact support)
    overrides the box fitted to the samples and must contain all of them.
    The fitted box is padded by the constant ``PIPELINE_PADDING`` (1e-3 of
    its width per side; ``core.fit_box`` gives the reason).
    """
    initial, predicted_pts = sample_pair(initial, predicted)
    target = as_target(target)
    box = resolve_data_box(predicted_pts, data_box)
    qp_sol = fit_weights(predicted_pts, target, box)
    return NaiveSolution(
        weights=qp_sol.weights,
        initial=initial,
        predicted=SampleSet(predicted_pts),
        box=box,
        qp_solution=qp_sol,
    )
