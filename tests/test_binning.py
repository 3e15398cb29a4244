from functools import partial

import numpy as np
import pytest

from dcinv.binning import (
    UnreachableCellError,
    classify,
    distribute_cell_weights,
    make_kmeans,
    make_regular_grid,
    pushforward_binned,
    solve_binning,
    solve_naive,
)
from dcinv.core import BoxScaler, SampleSet
from dcinv.density import solve_density
from dcinv.edf import sup_distance, wedf_eval_many
from dcinv.models import HeatRod, UniformBoxSampler, draw_pairs, heat_rod_observed
from dcinv.targets import EmpiricalTarget, UniformTarget


def test_grid_reps_unit_box():
    part = make_regular_grid(BoxScaler([0.0], [1.0]), 4)
    assert np.allclose(part.reps.points[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_grid_reps_wider_box():
    part = make_regular_grid(BoxScaler([0.0], [2.0]), 2)
    assert np.allclose(part.reps.points[:, 0], [0.5, 1.5])


def test_grid_classify_half_open():
    part = make_regular_grid(BoxScaler([0.0], [1.0]), 4)
    assert classify(part, [0.25]) == 1  # 0.25 lies in [0.25, 0.5)
    assert classify(part, [0.99]) == 3
    assert classify(part, [1.7]) == 3  # outside the box clamps to the last cell
    assert classify(part, [-0.5]) == 0


def test_grid_classify_2d_order():
    part = make_regular_grid(BoxScaler([0.0, 0.0], [1.0, 1.0]), (2, 3))
    assert part.p == 6
    reps = part.reps.points
    idx = part.classify_many(reps)
    assert np.array_equal(idx, np.arange(6))  # reps classify to their own cells


def test_kmeans_two_cluster_optimum():
    part = make_kmeans(np.array([0.0, 0.1, 0.9, 1.0]), p=2, seed=0)
    cents = np.sort(part.centroids.points[:, 0])
    assert np.allclose(cents, [0.05, 0.95])


def test_kmeans_p_equals_n():
    pts = np.array([0.1, 0.4, 0.7, 0.95])
    part = make_kmeans(pts, p=4, seed=1)
    assert part.inertia == pytest.approx(0.0, abs=1e-30)
    assert np.allclose(np.sort(part.centroids.points[:, 0]), pts)


def test_kmeans_inertia_non_increasing():
    rng = np.random.default_rng(3)
    part = make_kmeans(rng.uniform(size=(300, 2)), p=7, seed=4)
    hist = np.array(part.inertia_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_kmeans_tie_breaks_to_lowest_index():
    part = make_kmeans(np.array([0.0, 0.1, 0.9, 1.0]), p=2, seed=0)
    cents = part.centroids.points[:, 0]
    midpoint = np.array([[np.mean(cents)]])
    assert classify(part, midpoint[0]) == 0


def test_kmeans_requires_distinct_points():
    with pytest.raises(ValueError):
        make_kmeans(np.array([0.5, 0.5, 0.5]), p=2, seed=0)


def test_kmeans_reproducible():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(200, 1))
    a = make_kmeans(pts, p=9, seed=11)
    b = make_kmeans(pts, p=9, seed=11)
    assert np.array_equal(a.centroids.points, b.centroids.points)


def test_distribute_hand_case():
    # p=2, w={0.5,1.5}, 4 samples with 2 per cell -> u = {0.125,0.125,0.375,0.375}
    u, w_f, counts, dropped = distribute_cell_weights(
        np.array([0.5, 1.5]), np.array([0, 0, 1, 1]), p=2
    )
    assert np.allclose(u, [0.125, 0.125, 0.375, 0.375])
    assert u.sum() == pytest.approx(1.0, abs=1e-12)
    assert dropped == 0.0


def test_distribute_floors_tiny_weights():
    u, w_f, counts, dropped = distribute_cell_weights(
        np.array([1e-9, 2.0 - 1e-9]), np.array([0, 0, 1, 1]), p=2, weight_floor=1e-6
    )
    assert np.all(u[:2] == 0.0)
    assert u.sum() == pytest.approx(1.0, abs=1e-12)
    assert w_f[0] == 0.0


def test_distribute_unreachable_strict():
    with pytest.raises(UnreachableCellError, match="cell 1"):
        distribute_cell_weights(np.array([1.0, 1.0]), np.array([0, 0]), p=2)
    u, w_f, counts, dropped = distribute_cell_weights(
        np.array([1.0, 1.0]), np.array([0, 0]), p=2, strict=False
    )
    assert dropped == pytest.approx(0.5)


def unit_identity_model(pts):
    return pts[:, 0]


def live_draw(model, sampler, seed):
    """The draw callable of a live model: one stream from ``default_rng(seed)``."""
    return partial(draw_pairs, sampler, model, rng=np.random.default_rng(seed))


def test_solve_binning_structure_and_pushforward_identity():
    sampler = UniformBoxSampler(BoxScaler([0.0], [1.0]))
    draw = live_draw(unit_identity_model, sampler, 12)
    sol = solve_binning(*draw(4000), UniformTarget(0.0, 1.0), ("grid", 8), draw=draw, seed=12)
    u = sol.weights.weights
    w = sol.cell_weights.weights
    # sum-one, equal weights within cells, exact aggregation identity
    assert abs(u.sum() - 1.0) < 1e-12
    for k in range(sol.p):
        in_cell = u[sol.assignments == k]
        if in_cell.size:
            assert np.ptp(in_cell) == 0.0
            assert abs(in_cell.sum() - w[k] / sol.p) < 1e-12
    # identical target and predicted distribution: weights near one
    assert np.max(np.abs(w - 1.0)) < 0.4
    # push-forward through the classifier equals the rep-weighted EDF exactly
    pf = pushforward_binned(sol)
    reps = sol.partition.reps.points
    mapped = reps[sol.assignments]
    queries = np.linspace(-0.1, 1.1, 37)[:, None]
    lhs = wedf_eval_many(pf, queries)
    rhs = (u[None, :] * (mapped[None, :, 0] <= queries)).sum(axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_solve_binning_p_one():
    sampler = UniformBoxSampler(BoxScaler([0.0], [1.0]))
    draw = live_draw(unit_identity_model, sampler, 3)
    sol = solve_binning(*draw(50), UniformTarget(0.0, 1.0), ("grid", 1), draw=draw, seed=3)
    pf = pushforward_binned(sol)
    assert pf.eval([2.0]) == pytest.approx(1.0)
    assert sol.cell_weights.weights[0] == pytest.approx(1.0)


def gap_model(pts):
    # outputs never land in (0.4, 0.9): an unreachable band for any target
    x = pts[:, 0]
    return np.where(x < 0.4, x, x + 0.5)


def test_solve_binning_unreachable_cell_aborts():
    sampler = UniformBoxSampler(BoxScaler([0.0], [1.0]))
    draw = live_draw(gap_model, sampler, 7)
    with pytest.raises(UnreachableCellError):
        solve_binning(*draw(600), UniformTarget(0.0, 1.5), ("grid", 30), draw=draw, seed=7)


def test_solve_binning_fill_loop_grows_samples():
    sampler = UniformBoxSampler(BoxScaler([0.0], [1.0]))
    # target concentrated near the upper edge forces high minimum counts there
    draw = live_draw(unit_identity_model, sampler, 9)
    sol = solve_binning(
        *draw(500), UniformTarget(0.9, 1.0), ("grid", 10), draw=draw, seed=9, n_batch=500
    )
    assert sol.n >= 500
    deficient = sol.counts < sol.n_min
    assert not deficient.any()
    if sol.n_batches > 0:
        assert sol.n > 500


def test_solve_binning_kmeans_partition():
    sampler = UniformBoxSampler(BoxScaler([0.0], [1.0]))
    draw = live_draw(unit_identity_model, sampler, 21)
    sol = solve_binning(*draw(2000), UniformTarget(0.0, 1.0), ("kmeans", 12), draw=draw, seed=21)
    assert sol.partition.kind == "kmeans"
    assert abs(sol.weights.weights.sum() - 1.0) < 1e-12


def test_solve_binning_precomputed_pairs():
    rng = np.random.default_rng(31)
    lam = rng.uniform(size=(800, 1))
    q = lam[:, 0] * 2.0
    sol = solve_binning(lam, q, UniformTarget(0.0, 2.0), ("grid", 6), seed=0)
    assert sol.n == 800
    assert sol.n_batches == 0


def test_solve_binning_heat_rod_improves_pushforward():
    model = HeatRod()
    sampler = UniformBoxSampler(model.box)
    target = heat_rod_observed()
    draw = live_draw(model, sampler, 17)
    sol = solve_binning(*draw(800), target, ("grid", 30), draw=draw, seed=17, min_fill="none")
    cdf = lambda pts: target.cdf(pts[:, 0])
    err_binned = sup_distance(
        sol.pushforward(), cdf, sol.box, grid_per_dim=2048,
        extra_points=sol.predicted.points,
    )
    from dcinv.core import WeightedEdf

    err_plain = sup_distance(
        WeightedEdf.plain(sol.predicted), cdf, sol.box, grid_per_dim=2048,
        extra_points=sol.predicted.points,
    )
    assert err_binned < err_plain


def test_naive_identity_target_all_ones():
    rng = np.random.default_rng(41)
    lam = rng.uniform(size=(60, 2))
    q = lam[:, 0] + 0.3 * lam[:, 1]
    sol = solve_naive(lam, q, EmpiricalTarget(q[:, None]))
    assert np.max(np.abs(sol.weights.weights - 1.0)) < 1e-6


def test_naive_single_sample():
    with pytest.warns(UserWarning, match="zero-width"):
        sol = solve_naive(np.array([[0.5]]), np.array([[0.4]]), UniformTarget(0.0, 1.0))
    assert sol.weights.weights[0] == pytest.approx(1.0)


def test_naive_variance_exceeds_binning_on_heat_rod():
    model = HeatRod()
    sampler = UniformBoxSampler(model.box)
    target = heat_rod_observed()
    n = 400
    rng = np.random.default_rng(53)
    initial, predicted = draw_pairs(sampler, model, n, rng)
    naive = solve_naive(initial, predicted, target)
    binned = solve_binning(initial, predicted, target, ("grid", 25), seed=0, min_fill="none")
    var_naive = np.var(naive.weights.weights)
    var_binned = np.var(n * binned.weights.weights)
    assert var_naive > var_binned


def test_classifier_total_on_random_points():
    rng = np.random.default_rng(61)
    grid = make_regular_grid(BoxScaler([0.0, 0.0], [1.0, 1.0]), (5, 7))
    km = make_kmeans(rng.uniform(size=(400, 2)), p=13, seed=2)
    pts = rng.normal(0.5, 2.0, size=(100_000, 2))
    for part in (grid, km):
        idx = part.classify_many(pts)
        assert idx.min() >= 0 and idx.max() < part.p


def test_min_fill_policies():
    from dcinv.binning import at_least_one_min_fill, proportional_min_fill

    w = np.array([0.0, 1e-9, 0.4, 2.6])
    prop = proportional_min_fill(w, p=4, n_target=100)
    assert np.array_equal(prop, [0, 0, np.ceil(25 * 0.4), np.ceil(25 * 2.6)])
    one = at_least_one_min_fill(w, p=4, n_target=100)
    assert np.array_equal(one, [0, 0, 1, 1])


def test_solve_binning_at_least_one_policy():
    sampler = UniformBoxSampler(BoxScaler([0.0], [1.0]))
    draw = live_draw(unit_identity_model, sampler, 5)
    sol = solve_binning(
        *draw(300), UniformTarget(0.0, 1.0), ("grid", 12), draw=draw, seed=5,
        min_fill="at_least_one",
    )
    kept = sol.cell_weights.weights > 0
    assert np.all(sol.counts[kept] >= 1)


def test_solve_binning_data_box_override():
    rng = np.random.default_rng(67)
    lam = rng.uniform(size=(500, 1))
    box = BoxScaler([-0.02], [1.02])  # known support instead of the fitted hull
    sol = solve_binning(lam, lam, UniformTarget(0.0, 1.0), ("grid", 8), seed=0, data_box=box)
    assert np.array_equal(sol.box.lower, box.lower)
    assert abs(sol.weights.weights.sum() - 1.0) < 1e-12


def test_solve_binning_multi_batch_counts_and_alignment():
    model = HeatRod()
    sampler = UniformBoxSampler(model.box)
    draw = live_draw(model, sampler, 4)
    sol = solve_binning(*draw(600), heat_rod_observed(), ("grid", 30), draw=draw, seed=4, n_batch=200)
    assert sol.n_batches > 1
    assert sol.n == 600 + 200 * sol.n_batches
    np.testing.assert_array_equal(sol.counts, np.bincount(sol.assignments, minlength=sol.p))
    assert not np.any(sol.counts < sol.n_min)
    # the batches are joined in draw order, row-aligned across the three arrays
    rng = np.random.default_rng(4)
    draws = [sampler.sample(600, rng).points]
    draws += [sampler.sample(200, rng).points for _ in range(sol.n_batches)]
    np.testing.assert_array_equal(sol.initial.points, np.vstack(draws))
    np.testing.assert_array_equal(sol.predicted.points[:, 0], model.qoi(sol.initial.points))
    np.testing.assert_array_equal(sol.assignments, sol.partition.classify_many(sol.predicted.points))


def test_solve_binning_draws_only_in_the_fill_loop():
    model = HeatRod()
    draw = live_draw(model, UniformBoxSampler(model.box), 4)
    sizes = []

    def counting_draw(k):
        sizes.append(k)
        return draw(k)

    initial, predicted = draw(600)
    target = heat_rod_observed()
    sol = solve_binning(initial, predicted, target, ("grid", 10), draw=counting_draw, n_batch=200)
    assert sol.n_batches > 1
    assert sizes == [200] * sol.n_batches
    without = solve_binning(initial, predicted, target, ("grid", 10), n_batch=200)
    assert without.n_batches == 0 and without.n == 600
    assert not without.n_min.any()


@pytest.mark.parametrize("method", ["naive", "binning", "density"])
def test_misaligned_sample_pairs_are_rejected(method):
    lam = np.linspace(0.0, 1.0, 10)[:, None]
    target = UniformTarget(0.0, 1.0)
    with pytest.raises(ValueError, match="sample counts differ"):
        if method == "naive":
            solve_naive(lam, lam[:7], target)
        elif method == "density":
            solve_density(lam, lam[:7], lam)
        else:
            solve_binning(lam, lam[:7], target, ("grid", 3))

