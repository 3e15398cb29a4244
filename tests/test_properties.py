"""Property tests of the box coercion, the grouping of repeated rows, the QP
assembly and fit (mean-one weights, invariance under affine maps of the data
box), the 1-D isotonic solver against the dense block-pivoting solver, and
the distribution of cell weights onto samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcinv.assembly import QpProblem, assemble_qp, group_repeats
from dcinv.binning import distribute_cell_weights, fit_weights
from dcinv.core import BoxScaler, WeightedEdf, as_box, fit_box
from dcinv.edf import as_cdf_callable, wedf_eval_many
from dcinv.solver import solve_isotonic, solve_qp
from dcinv.targets import EmpiricalTarget, MixtureOfUniforms, NormalTarget

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
widths = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    arrays(float, d, elements=finite), arrays(float, d, elements=widths))))
def test_as_box_forms_agree(bounds):
    lower, width = bounds
    box = BoxScaler(lower, lower + width)
    assert as_box(box) is box
    rows = np.column_stack([box.lower, box.upper])
    for form in (rows, rows.tolist()):
        got = as_box(form)
        assert_bits_equal(got.lower, box.lower)
        assert_bits_equal(got.upper, box.upper)
    for k, (lo, hi) in enumerate(rows.tolist()):
        pair = as_box((lo, hi))
        assert pair.lower.tolist() == [box.lower[k]] and pair.upper.tolist() == [box.upper[k]]


unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(arrays(float, d, elements=unit), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), min_size=1, max_size=30))))
def test_group_repeats_partitions_rows_into_equal_ones(case):
    pool, picks = case
    pts = np.array([pool[i % len(pool)] for i in picks])  # rows repeat often
    keep, group, counts = group_repeats(pts)
    first = sorted({tuple(row): i for i, row in reversed(list(enumerate(pts.tolist())))}.values())
    assert keep.tolist() == first
    assert np.array_equal(pts[keep][group], pts)
    assert np.array_equal(counts, np.bincount(group)) and counts.sum() == len(pts)
    assert np.unique(pts[keep], axis=0).shape[0] == keep.size


def _target(kind, d, rng):
    """An empirical target of any dim, or at d = 1 an exact one (normal or
    mixture). Exact targets are 1-D, so d = 2 always gets an empirical one."""
    if kind == "empirical" or d > 1:
        return EmpiricalTarget(rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 40)), d)))
    if kind == "normal":
        return NormalTarget(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.05, 0.5)))
    return MixtureOfUniforms(((0.3, 0.1, 0.4), (0.7, 0.5, 0.9)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2).flatmap(lambda d: arrays(float, st.tuples(st.integers(1, 12), st.just(d)),
                                               elements=unit)),
    st.sampled_from(["empirical", "normal", "mixture"]),
    st.integers(0, 2**32 - 1),
)
def test_assemble_qp_without_box_is_the_unit_box(pts, kind, seed):
    target = _target(kind, pts.shape[1], np.random.default_rng(seed))
    d = pts.shape[1]
    plain = assemble_qp(pts, target)
    unit_box = assemble_qp(pts, target, box=BoxScaler(np.zeros(d), np.ones(d)))
    assert_bits_equal(plain.h, unit_box.h)
    assert_bits_equal(plain.b, unit_box.b)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(1, 2),
    st.sampled_from(["empirical", "normal", "mixture"]),
    st.integers(0, 2**32 - 1),
)
def test_fit_weights_are_mean_one(ell, d, kind, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(3.0, 2.0, size=(ell, d))
    box = fit_box(points)
    target = _target(kind, d, rng)
    sol = fit_weights(points, target, box)
    assert sol.w.shape == (ell,) and np.all(sol.w >= 0)
    assert abs(sol.w.mean() - 1.0) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(1, 2),
    st.sampled_from(["empirical", "normal"]),
    st.integers(0, 2**32 - 1),
    arrays(float, 2, elements=st.floats(1e-2, 1e2)),
    arrays(float, 2, elements=st.floats(-1e2, 1e2)),
)
def test_fit_weights_are_invariant_under_affine_maps_of_the_data_box(
    ell, d, kind, seed, scale, offset
):
    # mapping the points, the target and the box by x -> a x + s leaves the
    # unit-box problem, and so the weights, unchanged up to rounding
    rng = np.random.default_rng(seed)
    a, s = scale[:d], scale[:d] * offset[:d]
    points = rng.normal(3.0, 2.0, size=(ell, d))
    box = fit_box(points)
    mapped_box = BoxScaler(box.lower * a + s, box.upper * a + s)
    if kind == "normal" and d == 1:
        mu, sigma = float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.2, 3.0))
        target, mapped = NormalTarget(mu, sigma), NormalTarget(a[0] * mu + s[0], a[0] * sigma)
    else:
        y = rng.normal(3.0, 2.0, size=(int(rng.integers(1, 40)), d))
        target, mapped = EmpiricalTarget(y), EmpiricalTarget(y * a + s)
    sol = fit_weights(points, target, box)
    moved = fit_weights(points * a + s, mapped, mapped_box)
    assert sol.converged and moved.converged and sol.method == moved.method
    assert np.max(np.abs(sol.w - moved.w)) <= 1e-6


# Oracle tolerances of the isotonic solver against the dense active set: the
# objective may exceed the dense one by at most OBJECTIVE_SLACK * l * |b|_inf
# (the rounding of evaluating it), and the weights of each distinct sample
# must agree within WEIGHT_TOL (the dense solve's own conditioning error is
# about 3e-9 at l = 120).
OBJECTIVE_SLACK = 1e-12
WEIGHT_TOL = 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 120),
    st.sampled_from(["empirical", "normal", "mixture", "power"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_isotonic_solver_matches_the_dense_active_set(ell, kind, repeats, seed):
    rng = np.random.default_rng(seed)
    pool = rng.uniform(0.0, 0.99, size=max(1, ell // 2) if repeats else ell)
    pool[0] = 0.0  # a sample exactly on the lower edge
    raw = rng.choice(pool, size=ell) if repeats else pool
    # near duplicates make H nearly singular (cond ~1e10 to 1e13): the r-th
    # of the n repeats of a sample moves up by 1e-10 r / n
    _, label, copies = np.unique(raw, return_inverse=True, return_counts=True)
    rank = np.array([np.count_nonzero(label[:k] == g) for k, g in enumerate(label)])
    pts = (raw + 1e-10 * rank / np.maximum(copies[label] - 1, 1))[:, None]
    if kind == "power":  # F(q) = q^2 on the unit box, b built outside the package
        problem = QpProblem(pts, (1.0 - pts[:, 0] ** 3) / (3.0 * ell))
    else:  # empirical targets reach outside the unit box
        problem = assemble_qp(pts, _target(kind, 1, rng))
    iso = solve_isotonic(problem)
    dense = solve_qp(problem)
    assert iso.converged and iso.kkt.passed and dense.kkt.passed
    assert iso.objective <= dense.objective + OBJECTIVE_SLACK * ell * iso.kkt.b_scale
    # the split of weight between near duplicates barely moves the
    # objective, so weights are compared per distinct sample
    gap = np.bincount(label, iso.w) - np.bincount(label, dense.w)
    assert np.max(np.abs(gap)) <= WEIGHT_TOL
    if not repeats:
        assert np.max(np.abs(iso.w - dense.w)) <= WEIGHT_TOL


@settings(deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda p: st.tuples(
        arrays(float, p, elements=st.floats(0.0, 10.0, allow_nan=False)),
        st.lists(st.integers(0, p - 1), max_size=60),
        st.permutations(range(p)),
    )),
)
def test_distributed_weights_sum_to_one_and_are_constant_per_cell(case):
    w, extra, every_cell = case
    p = w.size
    w = w.copy()
    w[int(np.argmax(w))] = max(w.max(), 1.0)  # at least one cell above the floor
    assignments = np.array(list(every_cell) + extra, dtype=np.int64)
    u, w_floored, counts = distribute_cell_weights(w, assignments, p)
    assert abs(u.sum() - 1.0) <= 1e-12
    assert np.array_equal(counts, np.bincount(assignments, minlength=p))
    for k in range(p):
        cell = u[assignments == k]
        assert np.all(cell == cell[0])
        assert cell.sum() == pytest.approx(w_floored[k] / p, rel=1e-12, abs=1e-300)


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    arrays(float, st.tuples(st.integers(1, 30), st.just(d)), elements=finite),
    arrays(float, st.tuples(st.integers(1, 30), st.just(d)), elements=finite))))
def test_empirical_target_cdf_is_its_plain_edf(data):
    samples, queries = data
    queries = np.vstack([queries, samples])  # hit every jump exactly too
    got = as_cdf_callable(EmpiricalTarget(samples))(queries)
    assert_bits_equal(got, wedf_eval_many(WeightedEdf.plain(samples), queries))
