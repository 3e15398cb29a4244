import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, roots_legendre

from dcinv import assembly
from dcinv.assembly import (
    MinOuter,
    QpProblem,
    assemble_b_empirical,
    assemble_b_exact,
    assemble_h,
    assemble_qp,
    group_repeats,
)
from dcinv.core import BoxScaler, grid_points
from dcinv.targets import EmpiricalTarget, MixtureOfUniforms, NormalTarget, UniformTarget


def midpoint_h_oracle(q, n_per_dim):
    """Midpoint quadrature of the overlap integrals over their own domains."""
    ell, d = q.shape
    h = np.empty((ell, ell))
    for i in range(ell):
        for j in range(ell):
            val = 1.0
            for k in range(d):
                z = max(q[i, k], q[j, k])
                t = z + (np.arange(n_per_dim) + 0.5) * (1.0 - z) / n_per_dim
                val *= np.sum(np.ones_like(t)) * (1.0 - z) / n_per_dim
            h[i, j] = val / ell**2
    return h


def midpoint_b_empirical_oracle(q, y, n_per_dim):
    """Midpoint quadrature of the target-EDF integral over [q^i, 1]."""
    ell, d = q.shape
    b = np.empty(ell)
    for i in range(ell):
        axes = [
            q[i, k] + (np.arange(n_per_dim) + 0.5) * (1.0 - q[i, k]) / n_per_dim
            for k in range(d)
        ]
        if d == 1:
            t = axes[0][:, None]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            t = np.stack([m.ravel() for m in mesh], axis=1)
        edf = np.mean(
            np.all(y[None, :, :] <= t[:, None, :], axis=2), axis=1
        )
        cell = np.prod((1.0 - q[i]) / n_per_dim)
        b[i] = float(np.sum(edf) * cell) / ell
    return b


def test_h_single_sample_at_origin():
    h = assemble_h(np.array([[0.0]]))
    assert h == pytest.approx(np.array([[1.0]]))


def test_h_two_samples_hand_value():
    h = assemble_h(np.array([[0.25], [0.75]]))
    expected = np.array([[0.1875, 0.0625], [0.0625, 0.0625]])
    assert np.allclose(h, expected, atol=1e-15)


def test_h_2d_hand_value():
    h = assemble_h(np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert h[0, 1] == pytest.approx(0.25 * 0.5 * 0.25)


def test_h_exact_symmetry():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(30, 2))
    h = assemble_h(pts)
    assert np.array_equal(h, h.T)


def test_h_rejects_out_of_box():
    with pytest.raises(ValueError):
        assemble_h(np.array([[1.5]]))


def test_h_entry_range_and_cholesky():
    rng = np.random.default_rng(4)
    for _ in range(10):
        ell = int(rng.integers(2, 40))
        d = int(rng.integers(1, 3))
        pts = rng.uniform(0.0, 0.999, size=(ell, d))
        h = np.asarray(assemble_h(pts))
        assert h.min() >= 0.0 and h.max() <= 1.0 / ell**2 + 1e-15
        np.linalg.cholesky(h)  # positive definite for distinct interior points


def gauss_legendre_nodes(n):
    """n Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = roots_legendre(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def reference_b_exact_1d(samples, cdf, n):
    """b_i = (1/l) int over [q_i, 1] of ``cdf`` for 1-D unit-box samples, by
    n-node Gauss-Legendre quadrature; ``cdf`` maps an (m, 1) array to m values.

    The package takes b of an exact target from its closed-form running
    integral only; this quadrature is the oracle the closed forms are
    checked against."""
    q = np.asarray(samples, dtype=float)[:, 0]
    nodes, weights = gauss_legendre_nodes(n)
    width = 1.0 - q
    t = q[:, None] + width[:, None] * nodes[None, :]
    vals = np.asarray(cdf(t.reshape(-1, 1))).reshape(len(q), -1)
    return width * (vals @ weights) / len(q)


def reference_b_exact(samples, cdf, n):
    """The d-dimensional twin of :func:`reference_b_exact_1d`: the tensor
    product of n Gauss-Legendre nodes per dimension over [q^i, 1], one
    sample at a time; ``cdf`` maps an (m, d) array to m values. 1-D samples
    go to the 1-D form."""
    pts = np.asarray(samples, dtype=float)
    ell, d = pts.shape
    if d == 1:
        return reference_b_exact_1d(pts, cdf, n)
    nodes, weights = gauss_legendre_nodes(n)
    b = np.empty(ell)
    for i in range(ell):
        grid = grid_points([pts[i, k] + (1.0 - pts[i, k]) * nodes for k in range(d)])
        vals = np.asarray(cdf(grid)).reshape([n] * d)
        wprod = np.ones([1] * d)
        for k in range(d):
            shape = [1] * d
            shape[k] = n
            wprod = wprod * weights.reshape(shape)
        b[i] = np.prod(1.0 - pts[i]) * float(np.sum(vals * wprod))
    return b / ell


def test_b_exact_uniform_hand_value():
    # F(q) = q on [0, 1]: b_i = (1/2) * (1 - q_i^2) / 2
    target = UniformTarget(0.0, 1.0)
    b = assemble_b_exact(np.array([[0.25], [0.75]]), target.integral_of_cdf)
    assert np.allclose(b, [0.234375, 0.109375], atol=1e-15)


def test_b_exact_degenerate_upper_bound():
    # F = 1 on the box, I(t) = t
    b = assemble_b_exact(np.array([[0.0]]), lambda t: np.asarray(t, dtype=float))
    assert b[0] == pytest.approx(1.0, abs=1e-12)


def test_b_exact_rejects_samples_of_dim_other_than_one():
    target = UniformTarget(0.0, 1.0)
    with pytest.raises(ValueError, match="1-D"):
        assemble_b_exact(np.array([[0.5, 0.5]]), target.integral_of_cdf)


def test_b_exact_truncated_normal_vs_midpoint_oracle():
    # truncated N(0.5, 0.1) on [0, 1], q_1 = 0; its running integral is the
    # normal's shifted by lo t and divided by hi - lo
    normal = NormalTarget(0.5, 0.1)
    lo, hi = ndtr((0.0 - 0.5) / 0.1), ndtr((1.0 - 0.5) / 0.1)
    integral = lambda t: (normal.integral_of_cdf(t) - lo * np.asarray(t)) / (hi - lo)
    b = assemble_b_exact(np.array([[0.0]]), integral)
    t = (np.arange(1_000_000) + 0.5) / 1_000_000
    oracle = np.mean((ndtr((t - 0.5) / 0.1) - lo) / (hi - lo))
    assert b[0] == pytest.approx(oracle, abs=1e-8)


def test_b_exact_quadrature_matches_closed_form():
    target = NormalTarget(0.4, 0.2)
    q = np.array([[0.1], [0.5], [0.9]])
    b_closed = assemble_b_exact(q, target.integral_of_cdf)
    b_quad = reference_b_exact_1d(q, lambda p: target.cdf(p[:, 0]), 64)
    assert np.allclose(b_closed, b_quad, atol=1e-13)


def test_b_empirical_hand_values():
    b = assemble_b_empirical(np.array([[0.0]]), np.array([[0.0]]))
    assert b[0] == pytest.approx(1.0)
    b = assemble_b_empirical(np.array([[0.5]]), np.array([[0.25], [0.75]]))
    assert b[0] == pytest.approx(0.375)


def test_b_empirical_matches_exact_uniform_in_the_limit():
    rng = np.random.default_rng(8)
    y = rng.uniform(size=(20_000, 1))
    q = np.array([[0.2], [0.5], [0.8]])
    b_emp = assemble_b_empirical(q, y)
    b_exact = assemble_b_exact(q, UniformTarget(0.0, 1.0).integral_of_cdf)
    assert np.max(np.abs(b_emp - b_exact)) < 2e-2


def test_b_empirical_target_outside_box_is_exact():
    # target samples below the box count fully, above it not at all
    q = np.array([[0.5]])
    b = assemble_b_empirical(q, np.array([[-3.0], [7.0]]))
    assert b[0] == pytest.approx(0.5 * (1.0 - 0.5) / 1.0 / 2.0 * 2.0 / 2.0 + 0.125)
    # explicit: (1/(1*2)) * [(1 - 0.5) + 0]
    assert b[0] == pytest.approx(0.25)


def test_b_empirical_dimension_mismatch():
    with pytest.raises(ValueError):
        assemble_b_empirical(np.array([[0.5]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        assemble_b_empirical(np.array([[0.5]]), np.empty((0, 1)))


def test_b_empirical_equals_b_exact_on_edf_random():
    # the quadrature of a step function errs by O(1/n) per dimension
    rng = np.random.default_rng(21)
    for d, n, tol in ((1, 512, 5e-4), (2, 128, 1e-3)):
        for _ in range(5):
            ell = int(rng.integers(2, 6))
            q = rng.uniform(0.0, 0.95, size=(ell, d))
            y = rng.uniform(size=(8, d))
            b_emp = assemble_b_empirical(q, y)
            b_quad = reference_b_exact(q, EmpiricalTarget(y).cdf, n)
            assert np.max(np.abs(b_emp - b_quad)) < tol


def test_assembly_vs_midpoint_oracles_random():
    rng = np.random.default_rng(31)
    for _ in range(4):
        ell = int(rng.integers(2, 5))
        q = rng.uniform(0.0, 0.98, size=(ell, 1))
        y = rng.uniform(size=(12, 1))
        assert np.allclose(assemble_h(q), midpoint_h_oracle(q, 10_000), atol=1e-9)
        assert np.allclose(
            assemble_b_empirical(q, y), midpoint_b_empirical_oracle(q, y, 100_000), atol=1e-6
        )


def test_group_repeats_keeps_first_occurrences_in_input_order():
    pts = np.array([[0.5, 0.5], [0.2, 0.9], [0.5, 0.5], [0.1, 0.1], [0.2, 0.9], [0.5, 0.5]])
    keep, group, counts = group_repeats(pts)
    assert keep.tolist() == [0, 1, 3]
    assert group.tolist() == [0, 1, 0, 2, 1, 0]
    assert counts.tolist() == [3, 2, 1]
    assert np.array_equal(pts[keep][group], pts)


def test_group_repeats_compares_by_value():
    pts = np.array([[0.0, 0.3], [0.0, 1.0], [-0.0, 0.3], [0.3, 0.0]])  # -0.0 == 0.0
    keep, group, counts = group_repeats(pts)
    assert keep.tolist() == [0, 1, 3]
    assert group.tolist() == [0, 1, 0, 2]
    assert counts.tolist() == [2, 1, 1]


@pytest.mark.parametrize("value, copies", [(0.9, 2000), (3e-4, 40_000)])
def test_group_repeats_of_one_row(value, copies):
    pts = np.full((copies, 1), value)
    pts[-1] = 0.5  # one row that repeats nothing, after all the copies
    keep, group, counts = group_repeats(pts)
    assert keep.tolist() == [0, copies - 1]
    assert np.array_equal(group, np.append(np.zeros(copies - 1, dtype=int), 1))
    assert counts.tolist() == [copies - 1, 1]


def test_group_repeats_without_repeats_is_the_identity():
    pts = np.random.default_rng(3).uniform(size=(50, 2))
    pts[1] = [pts[0, 0], 0.5]  # equal in one coordinate only
    keep, group, counts = group_repeats(pts)
    assert keep.tolist() == group.tolist() == list(range(50))
    assert counts.tolist() == [1] * 50


def test_qp_problem_validation():
    pts = np.array([[0.25], [0.75]])
    with pytest.raises(ValueError, match="unit box"):
        QpProblem(np.array([[0.5], [1.0 + 1e-9]]), np.zeros(2))
    with pytest.raises(ValueError, match="unit box"):
        QpProblem(np.array([[-1e-9], [0.5]]), np.zeros(2))
    with pytest.raises(ValueError, match="empty"):
        QpProblem(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError, match="shape"):
        QpProblem(pts, np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        QpProblem(pts, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="finite"):
        QpProblem(pts, np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        QpProblem(pts, np.array([np.inf, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        QpProblem(np.array([[0.5], [np.nan]]), np.zeros(2))
    # within 1e-12 of the box the points are clipped onto it
    edge = QpProblem(np.array([[-1e-13], [1.0 + 1e-13]]), np.zeros(2))
    assert edge.points.tolist() == [[0.0], [1.0]]


def test_qp_problem_stores_read_only_copies():
    pts = np.array([[0.25, 0.5], [0.75, 0.1]])
    b = np.array([0.1, 0.2])
    prob = QpProblem(pts, b)
    assert not prob.points.flags.writeable and not prob.b.flags.writeable
    assert pts.flags.writeable and b.flags.writeable  # the caller's arrays are left as they were
    pts[0, 0], b[0] = 0.9, 0.9
    assert prob.points[0, 0] == 0.25 and prob.b[0] == 0.1


def test_qp_problem_h_is_built_once_read_only_and_bit_equal(monkeypatch):
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(50, 2))
    calls = []
    # the problem must call the module's assemble_h, which the tracer wraps
    monkeypatch.setattr(assembly, "assemble_h", lambda q: calls.append(1) or assemble_h(q))
    prob = QpProblem(pts, np.zeros(50))
    assert calls == []  # nothing is assembled until h is read
    h = prob.h
    assert prob.h is h and calls == [1]
    assert_bits_equal(h, assemble_h(pts))
    assert not h.flags.writeable
    with pytest.raises(AttributeError):
        prob.h = np.eye(50)
    assert prob.h is h


def test_qp_problem_construction_allocates_no_l_by_l_array():
    pts = np.random.default_rng(8).uniform(size=(1500, 1))  # H would take 18 MB
    tracemalloc.start()
    try:
        QpProblem(pts, np.zeros(1500))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_assemble_qp_with_box_scaled_target():
    # uniform target over a shifted box: scaling must preserve b values
    box = BoxScaler([2.0], [4.0])
    target = UniformTarget(2.0, 4.0)
    samples_scaled = np.array([[0.25], [0.75]])
    prob = assemble_qp(samples_scaled, target, box=box)
    assert np.allclose(prob.b, [0.234375, 0.109375], atol=1e-14)


@pytest.mark.parametrize("d", [1, 2])
def test_assemble_qp_with_target_samples_whose_scale_overflows(d):
    # scaling +-1e308 into a box of width 0.5 overflows; such a sample counts
    # as one just outside the box, in full below it and not at all above it
    rng = np.random.default_rng(29)
    box = BoxScaler([0.25] * d, [0.75] * d)
    pts = rng.uniform(size=(40, d))
    far = rng.uniform(0.2, 0.8, size=(30, d))
    far[:3, 0] = [-1e308, 1e308, -1e308]
    near = np.clip(far, 0.0, 1.0)
    problem = assemble_qp(pts, EmpiricalTarget(far), box=box)
    assert np.array_equal(problem.b, assemble_b_empirical(problem.points, box.scale(near)))


# Targets in unit-box coordinates u; each test maps them onto its data box.
# The mixture's support leaves [0, 0.1] and [0.85, 1] of the box, with a gap
# at [0.35, 0.55]; the uniform starts below the box and ends at 0.7.
UNIT_MIXTURE = ((0.3, 0.1, 0.35), (0.7, 0.55, 0.85))
UNIT_UNIFORM = (-0.4, 0.7)
# Gauss-Legendre nodes for the oracle; the uniform and mixture CDFs have
# kinks, where the quadrature error is about (jump in density) / n^2.
ORACLE_NODES = 2048
ORACLE_ATOL = 1e-6


def exact_target_on(kind, box, rng):
    lo, width = float(box.lower[0]), float(box.width[0])
    at = lambda u: lo + u * width
    if kind == "normal":
        return NormalTarget(at(rng.uniform(0.1, 0.9)), width * rng.uniform(0.05, 0.6))
    if kind == "uniform":
        return UniformTarget(*map(at, UNIT_UNIFORM))
    return MixtureOfUniforms(tuple((w, at(a), at(b)) for w, a, b in UNIT_MIXTURE))


@pytest.mark.parametrize("box", [None, BoxScaler([-3.0], [5.0])])
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["normal", "uniform", "mixture"]), st.integers(0, 2**32 - 1))
def test_assemble_qp_b_of_exact_targets_matches_the_quadrature_oracle(box, kind, seed):
    rng = np.random.default_rng(seed)
    q = np.concatenate([
        rng.uniform(size=12),
        [0.0, 1.0, 0.05, 0.4, 0.5, 0.95],  # box edges, mixture gap, beyond the supports
        rng.choice(np.ravel(UNIT_MIXTURE)[[1, 2, 4, 5]], size=2),  # on the kinks
    ])[:, None]
    unit = box or BoxScaler([0.0], [1.0])
    target = exact_target_on(kind, unit, rng)
    problem = assemble_qp(q, target, box=box)  # repeated kinks stay repeated
    cdf = lambda u: target.cdf(unit.unscale(u)[:, 0])
    oracle = reference_b_exact_1d(problem.points, cdf, ORACLE_NODES)
    assert np.max(np.abs(problem.b - oracle)) * len(q) <= ORACLE_ATOL


def reference_h(samples):
    """The product-from-ones assembly that assemble_h must match bit for bit."""
    q = np.clip(np.asarray(samples, dtype=float), 0.0, 1.0)
    ell = q.shape[0]
    h = np.ones((ell, ell))
    for k in range(q.shape[1]):
        col = q[:, k]
        h *= 1.0 - np.maximum(col[:, None], col[None, :])
    h /= ell * ell
    return h


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 97])
def test_h_bit_equal_to_product_from_ones(d, ell):
    rng = np.random.default_rng(10 * ell + d)
    q = rng.uniform(size=(ell, d))
    q[rng.random(size=q.shape) < 0.15] = 0.0
    q[rng.random(size=q.shape) < 0.15] = 1.0
    assert_bits_equal(np.asarray(assemble_h(q)), reference_h(q))


# signed zeros, both box edges, the last double below 1 and the smallest subnormal
EDGE_COORDS = [0.0, -0.0, 1.0, 1.0 - 2.0**-53, 5e-324]


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    ell=st.integers(1, 150),
    distinct=st.integers(1, 150),
    edge_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_h_bit_equal_to_product_from_ones_on_edges_and_repeats(d, ell, distinct, edge_rate, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(size=(min(distinct, ell), d))
    edge = rng.random(size=rows.shape) < edge_rate
    rows[edge] = rng.choice(EDGE_COORDS, size=int(edge.sum()))
    q = rows[rng.integers(0, len(rows), size=ell)]
    assert_bits_equal(np.asarray(assemble_h(q)), reference_h(q))


@pytest.mark.parametrize("d, arrays", [(1, 0), (2, 2), (3, 2)])
def test_h_memory_is_bounded(d, arrays):
    ell = 1000
    q = np.random.default_rng(7).uniform(size=(ell, d))
    tracemalloc.start()
    try:
        assemble_h(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no (l x l) array at d = 1 and two at d >= 2; the product-from-ones
    # form holds three
    assert peak < (arrays + (0.1 if d == 1 else 0.5)) * ell * ell * 8


def check_min_outer(q, w):
    """The 1-D H of ``q`` against its dense form: ``np.asarray`` bit for bit,
    and both products within the worst-case rounding error of the dense
    product, elementwise."""
    h = assemble_h(q)
    assert isinstance(h, MinOuter) and not h.s.flags.writeable
    ell = q.shape[0]
    assert h.size == ell
    dense = np.minimum.outer(h.s, h.s)
    assert_bits_equal(np.asarray(h), dense)
    bound = 2 * (ell + 2) * np.finfo(float).eps * (np.abs(dense) @ np.abs(w))
    for product in (h @ w, w @ h):
        assert product.shape == (ell,)
        assert np.all(np.abs(product - dense @ w) <= bound)


@pytest.mark.parametrize("ell", [1, 2, 97, 2000])
def test_min_outer_products_match_the_dense_matrix(ell):
    rng = np.random.default_rng(ell)
    q = rng.uniform(size=(ell, 1))
    q[rng.random(ell) < 0.1] = 0.0
    q[rng.random(ell) < 0.1] = 1.0
    q[rng.random(ell) < 0.2] = q[0]  # ties with the first point
    check_min_outer(q, rng.normal(size=ell))
    check_min_outer(q, rng.exponential(size=ell))


@settings(max_examples=150, deadline=None)
@given(
    ell=st.integers(1, 150),
    distinct=st.integers(1, 150),
    edge_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_outer_products_match_on_edges_and_repeats(ell, distinct, edge_rate, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(size=(min(distinct, ell), 1))
    edge = rng.random(size=rows.shape) < edge_rate
    rows[edge] = rng.choice(EDGE_COORDS, size=int(edge.sum()))
    q = rows[rng.integers(0, len(rows), size=ell)]
    check_min_outer(q, rng.normal(size=ell) * rng.choice([1e-8, 1.0, 1e8], size=ell))


def test_min_outer_products_allocate_no_l_by_l_array():
    ell = 3000  # a dense H would take 72 MB
    rng = np.random.default_rng(9)
    prob = QpProblem(rng.uniform(size=(ell, 1)), rng.uniform(size=ell) / ell)
    h, w = prob.h, rng.uniform(size=ell)
    tracemalloc.start()
    try:
        h @ w, w @ h, prob.gradient(w), prob.objective(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * ell * ell * 8


def reference_b_empirical(samples, target_samples):
    """The clipped-form assembly that assemble_b_empirical must match bit for bit."""
    q = np.clip(np.asarray(samples, dtype=float), 0.0, 1.0)
    y = np.asarray(target_samples, dtype=float)
    ell, d = q.shape
    b = np.zeros(ell)
    chunk = max(1, assembly._B_CHUNK // max(ell, 1))
    for start in range(0, y.shape[0], chunk):
        yc = y[start : start + chunk]
        f = 1.0 - np.maximum(q[:, None, 0], yc[None, :, 0])
        np.clip(f, 0.0, None, out=f)
        for k in range(1, d):
            fk = 1.0 - np.maximum(q[:, None, k], yc[None, :, k])
            np.clip(fk, 0.0, None, out=fk)
            f *= fk
        b += f.sum(axis=1)
    return b / (ell * y.shape[0])


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def b_case(rng, ell, m, d):
    q = rng.uniform(size=(ell, d))
    q[rng.random(size=q.shape) < 0.1] = 0.0
    q[rng.random(size=q.shape) < 0.1] = 1.0
    y = rng.normal(0.5, 0.6, size=(m, d))  # many below 0 and above 1
    y[rng.random(size=y.shape) < 0.05] = 0.0
    y[rng.random(size=y.shape) < 0.05] = 1.0
    return q, y


B_SHAPES = [(1, 1), (1, 5000), (7, 1), (20, 250_001), (160, 30_000)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ell, m", B_SHAPES)
def test_b_empirical_bit_equal_to_clipped_form(d, ell, m):
    q, y = b_case(np.random.default_rng(ell * 31 + m + d), ell, m, d)
    assert_bits_equal(assemble_b_empirical(q, y), reference_b_empirical(q, y))


@pytest.mark.parametrize("extra_rows", [0, 1])
def test_b_empirical_bit_equal_at_block_row_boundaries(extra_rows):
    # m is not a multiple of the chunk, and l is a multiple of the block
    # rows (plus one), so the last block of rows and of samples are short
    ell = 24 * 63 + extra_rows
    chunk = assembly._B_CHUNK // ell
    assert assembly._B_BLOCK // chunk == 24  # rows per block
    q, y = b_case(np.random.default_rng(extra_rows), ell, 2 * chunk + 17, 2)
    assert_bits_equal(assemble_b_empirical(q, y), reference_b_empirical(q, y))


def test_b_empirical_bit_equal_with_chunk_of_one():
    # l > _B_CHUNK: the chunk is one target sample
    rng = np.random.default_rng(3)
    ell = assembly._B_CHUNK + 3
    q = rng.uniform(size=(ell, 2))
    y = np.array([[0.3, 0.6], [-0.2, 0.1], [1.4, 0.5]])
    assert_bits_equal(assemble_b_empirical(q, y), reference_b_empirical(q, y))


def fsum_b_1d(samples, target_samples):
    """b at d = 1, each row's sum of min(1 - q_i, max(1 - y_j, 0)) by math.fsum."""
    a = 1.0 - np.clip(samples[:, 0], 0.0, 1.0)
    h = np.maximum(1.0 - target_samples[:, 0], 0.0)
    sums = np.array([math.fsum(np.minimum(ai, h)) for ai in a])
    return sums / (len(a) * len(h))


def assert_within_fsum_oracle(q, y):
    b, oracle = assemble_b_empirical(q, y), fsum_b_1d(q, y)
    assert np.all((b == 0.0) == (oracle == 0.0))
    assert np.all(np.abs(b - oracle) <= 1e-13 * oracle)


@pytest.mark.parametrize("ell, m", B_SHAPES)
def test_b_empirical_1d_within_fsum_oracle(ell, m):
    q, y = b_case(np.random.default_rng(ell * 31 + m + 1), ell, m, 1)
    assert_within_fsum_oracle(q, y)


def test_b_empirical_1d_ties_and_samples_outside_the_box():
    # on a dyadic grid 1 - q and 1 - y are exact, so y_j = q_i gives
    # h_j = 1 - y_j = a_i exactly; the rest lie below and above the box or
    # are +-0
    rng = np.random.default_rng(9)
    q = rng.integers(0, 65, size=(200, 1)) / 64.0
    y = np.concatenate([
        q[:50], rng.integers(0, 65, size=(300, 1)) / 64.0,
        [[-0.0], [0.0], [1.0], [-2.5], [-1e-300], [1.0 + 1e-15], [7.0]],
        rng.normal(0.5, 0.6, size=(500, 1)),
    ])
    assert_within_fsum_oracle(q, y)
    # all below the box: every h_j = 1 - y_j > 1 >= a_i, so b_i = a_i / l
    b = assemble_b_empirical(q, np.array([[-0.5], [-3.0], [-0.0]]))
    assert_bits_equal(b, (1.0 - q[:, 0]) * 3 / (200 * 3))
    # all above it: every h_j is 0
    b = assemble_b_empirical(q, np.array([[1.0], [2.0]]))
    assert np.all(b == 0.0) and not np.any(np.signbit(b))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 300), st.floats(0.0, 1.0))
def test_b_empirical_1d_is_bit_stable_under_permutation_and_row_choice(seed, ell, m, tied):
    # sorting makes the target order irrelevant, and each row reads only its
    # own a_i against the shared prefix sums
    rng = np.random.default_rng(seed)
    q, y = b_case(rng, ell, m, 1)
    q = np.round(q * 16) / 16  # a share `tied` of the y_j equal some q_i: h_j = a_i
    mask = rng.random(m) < tied
    y[mask, 0] = q[rng.integers(0, ell, size=mask.sum()), 0]
    b = assemble_b_empirical(q, y)
    assert_bits_equal(assemble_b_empirical(q, y[rng.permutation(m)]), b)
    rows = rng.integers(0, ell, size=ell)  # l rows, so the same 1/(l m)
    assert_bits_equal(assemble_b_empirical(q[rows], y), b[rows])


def test_b_empirical_exact_endpoints():
    q = np.array([[0.0], [1.0], [0.5], [0.0]])
    y = np.array([[0.0], [1.0], [-0.0], [-1.0], [2.0], [0.5]])
    b = assemble_b_empirical(q, y)
    assert_bits_equal(b, reference_b_empirical(q, y))
    assert b[1] == 0.0 and not np.signbit(b[1])


def test_b_empirical_memory_is_bounded():
    rng = np.random.default_rng(5)
    for d in (1, 2):  # the sorted prefix sum and the blocked pair sum
        q = rng.uniform(size=(2000, d))
        y = rng.uniform(size=(20_000, d))
        tracemalloc.start()
        try:
            assemble_b_empirical(q, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the clipped form builds (2000 x 1000) temporaries of 16 MB each
        assert peak < 2_000_000
