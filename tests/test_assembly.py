import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from dcinv import assembly
from dcinv.assembly import (
    QpProblem,
    assemble_b_empirical,
    assemble_b_exact,
    assemble_h,
    assemble_qp,
    dedupe_jitter,
)
from dcinv.core import BoxScaler
from dcinv.targets import EmpiricalTarget, ExactCdfTarget, NormalTarget, UniformTarget


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
        h = assemble_h(pts)
        assert h.min() >= 0.0 and h.max() <= 1.0 / ell**2 + 1e-15
        np.linalg.cholesky(h)  # positive definite for distinct interior points


def test_b_exact_uniform_hand_value():
    # F(q) = q on [0, 1]: b_i = (1/2) * (1 - q_i^2) / 2
    target = UniformTarget(0.0, 1.0)
    b = assemble_b_exact(
        np.array([[0.25], [0.75]]), lambda p: target.cdf(p[:, 0]),
        integral_of_cdf=target.integral_of_cdf,
    )
    assert np.allclose(b, [0.234375, 0.109375], atol=1e-15)


def test_b_exact_degenerate_upper_bound():
    b = assemble_b_exact(np.array([[0.0]]), lambda p: np.ones(len(p)))
    assert b[0] == pytest.approx(1.0, abs=1e-12)


def test_b_exact_truncated_normal_vs_midpoint_oracle():
    # truncated N(0.5, 0.1) on [0, 1], q_1 = 0
    lo, hi = ndtr((0.0 - 0.5) / 0.1), ndtr((1.0 - 0.5) / 0.1)
    cdf = lambda p: (ndtr((p[:, 0] - 0.5) / 0.1) - lo) / (hi - lo)
    b = assemble_b_exact(np.array([[0.0]]), cdf, quad_points_per_dim=64)
    t = (np.arange(1_000_000) + 0.5) / 1_000_000
    oracle = np.mean((ndtr((t - 0.5) / 0.1) - lo) / (hi - lo))
    assert b[0] == pytest.approx(oracle, abs=1e-8)


def test_b_exact_quadrature_matches_closed_form():
    target = NormalTarget(0.4, 0.2)
    q = np.array([[0.1], [0.5], [0.9]])
    b_closed = assemble_b_exact(
        q, lambda p: target.cdf(p[:, 0]), integral_of_cdf=target.integral_of_cdf
    )
    b_quad = assemble_b_exact(q, lambda p: target.cdf(p[:, 0]), quad_points_per_dim=64)
    assert np.allclose(b_closed, b_quad, atol=1e-13)


def reference_b_exact(samples, cdf, n):
    """The d >= 2 quadrature of assemble_b_exact with its weight tensor
    rebuilt for every sample, which the hoisted form must match bit for bit."""
    from dcinv.core import grid_points
    from scipy.special import roots_legendre

    pts = np.asarray(samples, dtype=float)
    ell, d = pts.shape
    nodes, weights = roots_legendre(n)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
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


@pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
def test_b_exact_bit_equal_to_per_sample_weight_tensor(d, n):
    target = ExactCdfTarget(lambda x: np.prod(np.clip(x, 0.0, 1.0) ** 1.5, axis=1), dim=d)
    q = np.random.default_rng(d).uniform(size=(30, d))
    q[0] = 0.0
    assert_bits_equal(
        assemble_b_exact(q, target.cdf, quad_points_per_dim=n),
        reference_b_exact(q, target.cdf, n),
    )


def test_b_exact_rejects_bad_quadrature():
    with pytest.raises(ValueError):
        assemble_b_exact(np.array([[0.5]]), lambda p: np.ones(len(p)), quad_points_per_dim=1)


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
    target = UniformTarget(0.0, 1.0)
    b_exact = assemble_b_exact(
        q, lambda p: target.cdf(p[:, 0]), integral_of_cdf=target.integral_of_cdf
    )
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
    rng = np.random.default_rng(21)
    for _ in range(5):
        ell = int(rng.integers(2, 6))
        q = rng.uniform(0.0, 0.95, size=(ell, 1))
        y = rng.uniform(size=(8, 1))
        b_emp = assemble_b_empirical(q, y)
        target = EmpiricalTarget(y)
        b_quad = assemble_b_exact(q, lambda p: target.cdf(p), quad_points_per_dim=512)
        assert np.max(np.abs(b_emp - b_quad)) < 5e-4


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


def test_dedupe_jitter_perturbs_duplicates():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9]])
    with pytest.warns(UserWarning, match="jitter"):
        out = dedupe_jitter(pts)
    assert np.array_equal(out[0], pts[0])  # first occurrence untouched
    assert not np.array_equal(out[1], pts[1])
    assert np.max(np.abs(out[1] - pts[1])) <= 1e-10
    np.linalg.cholesky(assemble_h(out))


@pytest.mark.parametrize("value, copies", [(0.9, 2000), (3e-4, 40_000)])
def test_dedupe_jitter_leaves_no_exact_duplicates(value, copies):
    # independent steps in a 5e-11 band collide by the birthday bound; the
    # steps of one row's repeats must be distinct by construction
    with pytest.warns(UserWarning, match="jitter"):
        out = dedupe_jitter(np.full((copies, 1), value))
    assert np.unique(out).size == copies
    assert out[0, 0] == value
    step = np.abs(out[1:, 0] - value)
    assert step.min() > 0.5e-10 and step.max() <= 1e-10


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


@pytest.mark.parametrize("box", [None, BoxScaler([0.2], [0.9])])
def test_assemble_qp_exact_cdf_without_integral_uses_quadrature(box):
    # The CDF is linear over the box, so 64-point Gauss-Legendre quadrature
    # reproduces the closed form up to rounding.
    q = np.random.default_rng(8).uniform(size=(25, 1))
    uniform = UniformTarget(0.0, 1.0)
    closed = assemble_qp(q, uniform, box=box)
    quadrature = assemble_qp(q, ExactCdfTarget(lambda x: np.clip(x[:, 0], 0.0, 1.0)), box=box)
    assert np.allclose(quadrature.b, closed.b, rtol=1e-12, atol=0.0)
    with_integral = ExactCdfTarget(
        lambda x: np.clip(x[:, 0], 0.0, 1.0), integral_fn=uniform.integral_of_cdf
    )
    assert_bits_equal(assemble_qp(q, with_integral, box=box).b, closed.b)


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
    assert_bits_equal(assemble_h(q), reference_h(q))


@pytest.mark.parametrize("d, arrays", [(1, 1), (2, 2), (3, 2)])
def test_h_memory_is_bounded(d, arrays):
    q = np.random.default_rng(7).uniform(size=(1000, d))
    tracemalloc.start()
    try:
        h = assemble_h(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (l x l) array at d = 1 and two at d >= 2; the product-from-ones
    # form holds three
    assert peak < (arrays + 0.5) * h.nbytes


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ell, m", [(1, 1), (1, 5000), (7, 1), (20, 250_001), (160, 30_000)])
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
    q, y = b_case(np.random.default_rng(extra_rows), ell, 2 * chunk + 17, 1)
    assert_bits_equal(assemble_b_empirical(q, y), reference_b_empirical(q, y))


def test_b_empirical_bit_equal_with_chunk_of_one():
    # l > _B_CHUNK: the chunk is one target sample
    rng = np.random.default_rng(3)
    ell = assembly._B_CHUNK + 3
    q = rng.uniform(size=(ell, 1))
    y = np.array([[0.3], [-0.2], [1.4]])
    assert_bits_equal(assemble_b_empirical(q, y), reference_b_empirical(q, y))


def test_b_empirical_exact_endpoints():
    q = np.array([[0.0], [1.0], [0.5], [0.0]])
    y = np.array([[0.0], [1.0], [-0.0], [-1.0], [2.0], [0.5]])
    b = assemble_b_empirical(q, y)
    assert_bits_equal(b, reference_b_empirical(q, y))
    assert b[1] == 0.0 and not np.signbit(b[1])


def test_b_empirical_memory_is_bounded():
    rng = np.random.default_rng(5)
    q = rng.uniform(size=(2000, 1))
    y = rng.uniform(size=(20_000, 1))
    tracemalloc.start()
    try:
        assemble_b_empirical(q, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the clipped form builds (2000 x 1000) temporaries of 16 MB each
    assert peak < 2_000_000
