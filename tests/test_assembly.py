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
from dcinv.targets import EmpiricalTarget, NormalTarget, UniformTarget


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


def test_qp_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(np.array([[1.0, 0.5], [0.2, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(3))


def test_assemble_qp_with_box_scaled_target():
    # uniform target over a shifted box: scaling must preserve b values
    box = BoxScaler([2.0], [4.0])
    target = UniformTarget(2.0, 4.0)
    samples_scaled = np.array([[0.25], [0.75]])
    prob = assemble_qp(samples_scaled, target, box=box)
    assert np.allclose(prob.b, [0.234375, 0.109375], atol=1e-14)


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


def symmetrized(h):
    return 0.5 * (h + h.T)


def test_qp_problem_exactly_symmetric_h_is_kept():
    rng = np.random.default_rng(6)
    h = assemble_h(rng.uniform(size=(50, 2)))
    prob = QpProblem(h, np.zeros(50))
    assert_bits_equal(prob.h, symmetrized(h))
    assert not prob.h.flags.writeable
    assert h.flags.writeable  # the caller's array is left as it was


def test_qp_problem_exactly_symmetric_h_needs_no_full_size_temporary():
    h = assemble_h(np.random.default_rng(8).uniform(size=(1500, 1)))  # 18 MB
    tracemalloc.start()
    try:
        QpProblem(h, np.zeros(1500))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_qp_problem_near_symmetric_h_is_symmetrized():
    rng = np.random.default_rng(7)
    h = assemble_h(rng.uniform(size=(600, 1)))
    h[3, 550] += 1e-13  # in a tile above the diagonal
    h[580, 290] -= 1e-13  # in a tile below it
    prob = QpProblem(h, np.zeros(600))
    assert_bits_equal(prob.h, symmetrized(h))
    assert np.array_equal(prob.h, prob.h.T)


def test_qp_problem_signed_zero_asymmetry_is_symmetrized():
    h = assemble_h(np.random.default_rng(9).uniform(size=(600, 1)))
    h[300, 301] = 0.0
    h[301, 300] = -0.0  # equal values, different bits
    prob = QpProblem(h, np.zeros(600))
    assert_bits_equal(prob.h, symmetrized(h))
    assert not np.signbit(prob.h[301, 300])


def test_qp_problem_rejects_asymmetry_beyond_tolerance_in_any_tile():
    h = np.eye(600)
    h[599, 2] = 2e-12
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(h, np.zeros(600))
    h[0, 1] = 1e-13  # a first tile within tolerance must not hide a later one
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(h, np.zeros(600))
    h[599, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        QpProblem(h, np.zeros(600))
    h[599, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        QpProblem(h, np.zeros(600))
    with pytest.raises(ValueError, match="finite"):
        QpProblem(np.eye(2), np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        QpProblem(np.zeros((0, 0)), np.zeros(0))


def test_qp_problem_huge_entries_are_symmetrized():
    h = np.array([[2.0**1023, 1.0], [1.0, 3.0]])
    with np.errstate(over="ignore"):
        expected = symmetrized(h)
        prob = QpProblem(h, np.zeros(2))
    assert_bits_equal(prob.h, expected)
    assert np.isinf(prob.h[0, 0])
    h = np.array([[-(2.0**1022), 1.0], [1.0, 2.0**1022]])
    assert_bits_equal(QpProblem(h, np.zeros(2)).h, symmetrized(h))
