import numpy as np
import pytest

from dcinv.core import BoxScaler, Normalization, SampleSet, WeightedEdf, WeightVector
from dcinv.edf import (
    as_cdf_callable,
    edf_eval,
    edf_eval_many,
    l1_distance,
    l2_distance,
    sup_distance,
    wedf_eval,
    wedf_eval_many,
)
from dcinv.targets import (
    EmpiricalTarget,
    MixtureOfUniforms,
    NormalTarget,
    UniformTarget,
    is_exact,
)


def make_wedf(samples, weights, norm=Normalization.MEAN_ONE):
    return WeightedEdf(SampleSet(samples), WeightVector(np.asarray(weights, float), norm))


def test_edf_eval_basics():
    samples = SampleSet([0.2, 0.6])
    assert edf_eval(samples, [0.1]) == 0.0
    assert edf_eval(samples, [1.0]) == 1.0
    assert edf_eval(samples, [0.5]) == 0.5


def test_edf_dimension_mismatch():
    with pytest.raises(ValueError):
        edf_eval(SampleSet([[0.1, 0.2]]), [0.5])


def test_wedf_eval_mean_one():
    wedf = make_wedf([0.2, 0.6], [1.0, 1.0])
    assert wedf_eval(wedf, [0.5]) == 0.5
    wedf = make_wedf([0.2, 0.6], [0.5, 1.5])
    assert wedf_eval(wedf, [0.5]) == pytest.approx(0.25)


def test_wedf_eval_sum_one():
    wedf = make_wedf([0.2, 0.6], [0.125, 0.875], Normalization.SUM_ONE)
    assert wedf_eval(wedf, [0.7]) == pytest.approx(1.0)


def test_wedf_equals_edf_for_equal_weights():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(40, 2))
    wedf = make_wedf(pts, np.ones(40))
    queries = rng.uniform(-0.2, 1.2, size=(100, 2))
    from dcinv.edf import edf_eval_many

    assert np.array_equal(wedf_eval_many(wedf, queries), edf_eval_many(SampleSet(pts), queries))


def test_wedf_monotone_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        w = rng.uniform(size=n)
        w = w / w.mean()
        wedf = make_wedf(rng.uniform(size=(n, d)), w)
        x = rng.uniform(size=d)
        y = x + rng.uniform(size=d)
        assert wedf_eval(wedf, x) <= wedf_eval(wedf, y) + 1e-15


def test_wedf_mass_one_at_supremum():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(25, 3))
    w = rng.uniform(size=25)
    wedf = make_wedf(pts, w / w.mean())
    assert wedf_eval(wedf, pts.max(axis=0)) == pytest.approx(1.0, abs=1e-8)


def test_l2_distance_identical_zero():
    wedf = make_wedf([0.3, 0.7], [1.0, 1.0])
    assert l2_distance(wedf, wedf, BoxScaler([0.0], [1.0])) == 0.0


def test_l2_distance_single_step_vs_zero():
    # EDF of {0.5} vs 0: integral of 1 over [0.5, 1] is 0.5, norm 1/sqrt(2)
    f = WeightedEdf.plain(SampleSet([0.5]))
    g = lambda pts: np.zeros(len(pts))
    val = l2_distance(f, g, BoxScaler([0.0], [1.0]), grid_per_dim=1000)
    assert val == pytest.approx(np.sqrt(0.5), abs=1e-3)


def test_sup_distance_step_vs_linear():
    f = WeightedEdf.plain(SampleSet([0.5]))
    g = lambda pts: pts[:, 0]
    val = sup_distance(f, g, BoxScaler([0.0], [1.0]), grid_per_dim=1000,
                       extra_points=[[0.5]])
    assert val == pytest.approx(0.5, abs=1e-6)


def test_distance_grid_validation():
    f = WeightedEdf.plain(SampleSet([0.5]))
    with pytest.raises(ValueError):
        l2_distance(f, f, BoxScaler([0.0], [1.0]), grid_per_dim=1)


def test_l2_symmetry_and_triangle_random():
    rng = np.random.default_rng(19)
    box = BoxScaler([0.0], [1.0])
    for _ in range(20):
        fs = []
        for _ in range(3):
            n = int(rng.integers(2, 12))
            w = rng.uniform(size=n)
            fs.append(make_wedf(rng.uniform(size=(n, 1)), w / w.mean()))
        f, g, h = fs
        dfg = l2_distance(f, g, box)
        dgf = l2_distance(g, f, box)
        assert dfg == pytest.approx(dgf, abs=1e-12)
        assert dfg <= l2_distance(f, h, box) + l2_distance(h, g, box) + 1e-6


def test_l1_distance_step():
    f = WeightedEdf.plain(SampleSet([0.5]))
    g = lambda pts: np.zeros(len(pts))
    val = l1_distance(f, g, BoxScaler([0.0], [1.0]), grid_per_dim=1000)
    assert val == pytest.approx(0.5, abs=1e-3)


def test_eval_many_2d_matches_scalar():
    rng = np.random.default_rng(23)
    pts = rng.uniform(size=(15, 2))
    w = rng.uniform(size=15)
    wedf = make_wedf(pts, w / w.mean())
    queries = rng.uniform(size=(50, 2))
    many = wedf_eval_many(wedf, queries)
    singles = np.array([wedf_eval(wedf, q) for q in queries])
    assert np.allclose(many, singles, atol=1e-14)


def reference_target_cdfs(target):
    """The per-front-end target CDF callables that ``as_cdf_callable`` replaced:
    the CLI's (exact CDF, or the plain weighted EDF of the observed samples)
    and ``compare_methods``' (exact CDF, or ``edf_eval_many``)."""
    if is_exact(target):
        cli = lambda pts: np.asarray(target.cdf(pts[:, 0] if pts.shape[1] == 1 else pts))
        return [cli]
    observed = target.samples
    return [
        lambda pts: wedf_eval_many(WeightedEdf.plain(observed), pts),
        lambda pts: edf_eval_many(observed, pts),
    ]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class ProductCdf2d:
    """An exact CDF on two dimensions, F(x, y) = x y^2 on the unit square."""

    dim = 2

    def cdf(self, q):
        return np.clip(q[:, 0], 0, 1) * np.clip(q[:, 1], 0, 1) ** 2


_REF_RNG = np.random.default_rng(41)
PINNED_TARGETS = {
    "normal": NormalTarget(0.5, 0.2),
    "uniform": UniformTarget(0.1, 0.7),
    "mixture": MixtureOfUniforms(((0.3, 0.0, 0.2), (0.7, 0.4, 0.9))),
    "exact_2d": ProductCdf2d(),
    "empirical_1d": EmpiricalTarget(_REF_RNG.uniform(size=(97, 1))),
    "empirical_2d": EmpiricalTarget(_REF_RNG.uniform(size=(61, 2))),
}


@pytest.mark.parametrize("name", sorted(PINNED_TARGETS))
def test_as_cdf_callable_of_a_target_is_bit_equal_to_the_front_end_copies(name):
    target = PINNED_TARGETS[name]
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.2, 1.2, size=(300, target.dim))
    if not is_exact(target):
        pts[:40] = target.samples.points[:40]  # queries exactly at the jumps
    got = as_cdf_callable(target)(pts)
    for reference in reference_target_cdfs(target):
        assert np.array_equal(_bits(got), _bits(reference(pts)))


def reference_indicator_sums(sample_pts, weights, query_pts):
    """The dense dominance test that ``_indicator_weight_sums`` replaced at
    d >= 2: one (block, n, d) comparison cube reduced by ``np.all``."""
    out = np.empty(query_pts.shape[0])
    for start in range(0, query_pts.shape[0], 256):
        block = query_pts[start : start + 256]
        below = np.all(sample_pts[None, :, :] <= block[:, None, :], axis=2)
        out[start : start + block.shape[0]] = below @ weights
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_eval_many_bit_equal_to_dense_dominance_test(d):
    rng = np.random.default_rng(400 + d)
    # coordinates on a coarse lattice, so that many samples tie in some dimensions
    samples = rng.integers(0, 6, size=(300, d)) / 5.0
    queries = np.vstack([
        rng.integers(-1, 7, size=(400, d)) / 5.0,  # ties, and points outside [0, 1]^d
        samples[:100],  # queries equal to samples
        rng.uniform(-0.5, 1.5, size=(100, d)),
    ])
    weights = rng.uniform(size=300)
    wedfs = [make_wedf(samples, weights / weights.mean()),
             make_wedf(samples, weights / weights.sum(), Normalization.SUM_ONE)]
    for wedf in wedfs:
        w = np.asarray(wedf.weights.weights)
        if wedf.weights.normalization is Normalization.MEAN_ONE:
            w = w / w.size
        expected = reference_indicator_sums(samples, w, queries)
        assert np.array_equal(_bits(wedf_eval_many(wedf, queries)), _bits(expected))
    plain = reference_indicator_sums(samples, np.full(300, 1.0 / 300), queries)
    assert np.array_equal(_bits(edf_eval_many(samples, queries)), _bits(plain))
    assert plain.min() == 0.0 and plain.max() == pytest.approx(1.0)  # below and above every sample
