import numpy as np
import pytest

from dcinv.core import (
    BoxScaler,
    Normalization,
    SampleSet,
    WeightedEdf,
    WeightVector,
    as_box,
    exp_or_zero,
    fit_box,
)


def test_fit_box_tight():
    box = fit_box(np.array([[0.2], [0.8]]), padding=0.0)
    assert box.lower[0] == 0.2 and box.upper[0] == 0.8


def test_fit_box_padding():
    # width 0.6, 10% each side
    box = fit_box(np.array([[0.2], [0.8]]), padding=0.1)
    assert np.allclose([box.lower[0], box.upper[0]], [0.14, 0.86])


def test_fit_box_2d_componentwise():
    box = fit_box(np.array([[0.0, 1.0], [1.0, 0.0]]), padding=0.0)
    assert np.allclose(box.lower, [0.0, 0.0])
    assert np.allclose(box.upper, [1.0, 1.0])


def test_fit_box_empty_rejected():
    with pytest.raises(ValueError):
        fit_box(np.empty((0, 1)))


def test_fit_box_zero_width_dimension_widened():
    with pytest.warns(UserWarning, match="zero-width"):
        box = fit_box(np.array([[1.0, 0.2], [1.0, 0.8]]))
    assert box.upper[0] - box.lower[0] == pytest.approx(1e-9)
    assert box.upper[1] == 0.8


def test_scale_identity_box():
    box = BoxScaler([0.0], [1.0])
    assert box.scale(np.array([[0.5]]))[0, 0] == 0.5


def test_scale_midpoint():
    box = BoxScaler([0.4], [0.6])
    assert box.scale(np.array([[0.5]]))[0, 0] == pytest.approx(0.5)


def test_scale_2d_parameter_box():
    box = BoxScaler([1.9, 0.5], [2.1, 1.5])
    out = box.scale(np.array([[2.0, 1.0]]))
    assert np.allclose(out, [[0.5, 0.5]])


def test_scale_unscale_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.integers(1, 4)
        lo = rng.normal(size=d)
        hi = lo + rng.uniform(0.1, 5.0, size=d)
        box = BoxScaler(lo, hi)
        pts = rng.uniform(lo, hi, size=(20, d))
        back = box.unscale(box.scale(pts))
        assert np.max(np.abs(back - pts)) < 1e-12


def test_scale_to_unit_maps_inside():
    samples = SampleSet(np.array([[1.95, 0.7], [2.05, 1.3]]))
    box = fit_box(samples, padding=0.05)
    scaled = box.scale(samples)
    assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)


def test_as_box_rejects_anything_but_rows_of_bounds():
    for bad in ([[0.5]], [[[0.0, 1.0]]], [0.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="rows of"):
            as_box(bad)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        BoxScaler([0.0, 1.0], [1.0, 1.0])


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        SampleSet(np.zeros((2, 2, 2)))
    ss = SampleSet([1.0, 2.0, 3.0])
    assert ss.dim == 1 and ss.n == 3


def test_sample_set_immutable_and_ordered():
    pts = np.array([[3.0], [1.0], [2.0]])
    ss = SampleSet(pts)
    with pytest.raises(ValueError):
        ss.points[0, 0] = 9.0
    assert ss.points[0, 0] == 3.0  # order preserved, index stable
    assert np.array_equal(ss.prefix(2).points, pts[:2])


def test_weight_vector_normalization():
    WeightVector(np.array([0.5, 1.5]))  # mean one
    WeightVector(np.array([0.25, 0.75]), Normalization.SUM_ONE)
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        WeightVector(np.array([-0.1, 2.1]))


def test_weighted_edf_shape_checks():
    samples = SampleSet([0.2, 0.6])
    with pytest.raises(ValueError):
        WeightedEdf(samples, WeightVector(np.ones(3)))
    wedf = WeightedEdf.plain(samples)
    assert wedf.eval([1.0]) == 1.0


def test_exp_or_zero_bit_equal_to_np_exp():
    edge = -1075 * np.log(2.0)  # exp(edge) is half the smallest subnormal
    x = np.concatenate([
        np.linspace(-1e6, 0.0, 200_001),
        np.linspace(-760.0, -700.0, 200_001),
        [-746.0, np.nextafter(-746.0, 0.0), np.nextafter(-746.0, -np.inf)],
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, -np.inf)],
        [-745.0, -708.4, -708.0, -np.inf, np.nan],
    ])
    rng = np.random.default_rng(0)
    x = x[rng.permutation(x.size)]
    expected = np.exp(x)
    # the rounding argument: np.exp itself gives +0.0 at and below -746
    assert not expected[x <= -746.0].any()
    assert not np.signbit(expected[x <= -746.0]).any()
    assert ((expected > 0) & (expected < 2.2250738585072014e-308)).any()
    got = exp_or_zero(x)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    inplace = x.copy()
    assert exp_or_zero(inplace, out=inplace) is inplace
    np.testing.assert_array_equal(inplace.view(np.int64), expected.view(np.int64))
    assert not np.signbit(got[~np.isnan(got)]).any()


def test_exp_or_zero_without_underflow_and_empty():
    x = np.linspace(-745.9, 5.0, 1001).reshape(7, 143)
    np.testing.assert_array_equal(exp_or_zero(x).view(np.int64), np.exp(x).view(np.int64))
    x[3, 5] = np.nan
    np.testing.assert_array_equal(exp_or_zero(x).view(np.int64), np.exp(x).view(np.int64))
    assert exp_or_zero(np.empty(0)).shape == (0,)
