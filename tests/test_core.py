import numpy as np
import pytest

from dcinv.core import (
    PIPELINE_PADDING,
    BoxScaler,
    Normalization,
    SampleSet,
    WeightedEdf,
    WeightVector,
    as_box,
    fit_box,
    grid_points,
)
from dcinv.edf import wedf_eval


def test_fit_box_padding():
    # width 0.6, PIPELINE_PADDING (1e-3) of it on each side, with the same roundings
    box = fit_box(np.array([[0.2], [0.8]]))
    pad = PIPELINE_PADDING * (0.8 - 0.2)
    assert box.lower[0] == 0.2 - pad and box.upper[0] == 0.8 + pad
    assert np.allclose([box.lower[0], box.upper[0]], [0.1994, 0.8006])


def test_fit_box_2d_componentwise():
    box = fit_box(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(box.lower, [-1e-3, -1e-3])
    assert np.allclose(box.upper, [1.001, 1.001])


def test_fit_box_empty_rejected():
    with pytest.raises(ValueError):
        fit_box(np.empty((0, 1)))


def test_fit_box_zero_width_dimension_widened():
    with pytest.warns(UserWarning, match="zero-width"):
        box = fit_box(np.array([[1.0, 0.2], [1.0, 0.8]]))
    assert box.upper[0] - box.lower[0] == pytest.approx(1e-9 * (1 + 2 * PIPELINE_PADDING))
    assert box.upper[1] == 0.8 + PIPELINE_PADDING * (0.8 - 0.2)


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
    box = fit_box(samples)
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
    assert wedf_eval(wedf, [1.0]) == 1.0


def reference_grid_points(axes):
    """The meshgrid-ravel-stack that ``grid_points`` replaced in five places."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@pytest.mark.parametrize("lengths", [(5,), (1,), (4, 3), (1, 6), (3, 1, 2), (2, 4, 5)])
def test_grid_points_bit_equal_to_meshgrid_stack(lengths):
    rng = np.random.default_rng(len(lengths) * 10 + lengths[0])
    axes = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300) for n in lengths]
    got = grid_points(axes)
    ref = reference_grid_points(axes)
    assert got.shape == (int(np.prod(lengths)), len(lengths))
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
