import contextlib
import itertools
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv import models
from dcinv.core import BoxScaler
from dcinv.io import load_pairs, load_samples, save_samples
from dcinv.models import (
    QOI_BLOCK_ROWS,
    HeatRod,
    UniformBoxSampler,
    heat_rod_observed,
    heat_rod_violation_observed,
    mixture_benchmark_model,
    mixture_benchmark_target,
)
from dcinv.targets import MixtureOfUniforms, NormalTarget


def series_oracle(ell, kappa, x, t, terms, standard=False):
    """Term-by-term float-sum evaluation, independent of the vectorized path."""
    total = 0.0
    pieces = []
    for k in range(1, terms + 1):
        if standard:
            decay = math.exp(-kappa * (k * math.pi / ell) ** 2 * t)
            pref = 2.0 * ell / math.pi
        else:
            decay = math.exp(-kappa * k * math.pi * t / ell**2)
            pref = 2.0 * ell**2 / math.pi
        pieces.append(pref * ((-1.0) ** (k + 1) / k) * decay * math.sin(k * math.pi * x / ell))
    return math.fsum(pieces)


def test_heat_qoi_matches_independent_series_oracle():
    model = HeatRod(truncation=10_000)
    val = model.qoi(np.array([[2.0, 1.0]]))[0]
    oracle = series_oracle(2.0, 1.0, 1.2, 0.01, 10_000)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_heat_qoi_truncation_within_tail_bound():
    # alternating-series partial sums: the K-term truncation error is bounded
    # by the Dirichlet tail bound 1 / ((K+1) |cos(theta/2)|) times the prefactor
    v100 = HeatRod(truncation=100).qoi(np.array([[2.0, 1.0]]))[0]
    v100k = HeatRod(truncation=100_000).qoi(np.array([[2.0, 1.0]]))[0]
    theta = math.pi * 1.2 / 2.0
    bound = (2 * 2.0**2 / math.pi) / (101 * abs(math.cos(theta / 2)))
    assert abs(v100 - v100k) < bound


def test_heat_qoi_large_kappa_damps_to_zero():
    model = HeatRod()
    with pytest.warns(UserWarning, match="outside Lambda"):
        val = model.qoi(np.array([[2.0, 1000.0]]))[0]
    assert abs(val) < 0.01


def test_heat_qoi_standard_physics_flag():
    lam = np.array([[2.0, 1.0]])
    printed = HeatRod().qoi(lam)[0]
    textbook = HeatRod(standard_physics=True).qoi(lam)[0]
    assert printed == pytest.approx(series_oracle(2.0, 1.0, 1.2, 0.01, 100), abs=1e-12)
    assert textbook == pytest.approx(
        series_oracle(2.0, 1.0, 1.2, 0.01, 100, standard=True), abs=1e-12
    )
    # the two variants are very different; targets must be calibrated per variant
    assert abs(printed - textbook) > 1.0


def test_heat_qoi_continuous_under_small_perturbations():
    rng = np.random.default_rng(2)
    model = HeatRod()
    lam = rng.uniform([1.9, 0.5], [2.1, 1.5], size=(1000, 2))
    h = 1e-7
    base = model.qoi(lam)
    bumped = model.qoi(np.clip(lam + h, [1.9, 0.5], [2.1, 1.5]))
    assert np.max(np.abs(bumped - base)) < 1e-4


def test_heat_default_predicted_range_anchor():
    # frozen from a 2e5-sample probe of the default (printed-series) map;
    # the observed-normal defaults were calibrated against these values
    rng = np.random.default_rng(0)
    lam = rng.uniform([1.9, 0.5], [2.1, 1.5], size=(50_000, 2))
    q = HeatRod().qoi(lam)
    assert q.min() == pytest.approx(2.263, abs=0.005)
    assert q.max() == pytest.approx(2.529, abs=0.005)
    obs = heat_rod_observed()
    inside = obs.cdf(q.max()) - obs.cdf(q.min())
    assert inside > 0.999
    viol = heat_rod_violation_observed()
    outside = 1.0 - (viol.cdf(q.max()) - viol.cdf(q.min()))
    assert outside >= 0.4


def test_heat_rod_validation():
    with pytest.raises(ValueError):
        HeatRod(x_star=2.5)  # sensor outside the shortest rod
    with pytest.raises(ValueError):
        HeatRod(truncation=0)


def test_mixture_benchmark_model_covers_target_support():
    model = mixture_benchmark_model()
    rng = np.random.default_rng(1)
    lam = rng.uniform([1.9, 0.5], [2.1, 1.5], size=(20_000, 2))
    q = model.qoi(lam)
    lo, hi = mixture_benchmark_target().support
    frac = np.mean((q >= lo) & (q <= hi))
    assert 0.01 < frac < 0.2


def test_normal_cdf_values():
    assert NormalTarget(0.0, 1.0).cdf(0.0) == pytest.approx(0.5)
    assert NormalTarget(2.0, 0.5).cdf(2.5) == pytest.approx(0.8413447460685429, abs=1e-12)
    with pytest.raises(ValueError):
        NormalTarget(0.0, -1.0)


def test_mixture_cdf_benchmark_values():
    mix = mixture_benchmark_target()
    assert mix.cdf(0.59) == pytest.approx(0.5)
    assert mix.cdf(0.595) == pytest.approx(0.6)
    assert mix.cdf(0.6) == pytest.approx(1.0)
    assert mix.cdf(0.5849) == 0.0
    assert mix.cdf(0.7) == 1.0


def test_mixture_cdf_piecewise_linear_monotone():
    mix = mixture_benchmark_target()
    q = np.linspace(0.57, 0.61, 2001)
    vals = mix.cdf(q)
    assert np.all(np.diff(vals) >= 0)
    # continuity: no jumps beyond the local slope times the grid step
    max_slope = max(w / (b - a) for w, a, b in mix.components)
    assert np.max(np.diff(vals)) <= max_slope * (q[1] - q[0]) + 1e-12


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureOfUniforms(components=((0.5, 0.0, 1.0), (0.6, 1.0, 2.0)))
    with pytest.raises(ValueError):
        MixtureOfUniforms(components=((0.5, 0.0, 1.0), (0.5, 0.5, 1.5)))


@pytest.mark.parametrize("which", ["uniform", "normal", "mixture"])
def test_samplers_pass_ks_sanity(which):
    n = 100_000
    if which == "uniform":
        samples = UniformBoxSampler(BoxScaler([0.0], [2.0])).sample(n, np.random.default_rng(5))
        cdf = lambda q: np.clip(q / 2.0, 0.0, 1.0)
    elif which == "normal":
        normal = NormalTarget(1.0, 0.5)
        samples = normal.sample(n, np.random.default_rng(6))
        cdf = normal.cdf
    else:
        mix = mixture_benchmark_target()
        samples = mix.sample(n, np.random.default_rng(7))
        cdf = mix.cdf
    x = np.sort(samples.points[:, 0])
    ranks = np.arange(1, n + 1) / n
    sup = np.max(np.abs(cdf(x) - ranks))
    assert sup < 2.0 / np.sqrt(n)


def test_samplers_reproducible_under_seed():
    sampler = UniformBoxSampler(BoxScaler([0.0, 0.0], [1.0, 2.0]))
    a = sampler.sample(100, np.random.default_rng(9))
    b = sampler.sample(100, np.random.default_rng(9))
    assert np.array_equal(a.points, b.points)


def test_heat_qoi_functional_form():
    lam = np.array([[2.0, 1.0]])
    assert HeatRod()(lam)[0] == HeatRod().qoi(lam)[0]


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(10, 3)) * np.pi
    path = tmp_path / "samples.csv"
    save_samples(path, pts)
    back = load_samples(path)
    assert np.array_equal(back.points, pts)
    assert open(path).readline().strip() == "x1,x2,x3"


def test_load_pairs_aligned(tmp_path):
    rng = np.random.default_rng(17)
    lam = rng.uniform(size=(10, 3))
    q = rng.uniform(size=(10, 3))
    save_samples(tmp_path / "lam.csv", lam)
    save_samples(tmp_path / "q.csv", q, prefix="q")
    a, b = load_pairs(tmp_path / "lam.csv", tmp_path / "q.csv")
    assert a.dim == 3 and b.dim == 3 and a.n == 10 and b.n == 10
    assert np.array_equal(a.points, lam)


def test_load_pairs_row_count_mismatch(tmp_path):
    save_samples(tmp_path / "lam.csv", np.zeros((3, 1)))
    save_samples(tmp_path / "q.csv", np.zeros((5, 1)))
    with pytest.raises(ValueError, match="3.*5"):
        load_pairs(tmp_path / "lam.csv", tmp_path / "q.csv")


def test_load_samples_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1\n0.5\nnot-a-number\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        load_samples(path)


def test_load_samples_empty_and_header_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_samples(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x1,x2\n0.5,0.5\n0.1\n")
    with pytest.raises(ValueError, match="ragged.csv:3"):
        load_samples(ragged)


def test_mixture_cdf_flat_across_gaps():
    mix = MixtureOfUniforms(components=((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))
    q = np.array([1.0, 1.3, 1.7, 2.0])
    vals = mix.cdf(q)
    assert vals[0] == vals[1] == vals[2] == pytest.approx(0.5)
    # running integral of the CDF is consistent with quadrature across the gap
    grid = np.linspace(-0.5, 3.5, 40_001)
    quad = np.trapezoid(mix.cdf(grid), grid)
    closed = mix.integral_of_cdf(np.array([3.5]))[0] - mix.integral_of_cdf(np.array([-0.5]))[0]
    assert quad == pytest.approx(closed, abs=1e-6)


def reference_qoi(model, lam):
    """The series summed term by term over all ``truncation`` rows at once."""
    pts = np.atleast_2d(np.asarray(lam, dtype=float))
    ell = pts[:, 0]
    kappa = pts[:, 1]
    k = np.arange(1, model.truncation + 1)[:, None]
    if model.standard_physics:
        decay = np.exp(-kappa[None, :] * (k * np.pi / ell[None, :]) ** 2 * model.t_star)
        prefactor = 2.0 * ell / np.pi
    else:
        decay = np.exp(-kappa[None, :] * k * np.pi * model.t_star / ell[None, :] ** 2)
        prefactor = 2.0 * ell**2 / np.pi
    signs = (-1.0) ** (k + 1) / k
    series = np.sum(signs * decay * np.sin(k * np.pi * model.x_star / ell[None, :]), axis=0)
    return prefactor * series


def mpmath_qoi(model, lam):
    """The truncated series of each float row of ``lam`` at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(40):
        x, t, pi = mpmath.mpf(model.x_star), mpmath.mpf(model.t_star), mpmath.pi
        for ell, kappa in np.atleast_2d(lam):
            ell, kappa = mpmath.mpf(ell), mpmath.mpf(kappa)
            total = mpmath.mpf(0)
            for k in range(1, model.truncation + 1):
                if model.standard_physics:
                    exponent = -kappa * (k * pi / ell) ** 2 * t
                else:
                    exponent = -kappa * k * pi * t / ell**2
                total += (-1) ** (k + 1) * mpmath.exp(exponent) * mpmath.sin(k * pi * x / ell) / k
            prefactor = 2 * ell / pi if model.standard_physics else 2 * ell**2 / pi
            out.append(float(prefactor * total))
    return np.array(out)


def full_loop_qoi(model, lam):
    """The recurrence of ``HeatRod.qoi`` run over all ``truncation`` terms,
    with no early exit: the oracle of the exit's bit identity."""
    pts = np.atleast_2d(np.asarray(lam, dtype=float))
    ell = pts[:, 0]
    kappa = pts[:, 1]
    theta = np.pi * model.x_star / ell
    if model.standard_physics:
        a = -kappa * (np.pi / ell) ** 2 * model.t_star
        growth = np.exp(2.0 * a)
        prefactor = 2.0 * ell / np.pi
    else:
        a = -kappa * np.pi * model.t_star / ell**2
        prefactor = 2.0 * ell**2 / np.pi
    step = np.exp(a) * np.exp(1j * theta)
    w = np.ones(len(pts), dtype=complex)
    series = np.zeros(len(pts))
    for k in range(1, model.truncation + 1):
        w = w * step
        series = series + (-1.0) ** (k + 1) / k * w.imag
        if model.standard_physics:
            step = step * growth
    return prefactor * series


def assert_bit_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def assert_rel_close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= rtol * np.abs(b))


@pytest.mark.parametrize(
    "model",
    [
        HeatRod(),
        HeatRod(standard_physics=True),
        mixture_benchmark_model(),
        HeatRod(truncation=1),
        HeatRod(truncation=1, standard_physics=True, t_star=0.3),
        HeatRod(standard_physics=True, t_star=3.0),
    ],
)
def test_heat_qoi_bit_equal_to_full_series(model):
    # the recurrence rounds differently from the term-by-term sum, so the
    # two agree to a few ulp, not bit for bit (measured at most 3.3e-15)
    rng = np.random.default_rng(41)
    box = model.box
    lam = rng.uniform(box.lower, box.upper, size=(5000, 2))
    lam = np.vstack([lam, [box.lower, box.upper]])
    assert_rel_close(model.qoi(lam), reference_qoi(model, lam), 1e-14)
    assert_bit_equal(model.qoi(lam[:0]), reference_qoi(model, lam[:0]))


@pytest.mark.parametrize("model", [HeatRod(), mixture_benchmark_model()])
def test_heat_qoi_matches_mpmath_series(model):
    # the printed series and the mixture model's standard-physics series,
    # on seeded rows of Lambda and its four corners
    box = model.box
    lam = np.random.default_rng(61).uniform(box.lower, box.upper, size=(60, 2))
    lam = np.vstack([lam, list(itertools.product(*model.lambda_box))])
    assert_rel_close(model.qoi(lam), mpmath_qoi(model, lam), 1e-14)


def test_heat_qoi_all_rows_underflow():
    # every decay underflows from k = 1: the result is a signed zero, -0.0
    # under the negative prefactor of ell = -2; a zero partial sum never
    # meets the strict exit test, so the full loop's signs are kept
    model = HeatRod(standard_physics=True, t_star=1e6)
    lam = np.array([[1.9, 0.5], [2.0, 1.0], [2.1, 1.5], [-2.0, 1.0]])
    with pytest.warns(UserWarning, match="outside Lambda"):
        vals = model.qoi(lam)
    assert not vals.any()
    assert np.signbit(vals).tolist() == [False, False, False, True]
    assert_bit_equal(vals, reference_qoi(model, lam))
    assert_bit_equal(vals, full_loop_qoi(model, lam))


def test_heat_qoi_outside_lambda_warns_and_matches():
    model = mixture_benchmark_model()
    lam = np.array([[2.0, 1000.0], [2.0, 1.0], [2.0, -0.01]])
    with pytest.warns(UserWarning, match="outside Lambda"):
        vals = model.qoi(lam)
    assert_rel_close(vals[:2], reference_qoi(model, lam[:2]), 1e-14)
    # negative kappa: a cancelling series of terms up to ~1e30 whose sum is
    # ~4e29, where both the recurrence and the term-by-term sum are ~7e-14
    # from the exact value
    assert_rel_close(vals[2:], mpmath_qoi(model, lam[2:]), 1e-12)


def test_heat_qoi_tiny_rod_is_finite():
    # at ell = 1.2e-306 the exponent is -inf and the term-by-term sum's sin
    # argument overflows (sin(inf) = NaN); here exp(a) = 0 zeroes every term
    model = mixture_benchmark_model()
    lam = np.array([[1.2e-306, 1.0], [2.0, 1.0]])
    with np.errstate(over="ignore"), pytest.warns(UserWarning, match="outside Lambda"):
        vals = model.qoi(lam)
    assert vals[0] == 0.0 and np.isfinite(vals[1])


def test_heat_qoi_decay_through_subnormal_range_matches_full_series():
    # on the mixture model, decay crosses from normal values through the
    # subnormal range (exponent in (-745.13, -708)) to exact zeros
    model = mixture_benchmark_model()
    ell, kappa = np.meshgrid(np.linspace(1.9, 2.1, 41), np.linspace(0.5, 1.5, 51))
    lam = np.column_stack([ell.ravel(), kappa.ravel()])
    k = np.arange(1, model.truncation + 1)[:, None]
    decay = np.exp(-lam[None, :, 1] * (k * np.pi / lam[None, :, 0]) ** 2 * model.t_star)
    assert ((decay > 0) & (decay < np.finfo(float).tiny)).any()
    assert (decay == 0).any() and (decay >= np.finfo(float).tiny).any()
    assert_rel_close(model.qoi(lam), reference_qoi(model, lam), 1e-14)


@pytest.mark.parametrize("n", [1, 2, 7, 511, 512, 513, 1025, 2000])
@pytest.mark.parametrize(
    "model", [HeatRod(), HeatRod(standard_physics=True), mixture_benchmark_model()]
)
def test_heat_qoi_blocks_bit_equal_to_whole_array(model, n):
    # each row is a function of that row alone: a lone row and a block of
    # rows give the bits they have in the whole array
    box = model.box
    lam = np.random.default_rng(n).uniform(box.lower, box.upper, size=(n, 2))
    whole = model.qoi(lam)
    assert_bit_equal(model.qoi(lam[1:]), whole[1:])
    lone = [model.qoi(lam[i : i + 1])[0] for i in range(n)]
    assert_bit_equal(lone, whole)


@pytest.mark.parametrize("n", [QOI_BLOCK_ROWS - 1, QOI_BLOCK_ROWS, QOI_BLOCK_ROWS + 1,
                               2 * QOI_BLOCK_ROWS + 1])
@pytest.mark.parametrize("model", [HeatRod(), mixture_benchmark_model()])
def test_heat_qoi_row_blocks_bit_equal_to_one_pass(model, n):
    # qoi evaluates QOI_BLOCK_ROWS rows at a time; the series over all rows
    # in one pass gives the same bits
    box = model.box
    lam = np.random.default_rng(n).uniform(box.lower, box.upper, size=(n, 2))
    blocked = model.qoi(lam)
    whole = model._series(lam)
    assert blocked.shape == (n,)
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))


def test_heat_qoi_outside_rows_in_two_blocks_warn_once():
    # two outside rows far apart in one call give one warning
    model = HeatRod()
    box = model.box
    lam = np.random.default_rng(53).uniform(box.lower, box.upper, size=(1025, 2))
    lam[2, 1] = 2.0
    lam[517, 0] = 1.8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals = model.qoi(lam)
    assert [str(w.message) for w in caught] == [
        "2 parameter sample(s) outside Lambda; evaluating anyway"
    ]
    assert caught[0].category is UserWarning
    assert_rel_close(vals, reference_qoi(model, lam), 1e-14)


def test_heat_qoi_memory_is_bounded_by_the_block():
    # the term-by-term series holds several 100 x 100 000 float64 arrays at
    # once (about 306 MiB); the recurrence holds a few length-n vectors
    lam = np.random.default_rng(59).uniform([1.9, 0.5], [2.1, 1.5], size=(100_000, 2))
    model = HeatRod()
    tracemalloc.start()
    try:
        model.qoi(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# kappa = -0.01: |step| > 1, the terms grow; kappa = 1000: the partial sums
# of the mixture model are subnormal; ell = 1.2e-306: step is 0.0 and the sum
# +0.0; (-2.0, 1e300): step is 0.0 and the result -0.0 (a negative prefactor)
OUTSIDE_ROWS = [[2.0, -0.01], [2.0, 1000.0], [1.2e-306, 1.0], [-2.0, 1e300]]


@pytest.mark.parametrize(
    "model",
    [
        HeatRod(),
        HeatRod(standard_physics=True),
        mixture_benchmark_model(),
        HeatRod(standard_physics=True, t_star=3.0),
        HeatRod(truncation=1),
        HeatRod(truncation=2, standard_physics=True, t_star=0.3),
        HeatRod(truncation=7, standard_physics=True, t_star=0.3),
        HeatRod(truncation=100_000),
        HeatRod(truncation=100_000, standard_physics=True, t_star=0.3),
    ],
    ids=["printed", "standard", "mixture", "t3", "trunc1", "trunc2", "trunc7",
         "printed-trunc100000", "mixture-trunc100000"],
)
def test_heat_qoi_exit_bit_equal_to_full_loop(model):
    # the series stops early only where no later term moves a bit: the
    # corners of Lambda and rows outside it give the full loop's bits, in
    # one call (where the outside rows keep the block running) and alone
    # (at 100 000 terms a lone row that never exits would cost 0.3 s)
    corners = np.array(list(itertools.product(*model.lambda_box)))
    lam = np.vstack([corners, OUTSIDE_ROWS])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle = full_loop_qoi(model, lam)
        assert_bit_equal(model.qoi(lam), oracle)
        assert_bit_equal(model.qoi(corners), oracle[:4])
        if model.truncation <= 100:
            for i in range(4, len(lam)):
                assert_bit_equal(model.qoi(lam[i:i + 1]), oracle[i:i + 1])


@pytest.mark.parametrize("n", [QOI_BLOCK_ROWS - 1, QOI_BLOCK_ROWS + 1])
@pytest.mark.parametrize("where", [0, -1])
def test_heat_qoi_one_block_exits_and_its_neighbour_does_not(n, where):
    # a kappa = -0.01 row keeps its block running to the truncation while the
    # other block (if any) stops near term 12
    model = mixture_benchmark_model()
    box = model.box
    lam = np.random.default_rng(n).uniform(box.lower, box.upper, size=(n, 2))
    lam[where] = [2.0, -0.01]
    with pytest.warns(UserWarning, match="1 parameter sample"):
        vals = model.qoi(lam)
    assert_bit_equal(vals, full_loop_qoi(model, lam))


def test_exit_test_needs_every_guard():
    # the exit predicate alone, on one row: |w| far below the partial sum
    w, series = np.array([1e-30 + 1e-30j]), np.array([1.0])
    assert models._settled(w, series, np.array([0.5 + 0.5j]))
    assert models._settled(w, series, np.array([0.5 + 0.5j]), np.array([1.0]))
    # a step that grows, or a growth factor above 1, lets later terms grow
    assert not models._settled(w, series, np.array([2.0 + 0.0j]))
    assert not models._settled(w, series, np.array([0.5 + 0.5j]), np.array([1.5]))
    # the margin is 2^-56 of the partial sum, strictly
    edge = np.array([2.0**-56 + 0j])
    assert not models._settled(edge, series, np.array([0.5 + 0.5j]))
    assert models._settled(np.nextafter(edge.real, 0) + 0j, series, np.array([0.5 + 0.5j]))
    # w = 0 settles a zero or subnormal partial sum (every later term is
    # +-0), but never a NaN one; a nonzero w never settles a zero sum
    for s in (0.0, 5e-324):
        assert models._settled(np.array([0j]), np.array([s]), np.array([0.5 + 0j]))
    assert not models._settled(np.array([0j]), np.array([np.nan]), np.array([0.5 + 0j]))
    assert not models._settled(np.array([5e-324 + 0j]), np.array([0.0]), np.array([0.5 + 0j]))
    # and not where a later step could grow
    assert not models._settled(np.array([0j]), np.array([0.0]), np.array([2.0 + 0j]))
    # a bound that underflows into the subnormal range keeps its meaning
    tiny = np.array([2.0**-1000])
    assert models._settled(np.array([2.0**-1057 + 0j]), tiny, np.array([0.5 + 0j]))
    assert not models._settled(np.array([2.0**-1056 + 0j]), tiny, np.array([0.5 + 0j]))


@settings(max_examples=100, deadline=None)
@given(
    t_star=st.one_of(st.floats(1e-3, 1.0), st.floats(0.0, 10.0)),
    standard=st.booleans(),
    truncation=st.integers(1, 5000),
    rows=st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(1e-3, 20.0)),
                  min_size=1, max_size=8),
    odd=st.sampled_from([None, None, None, (2.0, -0.01), (2.0, 0.0), (2.0, 1000.0),
                         (1.2e-306, 1.0)]),
)
def test_heat_qoi_exit_bit_equal_to_full_loop_on_random_models(
        t_star, standard, truncation, rows, odd):
    # rows inside and outside Lambda, with at most one odd row (growing
    # terms, no decay, a subnormal or a zero sum); the sensor is inside
    # every rod
    model = HeatRod(t_star=t_star, standard_physics=standard, truncation=truncation,
                    x_star=0.04)
    lam = np.array(rows + ([odd] if odd else []))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_bit_equal(model.qoi(lam), full_loop_qoi(model, lam))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def too_slow(signum, frame):
        raise TimeoutError("the rod series did not stop early")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_heat_qoi_huge_truncation_stops_early():
    # 1e9 terms would take hours; the series stops near term 12, so the
    # result is the truncation-100 result, within a 5 s alarm
    box = mixture_benchmark_model().box
    lam = np.random.default_rng(67).uniform(box.lower, box.upper, size=(1000, 2))
    with time_limit(5.0):
        vals = HeatRod(t_star=0.3, standard_physics=True, truncation=10**9).qoi(lam)
    assert_bit_equal(vals, mixture_benchmark_model().qoi(lam))


@pytest.mark.parametrize("row", [(2.0, 1000.0), (1.2e-306, 1.0)],
                         ids=["subnormal-sum", "zero-sum"])
def test_heat_qoi_row_whose_w_is_zero_stops_early(row):
    # each row's w_k underflows to exactly 0 (its partial sum is subnormal
    # or 0.0, below any strict bound); 100 000 terms took about 0.5 s, the
    # settled row takes well under 0.25 s and keeps the full loop's bits
    model = HeatRod(t_star=0.3, standard_physics=True, truncation=100_000)
    lam = np.array([row])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with time_limit(0.25):
            vals = model.qoi(lam)
        assert_bit_equal(vals, full_loop_qoi(model, lam))
