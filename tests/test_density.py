import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv import core, density
from dcinv.core import BoxScaler, Normalization, SampleSet, WeightedEdf, WeightVector
from dcinv.density import (
    KdeModel,
    density_ratio,
    density_ratio_many,
    diagnostic,
    kde_fit,
    rejection_sample,
    solve_density,
    update_probability,
)
from dcinv.edf import wedf_eval_many


def test_kde_fixed_bandwidth_hand_value():
    # two unit kernels at -1 and 1 evaluated at 0: phi(1) = e^{-1/2}/sqrt(2 pi)
    model = kde_fit(np.array([[-1.0], [1.0]]), rule=1.0)
    val = model.pdf(np.array([[0.0]]))[0]
    assert val == pytest.approx(np.exp(-0.5) / np.sqrt(2 * np.pi), abs=1e-14)


def test_kde_far_point_underflows():
    model = kde_fit(np.array([[-1.0], [1.0]]), rule=1.0)
    val = model.pdf(np.array([[60.0]]))[0]
    assert val < 1e-300


def test_kde_single_point_rejected():
    with pytest.raises(ValueError):
        kde_fit(np.array([[0.5]]))


def test_kde_scott_bandwidth_matrix():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(500, 1))
    model = kde_fit(x, rule="scott")
    expected = np.var(x, ddof=1) * 500 ** (-2.0 / 5.0)
    assert model.bandwidth_matrix[0, 0] == pytest.approx(expected)
    silver = kde_fit(x, rule="silverman")
    expected_s = np.var(x, ddof=1) * (500 * 3.0 / 4.0) ** (-2.0 / 5.0)
    assert silver.bandwidth_matrix[0, 0] == pytest.approx(expected_s)


def test_kde_integrates_to_one_1d():
    rng = np.random.default_rng(5)
    model = kde_fit(rng.normal(size=(200, 1)), rule="scott")
    grid = np.linspace(-8, 8, 4001)[:, None]
    mass = np.trapezoid(model.pdf(grid), grid[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_kde_singular_covariance_fallback():
    pts = np.column_stack([np.linspace(0, 1, 50), np.linspace(0, 1, 50)])
    with pytest.warns(UserWarning, match="singular"):
        model = kde_fit(pts, rule="scott")
    np.linalg.cholesky(model.bandwidth_matrix)


def test_kde_binned_matches_exact():
    rng = np.random.default_rng(9)
    x = rng.normal(0.5, 0.1, size=(5000, 1))
    model = kde_fit(x, rule="scott")
    q = rng.uniform(0.2, 0.8, size=(200, 1))
    exact = model.pdf(q)
    binned = model.pdf(q, method="binned")
    assert np.max(np.abs(binned - exact) / exact.max()) < 5e-4


def test_kde_binned_on_samples_and_queries_at_one_point():
    # the data spread is nil beside the 8h pad, so pad / delta is about
    # BINNED_GRID / 2; the kernel must stay shorter than the grid
    model = KdeModel(SampleSet(np.full((50, 1), 2.0)), np.array([[1e-8]]))
    q = np.full((3, 1), 2.0)
    binned = model.pdf(q, method="binned")
    assert binned.shape == (3,)
    np.testing.assert_allclose(binned, model.pdf(q), rtol=1e-3)


def test_kde_rejects_a_non_finite_bandwidth():
    # NaN compares false, so it passes the symmetry and Cholesky tests
    for bw in (np.nan, np.inf):
        with pytest.raises(density.BandwidthError, match="must be finite"):
            KdeModel(SampleSet(np.zeros((3, 1))), np.array([[bw]]))


def test_density_ratio_identical_models_is_one():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 1))
    model = kde_fit(x)
    q = rng.uniform(-1, 1, size=(50, 1))
    ratios, flags = density_ratio_many(model, model, q)
    assert np.allclose(ratios, 1.0, atol=1e-12)
    assert not flags.any()


def test_density_ratio_uniform_consistency():
    rng = np.random.default_rng(13)
    a = kde_fit(rng.uniform(size=(20_000, 1)))
    b = kde_fit(rng.uniform(size=(20_000, 1)))
    assert density_ratio(a, b, np.array([0.5])) == pytest.approx(1.0, abs=0.1)


def test_density_ratio_violation_flag():
    obs = kde_fit(np.array([[100.0], [100.1]]), rule=0.01)
    pred = kde_fit(np.array([[0.0], [0.1]]), rule=0.01)
    ratios, flags = density_ratio_many(obs, pred, np.array([[100.0]]))
    assert flags[0] and np.isinf(ratios[0])


def test_diagnostic_values():
    assert diagnostic([1.0, 1.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        diagnostic([])


def test_rejection_all_equal_accepts_everything():
    samples = SampleSet(np.arange(10.0))
    accepted = rejection_sample(samples, np.full(10, 3.3), seed=0)
    assert accepted.n == 10


def test_rejection_zero_ratio_never_accepted():
    samples = SampleSet(np.array([0.0, 1.0]))
    for seed in range(20):
        accepted = rejection_sample(samples, np.array([1.0, 0.0]), seed=seed)
        assert np.all(accepted.points[:, 0] == 0.0)


def test_rejection_acceptance_fraction_binomial():
    rng = np.random.default_rng(17)
    n = 5000
    r = rng.uniform(0.0, 2.0, size=n)
    p_acc = np.mean(r / r.max())
    fractions = [
        rejection_sample(SampleSet(np.arange(float(n))), r, seed=s).n / n
        for s in range(10)
    ]
    sd = np.sqrt(p_acc * (1 - p_acc) / n)
    assert np.all(np.abs(np.array(fractions) - p_acc) < 3 * sd + 3 * sd)


def test_rejection_all_zero_errors():
    with pytest.raises(ValueError):
        rejection_sample(SampleSet(np.array([0.0])), np.array([0.0]), seed=0)


def test_update_probability_whole_and_empty_region():
    rng = np.random.default_rng(19)
    pts = rng.uniform(size=(500, 2))
    r = rng.uniform(0.5, 1.5, size=500)
    assert update_probability(BoxScaler([0.0, 0.0], [1.0, 1.0]), pts, r) == pytest.approx(1.0)
    assert update_probability(BoxScaler([5.0, 5.0], [6.0, 6.0]), pts, r) == 0.0
    assert update_probability(BoxScaler([0.0, 0.0], [1.0, 1.0]), pts, np.zeros(500)) == 0.0


def test_ratio_constant_on_contours():
    # the ratio is a function of q only: identical data values, identical ratio
    rng = np.random.default_rng(23)
    obs = kde_fit(rng.normal(0.5, 0.2, size=(300, 1)))
    pred = kde_fit(rng.uniform(size=(300, 1)))
    q = np.array([[0.37]])
    assert density_ratio(obs, pred, q) == density_ratio(obs, pred, q.copy())


def test_solve_density_identical_distributions():
    rng = np.random.default_rng(29)
    n = 2000
    initial = SampleSet(rng.uniform(size=(n, 2)))
    predicted = SampleSet(rng.normal(0.5, 0.1, size=(n, 1)))
    observed = SampleSet(rng.normal(0.5, 0.1, size=(n, 1)))
    sol = solve_density(initial, predicted, observed)
    assert abs(sol.diagnostic - 1.0) < 3.0 / np.sqrt(n)
    assert sol.n_violations == 0
    weights = sol.weights.weights
    assert weights.sum() == pytest.approx(1.0)


def test_kde_model_validation():
    with pytest.raises(ValueError):
        KdeModel(SampleSet([0.0, 1.0]), np.array([[-1.0]]))
    with pytest.raises(ValueError):
        kde_fit(np.array([[0.0], [1.0]]), rule=-0.5)


def test_pdf_method_validation():
    rng = np.random.default_rng(31)
    model2d = kde_fit(rng.uniform(size=(50, 2)))
    with pytest.raises(ValueError, match="1-D only"):
        model2d.pdf(np.zeros((1, 2)), method="binned")
    model1d = kde_fit(rng.uniform(size=(50, 1)))
    with pytest.raises(ValueError, match="unknown"):
        model1d.pdf(np.zeros((1, 1)), method="fft")
    with pytest.raises(ValueError, match="dim"):
        model1d.pdf(np.zeros((1, 2)))


def test_update_probability_accepts_plain_bounds():
    rng = np.random.default_rng(37)
    pts = rng.uniform(size=(200, 1))
    r = np.ones(200)
    est = update_probability([[0.0, 0.5]], pts, r)
    assert est == pytest.approx(np.mean(pts[:, 0] <= 0.5))


def test_rejection_pushforward_improves_on_unweighted():
    # accepted samples pushed through the model give an EDF closer (sup-norm)
    # to the observed EDF than the raw predicted EDF
    from dcinv.core import WeightedEdf, fit_box
    from dcinv.edf import sup_distance
    from dcinv.models import HeatRod, UniformBoxSampler, heat_rod_observed

    model = HeatRod()
    rng = np.random.default_rng(71)
    initial = UniformBoxSampler(model.box).sample(2000, rng)
    predicted = SampleSet(model.qoi(initial.points)[:, None])
    observed = heat_rod_observed().sample(10_000, rng)
    sol = solve_density(initial, predicted, observed)

    accepted = rejection_sample(initial, sol.r_values, seed=5)
    accepted_pf = SampleSet(model.qoi(accepted.points)[:, None])
    box = fit_box(np.vstack([predicted.points, observed.points]))
    obs_edf = lambda pts: wedf_eval_many(WeightedEdf.plain(observed), pts)
    err_accepted = sup_distance(WeightedEdf.plain(accepted_pf), obs_edf, box, 2048)
    err_plain = sup_distance(WeightedEdf.plain(predicted), obs_edf, box, 2048)
    assert err_accepted < err_plain


def reference_pdf_exact(model, pts):
    """Exact KDE evaluation in 1600-row blocks with a triangular solve at every
    d and a plain np.exp: the implementation the blocked in-place one replaced."""
    from scipy.linalg import solve_triangular

    x = model.points.points
    chol = np.linalg.cholesky(model.bandwidth_matrix)
    log_norm = model.dim * 0.5 * np.log(2.0 * np.pi) + np.sum(np.log(np.diag(chol)))
    out = np.empty(pts.shape[0])
    chunk = max(1, 16_000_000 // max(x.shape[0] * model.dim, 1))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        diff = block[:, None, :] - x[None, :, :]
        white = solve_triangular(
            chol, diff.reshape(-1, model.dim).T, lower=True, check_finite=False
        )
        quad = np.sum(white**2, axis=0).reshape(block.shape[0], x.shape[0])
        quad *= -0.5
        np.exp(quad, out=quad)
        out[start : start + block.shape[0]] = quad.sum(axis=1)
    return out / (model.n * np.exp(log_norm))


def assert_bit_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def block_rows(model):
    from dcinv.density import _EVAL_BLOCK_ELEMS

    return max(1, _EVAL_BLOCK_ELEMS // (model.n * model.dim))


def test_pdf_exact_bit_equal_to_reference_1d():
    rng = np.random.default_rng(43)
    model = kde_fit(rng.normal(0.5, 0.1, size=(1000, 1)), rule="scott")
    rows = block_rows(model)
    assert 1 < rows < 1000
    for m in (0, 1, 3 * rows, 3 * rows + 1):
        q = rng.uniform(0.1, 0.9, size=(m, 1))
        assert_bit_equal(model.pdf(q), reference_pdf_exact(model, q))


def test_pdf_exact_bit_equal_where_kernels_underflow():
    # a narrow kernel: most terms of every sum underflow to exactly 0
    rng = np.random.default_rng(47)
    model = kde_fit(rng.uniform(0.585, 0.6, size=(3000, 1)), rule=7e-4)
    q = rng.uniform(0.33, 0.99, size=(500, 1))
    vals = model.pdf(q)
    assert (vals == 0).any() and (vals > 0).any()
    assert_bit_equal(vals, reference_pdf_exact(model, q))


def test_pdf_exact_subnormal_kernels_mixed_with_normal_ones():
    # with unit bandwidth a sample 38 away gives quad = -722, a subnormal
    # kernel; 1000 away underflows, 0 away is an ordinary kernel
    model = kde_fit(np.array([[0.0], [38.0], [-38.5], [1000.0]]), rule=1.0)
    q = np.concatenate([np.linspace(-50.0, 90.0, 281), [0.0, 38.0, 1000.0]])[:, None]
    quad = -0.5 * (q - model.points.points[:, 0]) ** 2
    assert ((quad > -745.0) & (quad < -708.0)).any()
    vals = model.pdf(q)
    assert ((vals > 0) & (vals < 2.2250738585072014e-308)).any()
    assert_bit_equal(vals, reference_pdf_exact(model, q))


def test_pdf_exact_far_queries_give_zero_and_violations():
    rng = np.random.default_rng(53)
    obs = kde_fit(rng.normal(0.0, 0.01, size=(200, 1)))
    pred = kde_fit(rng.normal(0.0, 0.01, size=(300, 1)))
    q = np.array([[5.0], [-7.0], [1e6]])
    vals = pred.pdf(q)
    assert not vals.any() and not np.signbit(vals).any()
    assert_bit_equal(vals, reference_pdf_exact(pred, q))
    ratios, violations = density_ratio_many(obs, pred, q)
    assert violations.all() and np.isinf(ratios).all()


@pytest.mark.parametrize("d", [2, 3])
def test_pdf_exact_bit_equal_to_reference_full_bandwidth(d):
    rng = np.random.default_rng(59 + d)
    mix = rng.normal(size=(d, d))
    model = kde_fit(rng.normal(size=(1001, d)) @ mix, rule="scott")
    assert np.count_nonzero(model.bandwidth_matrix) == d * d
    rows = block_rows(model)
    for m in (0, 1, 2 * rows, 2 * rows + 1):
        q = rng.normal(size=(m, d)) @ mix
        assert_bit_equal(model.pdf(q), reference_pdf_exact(model, q))


def test_pdf_exact_bit_equal_at_sample_count_extremes():
    rng = np.random.default_rng(61)
    two = kde_fit(np.array([[0.2], [0.7]]), rule="silverman")
    q = rng.uniform(-1.0, 2.0, size=(70_000, 1))
    assert_bit_equal(two.pdf(q), reference_pdf_exact(two, q))
    big = kde_fit(rng.normal(size=((1 << 17) + 3, 1)), rule="scott")
    assert block_rows(big) == 1
    q = rng.normal(size=(3, 1))
    assert_bit_equal(big.pdf(q), reference_pdf_exact(big, q))


@pytest.mark.parametrize("method", ["exact", "binned"])
def test_pdf_zero_queries(method):
    rng = np.random.default_rng(67)
    obs = kde_fit(rng.normal(size=(100, 1)))
    pred = kde_fit(rng.normal(size=(100, 1)))
    empty = np.empty((0, 1))
    vals = pred.pdf(empty, method=method)
    assert vals.shape == (0,) and vals.dtype == float
    ratios, violations = density_ratio_many(obs, pred, empty, method=method)
    assert ratios.shape == violations.shape == (0,)


def test_pdf_exact_scratch_memory_is_bounded():
    import tracemalloc

    rng = np.random.default_rng(71)
    wide = kde_fit(rng.normal(size=(20_000, 1)))
    # a narrow kernel: most windows leave out some samples, and some hold none
    narrow = kde_fit(rng.uniform(0.585, 0.6, size=(20_000, 1)), rule=7e-4)
    narrow_q = rng.uniform(0.33, 0.99, size=(4000, 1))
    wide_2d = kde_fit(rng.normal(size=(20_000, 2)))
    narrow_2d = kde_fit(rng.uniform(0.0, 1.0, size=(20_000, 2)), rule=1e-3)
    narrow_2d_q = rng.uniform(-0.5, 1.5, size=(2000, 2))
    for model, q in ((narrow, narrow_q), (narrow_2d, narrow_2d_q)):
        blocks = record_kernel_blocks(model, q)
        assert sum(rows for rows, _ in blocks) < q.shape[0]
        assert any(width < model.n for _, width in blocks)
    for model, q in ((wide, rng.normal(size=(4000, 1))), (narrow, narrow_q),
                     (wide_2d, rng.normal(size=(1000, 2))), (narrow_2d, narrow_2d_q)):
        # in process: tracemalloc does not see a worker process's memory
        with mock.patch.object(core, "cpu_count", return_value=1):
            tracemalloc.start()
            try:
                model.pdf(q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8_000_000


def record_kernel_blocks(model, q):
    """(rows, width) of every block of squared whitened distances that
    ``model.pdf(q)`` evaluates in process; width n is a dense block, a
    smaller one a window span."""
    shapes = []
    name = "_sq_norms_1d" if model.dim == 1 else "_sq_norms"
    sq_norms = getattr(density, name)

    def spy(q, x, chol, out, diff_buf):
        shapes.append(out.shape)
        sq_norms(q, x, chol, out, diff_buf)

    # the spy cannot see a worker process, so the blocks run in this one
    with mock.patch.object(density, name, spy), \
            mock.patch.object(core, "cpu_count", return_value=1):
        model.pdf(q)
    return shapes


def test_pdf_exact_windows_covering_every_sample_take_the_dense_branch():
    rng = np.random.default_rng(73)
    x = rng.normal(size=(2000, 1))
    pred = kde_fit(x, rule=0.2)  # reach 38.6 h = 7.7 is wider than the samples' range
    assert np.ptp(x) < 0.2 * np.sqrt(1492.0)
    blocks = record_kernel_blocks(pred, x)
    assert sum(rows for rows, _ in blocks) == 2000
    assert all(width == 2000 for _, width in blocks)
    assert_bit_equal(pred.pdf(x), reference_pdf_exact(pred, x))


def test_pdf_exact_narrow_windows_evaluate_only_their_span():
    rng = np.random.default_rng(79)
    for d in (1, 2):
        model = kde_fit(rng.uniform(0.0, 1.0, size=(5000, d)), rule=1e-3)
        q = rng.uniform(-0.5, 1.5, size=(3000, d))  # unsorted; half lie off the samples
        blocks = record_kernel_blocks(model, q)
        rows = sum(r for r, _ in blocks)
        assert 1000 < rows < 2000  # the rows with an empty window are skipped
        # blocks of neighbouring queries: a block spans a few windows (each
        # about 2 * 38.6e-3 * 5000 = 386 samples wide), not the whole range
        assert sum(r * w for r, w in blocks) < 0.15 * rows * model.n
        assert_bit_equal(model.pdf(q), reference_pdf_exact(model, q))


def pooled_kde_cases():
    """(label, model, queries, evaluation block elements): four query rows a
    block, so that a few hundred rows fill the 72 blocks of three workers."""
    rng = np.random.default_rng(83)
    dense = kde_fit(rng.normal(size=(500, 1)))  # every window holds every sample
    narrow = kde_fit(rng.uniform(0.0, 1.0, size=(500, 1)), rule=1e-3)
    dense_2d = kde_fit(rng.normal(size=(300, 2)))
    narrow_2d = kde_fit(rng.uniform(0.0, 1.0, size=(300, 2)), rule=1e-3)
    return [
        ("dense", dense, rng.normal(size=(400, 1)), 2000),
        # partial windows, and half of the rows with an empty one
        ("narrow", narrow, rng.uniform(-0.5, 1.5, size=(800, 1)), 2000),
        ("all empty", narrow, rng.uniform(5.0, 6.0, size=(300, 1)), 2000),
        # one row a block: two non-empty rows give two blocks and two runs
        ("fewer rows than workers", narrow, np.array([[0.5], [7.0], [0.25], [-3.0]]), 500),
        ("dense 2-D", dense_2d, rng.normal(size=(400, 2)), 2400),
        ("narrow 2-D", narrow_2d, rng.uniform(-0.5, 1.5, size=(800, 2)), 2400),
    ]


@pytest.mark.parametrize("case", pooled_kde_cases(), ids=lambda case: case[0])
def test_pdf_exact_pooled_bit_equal_to_reference(monkeypatch, case):
    label, model, q, block_elems = case
    monkeypatch.setattr(density, "_EVAL_BLOCK_ELEMS", block_elems)
    if label == "fewer rows than workers":
        monkeypatch.setattr(density, "KDE_POOL_BLOCKS_PER_WORKER", 1)
    asked = []
    real = density.ordered_map

    def recording_map(fn, payloads, workers):
        asked.append((workers, [len(run) for run in payloads]))
        return real(fn, payloads, workers)

    monkeypatch.setattr(density, "ordered_map", recording_map)
    expected = reference_pdf_exact(model, q)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(core, "cpu_count", lambda: cpus)
        assert_bit_equal(model.pdf(q), expected)
    workers = [w for w, _ in asked]
    if label in ("dense", "narrow"):
        assert workers == [1, 2, 3]
        runs = asked[-1][1]
        assert all(r % 4 == 0 for r in runs[:-1]) and max(runs) - min(runs) <= 4
    elif label == "fewer rows than workers":
        assert asked[-1] == (2, [1, 1])
    else:  # no block to share, or d >= 2: in process
        assert workers == [1, 1, 1]
    assert multiprocessing.active_children() == []

@st.composite
def kde_window_cases(draw):
    """Unsorted samples with ties, a fixed bandwidth from "every kernel
    underflows" to "none does", queries on samples, on the window edges
    x -+ r and in between (some repeated), and a small evaluation block."""
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, 11), min_size=2, max_size=40))
    x = np.array([pool[i % len(pool)] for i in picks])
    h = 10.0 ** draw(st.floats(-7.0, 2.0))
    model = kde_fit(x[:, None], rule=h)
    reach = density._WINDOW_REACH * np.sqrt(model.bandwidth_matrix[0, 0])
    edges = np.concatenate([x, x - reach, x + reach, np.nextafter(x + reach, np.inf),
                            np.nextafter(x - reach, -np.inf)])
    q = draw(st.lists(st.one_of(st.sampled_from(edges.tolist()), st.floats(-2.0, 2.0)),
                      max_size=30))
    q = np.array(q + q[: draw(st.integers(0, len(q)))], dtype=float)
    order = draw(st.permutations(range(q.size)))
    return model, q[list(order)][:, None], draw(st.integers(1, 4 * x.size))


@settings(deadline=None, max_examples=300)
@given(kde_window_cases())
def test_pdf_exact_windowed_bit_equal_to_reference(case):
    model, q, block_elems = case
    with mock.patch.object(density, "_EVAL_BLOCK_ELEMS", block_elems):
        got = model.pdf(q)
    assert_bit_equal(got, reference_pdf_exact(model, q))
    for few in (q[:0], q[:1]):
        assert_bit_equal(model.pdf(few), reference_pdf_exact(model, few))


@st.composite
def kde_window_cases_nd(draw):
    """d = 2 or 3: unsorted samples whose first coordinates tie (some whole
    rows too), a full-covariance or narrow fixed bandwidth, queries whose
    first coordinate is on a sample, on its window edge x_0 -+ r, one ulp
    outside it or anywhere (some windows empty), and an evaluation block of
    1 to 4 query rows."""
    d = draw(st.integers(2, 3))
    firsts = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=8 * (d - 1)))
    picks = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), min_size=2,
                          max_size=30))
    x = np.array([[firsts[i % len(firsts)]]
                  + [rest[(j + k) % len(rest)] for k in range(d - 1)] for i, j in picks])
    if draw(st.booleans()):
        model = kde_fit(x, rule=10.0 ** draw(st.floats(-5.0, 0.5)))
    else:
        entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d))
        factor = np.tril(np.reshape(entries, (d, d)), -1) + np.diag(
            draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
        bw = 10.0 ** draw(st.floats(-5.0, 0.0)) * (factor @ factor.T)
        model = KdeModel(SampleSet(x), (bw + bw.T) / 2)
    reach = density._WINDOW_REACH * np.linalg.cholesky(model.bandwidth_matrix)[0, 0]
    edges = np.concatenate([x[:, 0], x[:, 0] - reach, x[:, 0] + reach,
                            np.nextafter(x[:, 0] + reach, np.inf),
                            np.nextafter(x[:, 0] - reach, -np.inf)])
    m = draw(st.integers(0, 30))
    q = np.empty((m, d))
    for i in range(m):
        q[i, 0] = draw(st.one_of(st.sampled_from(edges.tolist()), st.floats(-3.0, 3.0)))
        q[i, 1:] = x[draw(st.integers(0, x.shape[0] - 1)), 1:] + draw(
            st.sampled_from([0.0, 1e-3, -0.3]))
    return model, q, draw(st.integers(1, 4)) * x.size


@settings(deadline=None, max_examples=300)
@given(kde_window_cases_nd())
def test_pdf_exact_windowed_bit_equal_to_reference_nd(case):
    model, q, block_elems = case
    with mock.patch.object(density, "_EVAL_BLOCK_ELEMS", block_elems):
        got = model.pdf(q)
        for few in (q[:0], q[:1]):
            assert_bit_equal(model.pdf(few), reference_pdf_exact(model, few))
    assert_bit_equal(got, reference_pdf_exact(model, q))


def test_pdf_exact_span_of_one_kernel_at_d2():
    # one query whose window holds one sample: the triangular solve would get
    # a single right-hand side, which BLAS rounds by another path
    model = KdeModel(SampleSet(np.array([[0.0, 0.0], [-0.75, 0.0]])),
                     np.diag([0.140625, 1.0]))
    q = np.array([[np.nextafter(-0.75 + density._WINDOW_REACH * 0.375, np.inf), 0.0]])
    assert record_kernel_blocks(model, q) == [(1, 1)]
    assert model.pdf(q)[0] > 0.0
    assert_bit_equal(model.pdf(q), reference_pdf_exact(model, q))


def test_exp_is_plus_zero_at_and_below_exp_zero_at():
    # the window bound rests on this: np.exp gives +0.0, not -0.0 or a
    # subnormal, at and below EXP_ZERO_AT, and subnormals just above it
    edge = -1075 * np.log(2.0)  # exp(edge) is half the smallest subnormal
    under = np.array([density.EXP_ZERO_AT, np.nextafter(density.EXP_ZERO_AT, -np.inf),
                      np.nextafter(edge, -np.inf), -1e6, -np.inf])
    vals = np.exp(under)
    assert not vals.any() and not np.signbit(vals).any()
    assert 0.0 < np.exp(-745.0) < 2.2250738585072014e-308


def test_density_pushforward_bit_equal_to_the_front_end_copy():
    rng = np.random.default_rng(12)
    initial = SampleSet(rng.uniform(size=(400, 2)))
    predicted = SampleSet(initial.points[:, :1] + 0.3 * initial.points[:, 1:] ** 2)
    observed = SampleSet(rng.normal(0.6, 0.1, size=(300, 1)))
    sol = solve_density(initial, predicted, observed)
    got = sol.pushforward()
    # the construction the CLI and compare_methods each made by hand
    ref = WeightedEdf(
        predicted, WeightVector(sol.r_values / float(np.sum(sol.r_values)), Normalization.SUM_ONE)
    )
    assert got.weights.normalization is Normalization.SUM_ONE
    assert np.array_equal(got.samples.points.view(np.int64), ref.samples.points.view(np.int64))
    assert np.array_equal(got.weights.weights.view(np.int64), ref.weights.weights.view(np.int64))
    q = rng.uniform(0.0, 1.4, size=(200, 1))
    assert np.array_equal(wedf_eval_many(got, q).view(np.int64),
                          wedf_eval_many(ref, q).view(np.int64))
