import json
import multiprocessing

import numpy as np
import pytest

from dcinv import binning, experiments
from dcinv.assembly import assemble_qp
from dcinv.binning import (distribute_cell_weights, make_kmeans, make_regular_grid, solve_binning,
                           solve_naive)
from dcinv.core import BoxScaler, SampleSet, ordered_map
from dcinv.density import solve_density
from dcinv.experiments import (
    ConvergenceSpec,
    compare_methods,
    derive_image_region,
    run_convergence,
    write_comparison,
)
from dcinv.io import json_text
from dcinv.models import HeatRod, UniformBoxSampler, eval_qoi, heat_rod_observed
from dcinv.solver import solve_isotonic
from dcinv.targets import EmpiricalTarget


def tiny_spec(**overrides):
    kwargs = dict(
        n_grid=(200, 500),
        p_grid=(5, 12),
        trials=3,
        seed=7,
        m_observed=3000,
        baseline_n=3000,
        baseline_trials=2,
    )
    kwargs.update(overrides)
    return ConvergenceSpec(**kwargs)


def test_spec_validation():
    with pytest.raises(ValueError):
        ConvergenceSpec(n_grid=(100, 100))
    with pytest.raises(ValueError):
        ConvergenceSpec(p_grid=(30, 10))
    with pytest.raises(ValueError):
        ConvergenceSpec(trials=0)
    with pytest.raises(ValueError):
        ConvergenceSpec(partition_kind="voronoi")


def test_derive_image_region_contains_map_values():
    model = HeatRod()
    region = derive_image_region(model, ((2.01, 2.02), (0.95, 1.0)))
    assert len(region) == 1
    lo, hi = region[0]
    rng = np.random.default_rng(5)
    lam = rng.uniform([2.01, 0.95], [2.02, 1.0], size=(500, 2))
    q = model.qoi(lam)
    assert lo <= q.min() and q.max() <= hi
    assert hi - lo < 0.05


def test_run_convergence_tiny_study():
    result = run_convergence(tiny_spec())
    for name, est in result.estimates.items():
        est = np.asarray(est)
        assert est.shape == (3, 2, 2)
        assert np.all(est >= 0.0) and np.all(est <= 1.0 + 1e-12)
    for name, surf in result.surfaces.items():
        surf = np.asarray(surf)
        assert surf.shape == (2, 2)
        assert np.all(surf >= 0.0)
    assert 0.0 <= result.baselines["p_obs_b"] <= 1.0
    assert 0.0 <= result.baselines["p_update_a"] <= 1.0
    for diag in result.baselines["diagnostics"]:
        assert 0.8 <= diag <= 1.2


def test_run_convergence_whole_space_events():
    # A = the whole parameter box, B = the whole data range: both estimated
    # probabilities are one and the error against references is ~0
    model = HeatRod()
    spec = tiny_spec(
        trials=1,
        n_grid=(300,),
        p_grid=(6,),
        region_a=tuple(model.lambda_box),
        region_b=((0.0, 10.0),),
    )
    result = run_convergence(spec)
    assert np.asarray(result.estimates["pred_b"])[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
    assert np.asarray(result.estimates["init_a"])[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
    assert result.baselines["p_obs_b"] == pytest.approx(1.0)
    assert result.baselines["p_update_a"] == pytest.approx(1.0, abs=1e-9)


def test_run_convergence_deterministic_serialization():
    spec = tiny_spec()
    a = json_text(run_convergence(spec).to_dict())
    b = json_text(run_convergence(spec).to_dict())
    assert a == b


def test_run_convergence_appended_prefix_property():
    # the trial's smaller sample set must be an exact prefix of the larger:
    # re-derive the trial draw and compare against the study's estimates
    from dcinv.experiments import _study_trial

    spec = tiny_spec()
    region_b = derive_image_region(spec.model, spec.region_a)
    obs = spec.target.sample(
        spec.m_observed, np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
    )
    out1 = _study_trial(spec, obs.points, region_b, 0)
    out2 = _study_trial(spec, obs.points, region_b, 0)
    assert np.array_equal(out1, out2)
    # prefix construction: drawing n_max samples and slicing gives the same
    # stream as the estimates imply; verified directly on the sampler
    from dcinv.models import UniformBoxSampler

    rng1 = np.random.default_rng(np.random.SeedSequence((spec.seed, 2, 0)))
    full = UniformBoxSampler(spec.model.box).sample(spec.n_grid[-1], rng1).points
    rng2 = np.random.default_rng(np.random.SeedSequence((spec.seed, 2, 0)))
    again = UniformBoxSampler(spec.model.box).sample(spec.n_grid[-1], rng2).points
    assert np.array_equal(full[: spec.n_grid[0]], again[: spec.n_grid[0]])


def test_run_convergence_kmeans_partition():
    result = run_convergence(tiny_spec(partition_kind="kmeans", trials=2))
    assert np.all(np.asarray(result.estimates["init_a"]) >= 0.0)


def test_run_convergence_independent_of_thread_count():
    spec = tiny_spec(trials=2)
    sequential = json_text(run_convergence(spec, threads=1).to_dict())
    pooled = json_text(run_convergence(spec, threads=2).to_dict())
    assert sequential == pooled


def test_run_convergence_runs_trials_through_the_ordered_pool(monkeypatch):
    calls = []

    def recording_map(fn, payloads, workers):
        calls.append((len(payloads), workers))
        return ordered_map(fn, payloads, workers)

    monkeypatch.setattr(experiments, "ordered_map", recording_map)
    spec = tiny_spec(trials=3, baseline_trials=2)
    pooled = json_text(run_convergence(spec, threads=1000).to_dict())
    assert calls == [(2, 1000), (3, 1000)]  # baseline trials, then study trials
    assert pooled == json_text(run_convergence(spec, threads=1).to_dict())
    assert multiprocessing.active_children() == []


def test_run_convergence_baseline_guard_leaves_no_worker():
    # the guard stops the study while baseline trials are still in the pool
    from dcinv.targets import NormalTarget

    spec = tiny_spec(target=NormalTarget(10.0, 0.01), baseline_trials=6)
    with pytest.raises(RuntimeError, match="diagnostic"):
        run_convergence(spec, threads=2)
    assert multiprocessing.active_children() == []


def test_run_convergence_baseline_guard():
    # an observed target far outside the predicted range must abort
    from dcinv.targets import NormalTarget

    spec = tiny_spec(target=NormalTarget(10.0, 0.01))
    with pytest.raises(RuntimeError, match="diagnostic"):
        run_convergence(spec)


def test_result_save_files(tmp_path):
    result = run_convergence(tiny_spec(trials=2))
    paths = result.save(tmp_path / "out")
    assert (tmp_path / "out" / "result.json").exists()
    surface_files = [p for p in paths if "surface_" in str(p)]
    assert len(surface_files) == len(result.surfaces)
    with open(tmp_path / "out" / "result.json") as f:
        payload = json.load(f)
    assert payload["kind"] == "convergence_study"
    first = open(surface_files[0]).read().splitlines()
    assert first[0] == "n,p=5,p=12"
    assert first[1].startswith("200,")


def test_compare_methods_identity_case():
    model = HeatRod()
    target = heat_rod_observed()
    rows = compare_methods(model, target, n=300, m=2000, p=15, seed=3)
    by_name = {r["method"]: r for r in rows}
    assert set(by_name) == {"unweighted", "naive", "binning-grid", "binning-kmeans", "density"}
    # every reweighting improves on the unweighted push-forward in L2
    for name in ("naive", "binning-grid", "binning-kmeans", "density"):
        assert by_name[name]["l2"] < by_name["unweighted"]["l2"]
    # the naive fit is L2-optimal among weightings of the same samples
    for name in ("binning-grid", "binning-kmeans", "density"):
        assert by_name["naive"]["l2"] <= by_name[name]["l2"] + 1e-3
    assert by_name["density"]["diagnostic"] == pytest.approx(1.0, abs=0.15)
    assert by_name["naive"]["weight_variance"] > by_name["binning-grid"]["weight_variance"]


def test_compare_methods_rows_match_each_method_run_alone():
    # the shared metric block against the expressions each method's row used
    model, target = HeatRod(), heat_rod_observed()
    n, m, p, seed = 200, 1000, 10, 3
    rows = compare_methods(model, target, n, m, p, seed, methods=("density", "binning-grid", "naive"))
    by_name = {r["method"]: r for r in rows}
    rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
    initial = UniformBoxSampler(model.box).sample(n, rng)
    predicted = eval_qoi(model, initial.points)
    observed = target.sample(m, np.random.default_rng(np.random.SeedSequence((seed, 11))))
    naive = solve_naive(initial, predicted, target)
    binned = solve_binning(initial, predicted, target, ("grid", p), seed=seed, min_fill="none")
    density = solve_density(initial, predicted, observed)
    assert by_name["naive"]["weight_variance"] == float(np.var(naive.weights.weights))
    assert by_name["binning-grid"]["weight_variance"] == float(np.var(n * binned.weights.weights))
    assert by_name["density"]["weight_variance"] == float(np.var(n * density.weights.weights))
    assert by_name["naive"]["solver_residual"] == naive.qp_solution.kkt.stationarity_residual
    assert by_name["binning-grid"]["solver_residual"] == binned.qp_solution.kkt.stationarity_residual
    assert "solver_residual" not in by_name["density"]
    assert [list(r) for r in rows] == [
        ["method", "n", "m", "seed", "l2", "sup", "weight_variance", "diagnostic", "violations"],
        ["method", "n", "m", "seed", "l2", "sup", "l2_reps", "sup_reps", "weight_variance", "p",
         "solver_residual"],
        ["method", "n", "m", "seed", "l2", "sup", "weight_variance", "solver_residual"],
    ]


def test_compare_methods_subset_and_writer(tmp_path):
    model = HeatRod()
    rows = compare_methods(
        model, heat_rod_observed(), n=200, m=1000, p=10, seed=5,
        methods=("unweighted", "binning-grid"),
    )
    assert len(rows) == 2
    paths = write_comparison(rows, tmp_path)
    header = open(paths[0]).readline().strip().split(",")
    assert header[0] == "method"
    payload = json.load(open(paths[1]))
    assert payload[0]["method"] == "unweighted"


def reference_study_trial(spec, observed_pts, region_b, t):
    """Per-(n, p) trial loop that assembles and solves every QP afresh, in a
    data box padded by 1e-3 of its width; the trial must match it bit for bit."""
    model, n_grid, p_grid, seed = spec.model, spec.n_grid, spec.p_grid, spec.seed
    qp_target = EmpiricalTarget(SampleSet(observed_pts))
    box_a = BoxScaler(*np.asarray(spec.region_a).T)
    box_b = BoxScaler(*np.asarray(region_b).T)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2, t)))
    initial_full = UniformBoxSampler(model.box).sample(n_grid[-1], rng).points
    predicted_full = eval_qoi(model, initial_full)
    lo, hi = predicted_full.min(axis=0), predicted_full.max(axis=0)
    pad = 1e-3 * (hi - lo)
    box = BoxScaler(lo - pad, hi + pad)
    out = np.empty((3, len(n_grid), len(p_grid)))
    for i, n in enumerate(n_grid):
        lam, q = initial_full[:n], predicted_full[:n]
        for j, p in enumerate(p_grid):
            if spec.partition_kind == "grid":
                part = make_regular_grid(box, p)
            else:
                part = make_kmeans(q, p, seed=(seed * 1_000_003 + 7 * t) % 2**31)
            pts = np.clip(box.scale(part.reps.points), 0.0, 1.0)
            w = solve_isotonic(assemble_qp(pts, qp_target, box=box)).w
            u, w_floored, _ = distribute_cell_weights(w, part.classify_many(q), part.p,
                                                      strict=False)
            out[0, i, j] = np.sum(w_floored[box_b.contains(part.reps.points)]) / part.p
            out[1, i, j] = np.sum(u[box_b.contains(q)])
            out[2, i, j] = np.sum(u[box_a.contains(lam)])
    return out


@pytest.mark.parametrize("kind", ["grid", "kmeans"])
def test_study_trial_matches_per_cell_reference(kind, monkeypatch):
    spec = ConvergenceSpec(n_grid=(150, 400, 900), p_grid=(4, 9), seed=9,
                           region_a=((2.01, 2.02), (0.95, 1.0)), partition_kind=kind)
    observed = heat_rod_observed().sample(4000, np.random.default_rng(12)).points
    region_b = derive_image_region(spec.model, spec.region_a)
    calls = []
    monkeypatch.setattr(
        binning, "solve_isotonic",
        lambda problem, **kw: calls.append(1) or solve_isotonic(problem, **kw),
    )
    for t in range(2):
        calls.clear()
        out = experiments._study_trial(spec, observed, region_b, t)
        n_fits = len(spec.p_grid) * (1 if kind == "grid" else len(spec.n_grid))
        assert len(calls) == n_fits
        expected = reference_study_trial(spec, observed, region_b, t)
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))
