"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers. Run with ``pytest tests/test_acceptance.py -v -s``.

Oracles are independent of the code paths they check: exhaustive KKT-case
enumeration and simplex grid search for the QP; midpoint quadrature over the
assembly integrals' own domains; binomial statistics for samplers. Budgets
are wall-clock ceilings, generous on purpose (the suite runs far below
them), so a pathological regression still fails loudly.
"""

import itertools
import json
import os
import time
from functools import partial

import numpy as np
import pytest

from dcinv.assembly import assemble_b_empirical, assemble_h, assemble_qp, QpProblem
from dcinv.binning import make_kmeans, make_regular_grid, solve_binning, solve_naive
from dcinv.cli import main
from dcinv.core import BoxScaler, Normalization, SampleSet, WeightedEdf, WeightVector
from dcinv.edf import l2_distance, sup_distance, wedf_eval_many
from dcinv.experiments import ConvergenceSpec, run_convergence
from dcinv.density import solve_density
from dcinv.models import (
    HeatRod,
    UniformBoxSampler,
    draw_pairs,
    heat_rod_observed,
    heat_rod_violation_observed,
    mixture_benchmark_model,
    mixture_benchmark_partition,
    mixture_benchmark_target,
)
from dcinv.solver import solve_qp, verify_kkt
from dcinv.targets import EmpiricalTarget, NormalTarget, UniformTarget


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def live_draw(model, sampler, seed):
    """The draw callable of a live model: one stream from ``default_rng(seed)``."""
    return partial(draw_pairs, sampler, model, rng=np.random.default_rng(seed))


# --- criterion 1 ------------------------------------------------------------


def _enumeration_oracle(problem):
    h, b = problem.h, problem.b
    ell = problem.size
    best, best_obj = None, np.inf
    for r in range(ell):
        for zeros in itertools.combinations(range(ell), r):
            free = [i for i in range(ell) if i not in zeros]
            f = len(free)
            kkt = np.zeros((f + 1, f + 1))
            kkt[:f, :f] = h[np.ix_(free, free)]
            kkt[:f, f] = 1.0 / ell
            kkt[f, :f] = 1.0
            rhs = np.concatenate([b[free], [float(ell)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            w = np.zeros(ell)
            w[free] = sol[:f]
            if w.min() < -1e-10:
                continue
            mu = (h @ w - b) + sol[f] / ell
            if zeros and np.min(mu[list(zeros)]) < -1e-10:
                continue
            obj = problem.objective(w)
            if obj < best_obj:
                best, best_obj = w, obj
    return best


def _simplex_grid_oracle(problem):
    """Staged dense grid search over the simplex, final resolution 1e-3 in w.

    The objective is strictly convex, so refining a window several parent
    steps wide around each stage's incumbent retains the global optimum.
    """
    h, b = problem.h, problem.b
    ell = problem.size

    def best_on(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        s = np.stack([m.ravel() for m in mesh], axis=1)
        last = 1.0 - s.sum(axis=1)
        ok = last >= -1e-12
        s = np.concatenate([s[ok], np.maximum(last[ok], 0.0)[:, None]], axis=1)
        w = ell * s
        vals = 0.5 * np.einsum("ij,jk,ik->i", w, h, w) - w @ b
        return w[int(np.argmin(vals))]

    incumbent = best_on([np.linspace(0.0, 1.0, 101)] * (ell - 1))
    # steps in s = w / l units; the last stage is 1e-3 / l, i.e. 1e-3 in w
    for step, halfwidth in ((1e-3, 0.025), (2.5e-4 if ell == 4 else 1e-3 / ell, 2.5e-3)):
        s0 = incumbent / ell
        lo = np.clip(s0[:-1] - halfwidth, 0.0, 1.0)
        hi = np.clip(s0[:-1] + halfwidth, 0.0, 1.0)
        axes = [
            np.linspace(lo[k], hi[k], int(round((hi[k] - lo[k]) / step)) + 1)
            for k in range(ell - 1)
        ]
        incumbent = best_on(axes)
    return incumbent


def _random_instance(rng, ell, d):
    pts = rng.uniform(0.0, 0.98, size=(ell, d))
    kind = int(rng.integers(0, 3))
    if kind == 0 and d == 1:
        target = UniformTarget(0.0, 1.0)
    elif kind == 1 and d == 1:
        target = NormalTarget(rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.4))
    else:
        target = EmpiricalTarget(rng.uniform(size=(int(rng.integers(3, 50)), d)))
    return assemble_qp(pts, target)


def test_criterion_1_qp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026_01)
    worst_dev, worst_kkt = 0.0, 0.0
    for i in range(50):
        ell = int(rng.choice([2, 3, 4]))
        d = int(rng.choice([1, 2]))
        problem = _random_instance(rng, ell, d)
        sol = solve_qp(problem)
        if ell <= 3:
            oracle = _enumeration_oracle(problem)
        else:
            oracle = _simplex_grid_oracle(problem)
        dev = float(np.max(np.abs(sol.w - oracle)))
        kkt = max(
            sol.kkt.stationarity_residual,
            sol.kkt.feasibility_residual,
            sol.kkt.complementarity_residual,
        )
        assert dev < 2e-3, f"instance {i} (l={ell}, d={d}): deviation {dev}"
        assert kkt <= 1e-8, f"instance {i}: KKT residual {kkt}"
        worst_dev = max(worst_dev, dev)
        worst_kkt = max(worst_kkt, kkt)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(1, f"50 instances, worst |w - oracle| {worst_dev:.2e}, "
              f"worst KKT {worst_kkt:.1e}, {elapsed:.1f}s")


# --- criterion 2 ------------------------------------------------------------


def _midpoint_axis(z, n):
    return z + (np.arange(n) + 0.5) * (1.0 - z) / n


def _oracle_h(q, n_per_dim):
    ell, d = q.shape
    h = np.empty((ell, ell))
    for i in range(ell):
        for j in range(ell):
            val = 1.0
            for k in range(d):
                z = max(q[i, k], q[j, k])
                val *= (1.0 - z) / n_per_dim * n_per_dim  # midpoint of a constant
            h[i, j] = val / ell**2
    return h


def _oracle_b_empirical(q, y, n_per_dim):
    """Midpoint quadrature of the target-EDF integral over [q^i, 1].

    The EDF summed over a tensor midpoint grid factorizes per target sample
    into per-dimension counts of grid points at or above the sample, so the
    sum is computed exactly (to the midpoint rule) by searchsorted counting.
    """
    ell, d = q.shape
    m = y.shape[0]
    b = np.empty(ell)
    for i in range(ell):
        counts = np.ones(m)
        cell = 1.0
        for k in range(d):
            axis = _midpoint_axis(q[i, k], n_per_dim)
            counts = counts * (n_per_dim - np.searchsorted(axis, y[:, k], side="left"))
            cell *= (1.0 - q[i, k]) / n_per_dim
        b[i] = float(np.sum(counts)) / m * cell / ell
    return b


def test_criterion_2_assembly_vs_quadrature():
    # The midpoint oracle's own error on the d=2 step-function integrand is
    # ~h/sqrt(6 m) per entry at grid spacing h, so resolving 1e-6 at the
    # stated 1e3 points per dimension needs m in the tens of thousands; the
    # instances use m large enough that the oracle itself is sharper than
    # the tolerance.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026_02)
    worst = 0.0
    for i in range(20):
        d = 1 if i % 2 == 0 else 2
        ell = int(rng.integers(2, 6))
        m = int(rng.integers(20_000, 40_000)) if d == 1 else int(rng.integers(150_000, 250_000))
        q = rng.uniform(0.0, 0.98, size=(ell, d))
        y = rng.uniform(size=(m, d))
        n_per_dim = 100_000 if d == 1 else 1000
        dev_h = float(np.max(np.abs(assemble_h(q) - _oracle_h(q, n_per_dim))))
        dev_b = float(
            np.max(np.abs(assemble_b_empirical(q, y) - _oracle_b_empirical(q, y, n_per_dim)))
        )
        assert dev_h < 1e-6, f"instance {i}: H deviation {dev_h}"
        assert dev_b < 1e-6, f"instance {i}: b deviation {dev_b}"
        worst = max(worst, dev_h, dev_b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(2, f"20 instances, worst deviation {worst:.2e}, {elapsed:.1f}s")


# --- criterion 3 ------------------------------------------------------------


def test_criterion_3_identity_case_all_ones():
    rng = np.random.default_rng(2026_03)
    worst = 0.0
    for ell, d in ((5, 1), (50, 2), (200, 1), (200, 2)):
        pts = rng.uniform(0.0, 0.97, size=(ell, d))
        problem = QpProblem(pts, assemble_b_empirical(pts, pts))
        sol = solve_qp(problem)
        dev = float(np.max(np.abs(sol.w - 1.0)))
        assert dev < 1e-6, f"l={ell}, d={d}: deviation {dev}"
        worst = max(worst, dev)
    report(3, f"l up to 200, worst |w - 1| {worst:.2e}")


# --- criterion 4 ------------------------------------------------------------


def _check_binning_structure(sol):
    u = sol.weights.weights
    w = sol.cell_weights.weights
    assert abs(u.sum() - 1.0) <= 1e-8
    agg_dev = 0.0
    for k in range(sol.p):
        in_cell = u[sol.assignments == k]
        if in_cell.size:
            assert np.ptp(in_cell) == 0.0  # shared weight, exactly
            agg_dev = max(agg_dev, abs(in_cell.sum() - w[k] / sol.p))
        else:
            assert w[k] == 0.0 or sol.counts[k] == 0
    assert agg_dev <= 1e-10
    return abs(u.sum() - 1.0), agg_dev


def test_criterion_4_binning_structure():
    model = HeatRod()
    sampler = UniformBoxSampler(model.box)
    target = heat_rod_observed()
    draws = [live_draw(model, sampler, seed) for seed in (1, 2)]
    draws.append(live_draw(mixture_benchmark_model(), sampler, 3))
    runs = [
        solve_binning(*draws[0](1500), target, ("grid", 25), draw=draws[0], seed=1),
        solve_binning(*draws[1](2000), target, ("kmeans", 40), draw=draws[1], seed=2),
        solve_binning(
            *draws[2](3000), mixture_benchmark_target(), ("kmeans", 60), draw=draws[2], seed=3,
        ),
    ]
    worst_sum, worst_agg = 0.0, 0.0
    for sol in runs:
        dev_sum, dev_agg = _check_binning_structure(sol)
        worst_sum = max(worst_sum, dev_sum)
        worst_agg = max(worst_agg, dev_agg)
    report(4, f"{len(runs)} runs, |sum u - 1| <= {worst_sum:.1e}, "
              f"aggregation deviation <= {worst_agg:.1e}")


# --- criterion 5 ------------------------------------------------------------


def test_criterion_5_diagnostic_behavior():
    t0 = time.perf_counter()
    model = HeatRod()
    sampler = UniformBoxSampler(model.box)
    n, m = 2000, 10_000
    rng = np.random.default_rng(np.random.SeedSequence((2026_05, 0)))
    initial = sampler.sample(n, rng)
    predicted = SampleSet(model.qoi(initial.points)[:, None])

    obs_rng = np.random.default_rng(np.random.SeedSequence((2026_05, 1)))
    observed = heat_rod_observed().sample(m, obs_rng)
    healthy = solve_density(initial, predicted, observed).diagnostic
    assert 0.9 <= healthy <= 1.1, f"healthy diagnostic {healthy}"

    violation_target = heat_rod_violation_observed()
    q = predicted.points[:, 0]
    mass_outside = 1.0 - float(
        violation_target.cdf(np.array([q.max()]))[0]
        - violation_target.cdf(np.array([q.min()]))[0]
    )
    assert mass_outside >= 0.4, f"violation target only {mass_outside:.2f} outside"
    observed_v = violation_target.sample(m, np.random.default_rng(np.random.SeedSequence((2026_05, 2))))
    violated = solve_density(initial, predicted, observed_v).diagnostic
    assert violated < 0.9, f"violation diagnostic {violated}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(5, f"healthy {healthy:.4f} in [0.9, 1.1], violation {violated:.4f} < 0.9 "
              f"({mass_outside:.0%} mass outside), {elapsed:.1f}s")


# --- criterion 6 ------------------------------------------------------------


def test_criterion_6_mixture_superiority():
    t0 = time.perf_counter()
    model = mixture_benchmark_model()
    target = mixture_benchmark_target()
    sampler = UniformBoxSampler(model.box)
    n, m, seed = 20_000, 10_000, 2026_06
    kinks = np.array([[a] for _, a, _ in target.components] + [[target.components[-1][2]]])

    draw = live_draw(model, sampler, seed)
    sol = solve_binning(*draw(n), target, mixture_benchmark_partition(), draw=draw, seed=seed)
    cdf = lambda pts: target.cdf(pts[:, 0])
    err_binning = sup_distance(
        sol.pushforward(), cdf, sol.box, grid_per_dim=8192,
        extra_points=np.vstack([sol.predicted.points, kinks]),
    )

    rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
    initial = sampler.sample(n, rng)
    predicted = SampleSet(model.qoi(initial.points)[:, None])
    observed = target.sample(m, np.random.default_rng(np.random.SeedSequence((seed, 11))))
    dsol = solve_density(initial, predicted, observed)
    pf_density = dsol.pushforward()
    err_density = sup_distance(
        pf_density, cdf, sol.box, grid_per_dim=8192,
        extra_points=np.vstack([predicted.points, kinks]),
    )

    assert err_binning <= 0.01, f"binning sup error {err_binning}"
    assert err_binning < err_density, (
        f"binning {err_binning} not below density {err_density}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    report(6, f"binning sup {err_binning:.4f} <= 0.01 < density sup {err_density:.4f}, "
              f"{elapsed:.0f}s")


# --- criterion 7 ------------------------------------------------------------


def test_criterion_7_convergence_trends():
    t0 = time.perf_counter()
    spec = ConvergenceSpec(
        n_grid=(1000, 3000, 10_000),
        p_grid=(20, 60, 160),
        trials=20,
        seed=2026_07,
        m_observed=100_000,
        baseline_n=100_000,
        baseline_trials=10,
    )
    result = run_convergence(spec)
    err_b = np.asarray(result.surfaces["abs_err_pred_b"])
    err_a = np.asarray(result.surfaces["abs_err_init_a"])
    std_a = np.asarray(result.surfaces["std_init_a"])
    assert err_b[-1, -1] < err_b[0, 0], f"pred_b error corners {err_b[-1,-1]} vs {err_b[0,0]}"
    assert err_a[-1, -1] < err_a[0, 0], f"init_a error corners {err_a[-1,-1]} vs {err_a[0,0]}"
    for j in range(len(spec.p_grid)):
        assert std_a[-1, j] < std_a[0, j], (
            f"std init_a at p={spec.p_grid[j]}: {std_a[-1,j]} vs {std_a[0,j]}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30min"
    report(7, f"err_b {err_b[0,0]:.4f}->{err_b[-1,-1]:.4f}, "
              f"err_a {err_a[0,0]:.4f}->{err_a[-1,-1]:.4f}, "
              f"std_a rows shrink for all p, {elapsed:.0f}s")


# --- criterion 8 ------------------------------------------------------------


def test_criterion_8_naive_vs_binning():
    model = HeatRod()
    sampler = UniformBoxSampler(model.box)
    target = heat_rod_observed()
    n, seed = 500, 2026_08
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    initial, predicted = draw_pairs(sampler, model, n, rng)
    naive = solve_naive(initial, predicted, target)
    binned = solve_binning(initial, predicted, target, ("grid", 30), seed=seed, min_fill="none")
    var_naive = float(np.var(naive.weights.weights))
    var_binned = float(np.var(n * binned.weights.weights))
    assert var_naive > var_binned, f"{var_naive} vs {var_binned}"

    box = naive.box
    cdf = lambda pts: target.cdf(pts[:, 0])
    l2_naive = l2_distance(naive.pushforward(), cdf, box, 2048)
    l2_binned = l2_distance(binned.pushforward(), cdf, box, 2048)
    assert l2_naive <= l2_binned + 1e-3, f"{l2_naive} vs {l2_binned}"
    report(8, f"weight variance {var_naive:.3f} > {var_binned:.3f}; "
              f"L2 {l2_naive:.5f} <= {l2_binned:.5f} + 1e-3")


# --- criterion 9 ------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "seed": 99,
        "model": {"kind": "heat_rod"},
        "initial": {"kind": "uniform", "n": 500},
        "target": {"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": 4000},
        "method": {"p": 25, "min_fill": "none"},
        "output": {"pushforward_grid": 128},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    spec = {
        "seed": 4, "n_grid": [200, 400], "p_grid": [5, 10], "trials": 2,
        "m_observed": 2000, "baseline_n": 2000, "baseline_trials": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    checked = 0
    for method in ("naive", "binning-grid", "density"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{method}_{tag}"
            assert main(["solve", "--method", method, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("weights.csv", "pushforward.csv"):
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"{method}/{name} differs between runs"
            checked += 1
        m1 = json.loads((outs[0] / "meta.json").read_text())
        m2 = json.loads((outs[1] / "meta.json").read_text())
        m1.pop("timing"), m2.pop("timing")
        assert m1 == m2

    for tag in ("a", "b"):
        assert main(["convergence", "--spec", str(spec_path),
                     "--out", str(tmp_path / f"conv_{tag}")]) == 0
    for name in os.listdir(tmp_path / "conv_a"):
        if name == "meta.json":
            continue
        b1 = (tmp_path / "conv_a" / name).read_bytes()
        b2 = (tmp_path / "conv_b" / name).read_bytes()
        assert b1 == b2, f"convergence/{name} differs between runs"
        checked += 1
    report(9, f"{checked} result files byte-identical across repeated runs")


# --- criterion 10 -----------------------------------------------------------


def test_criterion_10_property_suite():
    rng = np.random.default_rng(2026_10)
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-2.0, 2.0, size=(n, d))
        if rng.integers(0, 2):
            w = rng.uniform(size=n)
            wv = WeightVector(w / w.mean(), Normalization.MEAN_ONE)
        else:
            w = rng.uniform(size=n)
            wv = WeightVector(w / w.sum(), Normalization.SUM_ONE)
        wedf = WeightedEdf(SampleSet(pts), wv)
        x = rng.uniform(-2.5, 2.5, size=d)
        y = x + rng.uniform(0.0, 1.0, size=d)
        fx, fy = wedf_eval_many(wedf, np.vstack([x, y]))
        assert fx <= fy + 1e-12
        top = wedf_eval_many(wedf, pts.max(axis=0)[None, :])[0]
        assert abs(top - 1.0) <= 1e-8

    grid = make_regular_grid(BoxScaler([0.0, 0.0], [1.0, 2.0]), (7, 11))
    km = make_kmeans(rng.uniform(size=(500, 2)), p=23, seed=5)
    for part in (grid, km):
        pts = rng.normal(0.5, 3.0, size=(1000, 2))
        idx = part.classify_many(pts)
        assert idx.shape == (1000,)
        assert idx.min() >= 0 and idx.max() < part.p
    report(10, "1000 weighted EDFs monotone with mass one; "
               "1000 classify calls per partition kind total and in range")
