import itertools

import numpy as np
import pytest

from dcinv.assembly import QpProblem, assemble_b_empirical, assemble_h, assemble_qp
from dcinv.core import BoxScaler, SampleSet, WeightedEdf
from dcinv.edf import l2_distance
from dcinv.solver import NonPositiveDefiniteError, solve_qp, verify_kkt
from dcinv.targets import EmpiricalTarget, NormalTarget, UniformTarget


def enumeration_oracle(problem):
    """Exhaustive KKT case enumeration over active-bound patterns.

    Solves the equality-constrained stationarity system for every pattern of
    variables fixed at zero, keeps patterns that are primal feasible with
    nonnegative bound multipliers, and returns the best. Independent of the
    active-set path: plain dense solves over all 2^l - 1 patterns.
    """
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
            nu = sol[f]
            if w.min() < -1e-10:
                continue
            mu = (h @ w - b) + nu / ell
            if zeros and np.min(mu[list(zeros)]) < -1e-10:
                continue
            obj = problem.objective(w)
            if obj < best_obj:
                best, best_obj = w, obj
    return best


def grid_oracle(problem, resolution=1e-3):
    """Dense simplex grid search (two-stage refinement for l = 4)."""
    h, b = problem.h, problem.b
    ell = problem.size

    def eval_chunk(w):
        return 0.5 * np.einsum("ij,jk,ik->i", w, h, w) - w @ b

    def search(lo, hi, steps):
        # grid over the first l-1 simplex coordinates of s = w / l
        axes = [np.linspace(lo[k], hi[k], steps) for k in range(ell - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        s = np.stack([m.ravel() for m in mesh], axis=1)
        last = 1.0 - s.sum(axis=1)
        ok = last >= -1e-12
        s = np.concatenate([s[ok], np.maximum(last[ok], 0.0)[:, None]], axis=1)
        vals = eval_chunk(ell * s)
        k = int(np.argmin(vals))
        return ell * s[k]

    if ell <= 3:
        steps = int(round(1.0 / resolution)) + 1
        return search(np.zeros(ell - 1), np.ones(ell - 1), steps)
    coarse = search(np.zeros(ell - 1), np.ones(ell - 1), 101)  # step 0.01
    s0 = coarse / ell
    lo = np.clip(s0[:-1] - 0.03, 0.0, 1.0)
    hi = np.clip(s0[:-1] + 0.03, 0.0, 1.0)
    steps = int(round((hi - lo).max() / resolution)) + 1
    return search(lo, hi, max(steps, 2))


def random_problem(rng, ell, d):
    pts = rng.uniform(0.0, 0.98, size=(ell, d))
    kind = rng.integers(0, 3)
    if kind == 0 and d == 1:
        target = UniformTarget(0.0, 1.0)
    elif kind == 1 and d == 1:
        target = NormalTarget(rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.4))
    else:
        target = EmpiricalTarget(rng.uniform(size=(int(rng.integers(3, 40)), d)))
    return assemble_qp(pts, target)


def test_identity_target_gives_all_ones():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 0.95, size=(40, 1))
    problem = QpProblem(assemble_h(pts), assemble_b_empirical(pts, pts))
    sol = solve_qp(problem)
    assert sol.converged
    assert np.max(np.abs(sol.w - 1.0)) < 1e-8


def test_uniform_target_two_samples_hand_optimum():
    # For predicted {0.25, 0.75} and target F(q) = q the interior optimum is
    # all ones (stationarity reduces to 0.25 w_1 = 0.25 on the constraint line).
    problem = assemble_qp(np.array([[0.25], [0.75]]), UniformTarget(0.0, 1.0))
    sol = solve_qp(problem)
    oracle = enumeration_oracle(problem)
    assert np.allclose(sol.w, oracle, atol=1e-6)
    assert np.allclose(sol.w, [1.0, 1.0], atol=1e-8)


def test_matches_enumeration_oracle_small():
    rng = np.random.default_rng(42)
    for _ in range(30):
        ell = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        problem = random_problem(rng, ell, d)
        sol = solve_qp(problem)
        oracle = enumeration_oracle(problem)
        assert oracle is not None
        assert np.max(np.abs(sol.w - oracle)) < 1e-6
        assert sol.kkt.passed


def test_matches_grid_oracle_l3():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem = random_problem(rng, 3, 1)
        sol = solve_qp(problem)
        oracle = grid_oracle(problem)
        assert np.max(np.abs(sol.w - oracle)) < 2e-3


def test_verify_kkt_pass_and_fail():
    problem = assemble_qp(np.array([[0.25], [0.75]]), UniformTarget(0.0, 1.0))
    sol = solve_qp(problem)
    assert verify_kkt(problem, sol.w, 1e-6).passed
    perturbed = sol.w + np.array([0.1, 0.0])
    perturbed *= 2.0 / perturbed.sum()
    assert not verify_kkt(problem, perturbed, 1e-6).passed


def test_verify_kkt_all_ones_identity():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 0.9, size=(10, 2))
    problem = QpProblem(assemble_h(pts), assemble_b_empirical(pts, pts))
    assert verify_kkt(problem, np.ones(10), 1e-6).passed


def test_uniqueness_across_initializations():
    rng = np.random.default_rng(15)
    for _ in range(10):
        problem = random_problem(rng, int(rng.integers(3, 8)), 1)
        sol1 = solve_qp(problem, tol=1e-9)
        w0 = rng.uniform(size=problem.size)
        sol2 = solve_qp(problem, tol=1e-9, w0=w0)
        assert np.max(np.abs(sol1.w - sol2.w)) < 1e-8


def test_solution_dominates_all_ones():
    rng = np.random.default_rng(29)
    for _ in range(20):
        problem = random_problem(rng, int(rng.integers(2, 12)), int(rng.integers(1, 3)))
        sol = solve_qp(problem)
        assert sol.objective <= problem.objective(np.ones(problem.size)) + 1e-12


def test_l2_improvement_over_unweighted():
    rng = np.random.default_rng(33)
    box = BoxScaler([0.0], [1.0])
    for _ in range(10):
        ell = int(rng.integers(3, 25))
        pts = rng.uniform(0.0, 0.97, size=(ell, 1))
        target = NormalTarget(rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.3))
        problem = assemble_qp(pts, target)
        sol = solve_qp(problem)
        samples = SampleSet(pts)
        cdf = lambda p: target.cdf(p[:, 0])
        d_solved = l2_distance(WeightedEdf(samples, sol.weights), cdf, box)
        d_plain = l2_distance(WeightedEdf.plain(samples), cdf, box)
        assert d_solved <= d_plain + 1e-6


def test_objective_does_not_increase_with_iteration_budget():
    rng = np.random.default_rng(51)
    problem = random_problem(rng, 30, 1)
    full = solve_qp(problem)
    assert full.iterations > 2
    objectives = np.array(
        [solve_qp(problem, max_iter=k).objective for k in range(1, full.iterations + 1)]
    )
    assert objectives[-1] == full.objective
    assert np.all(np.diff(objectives) <= 1e-12)


def test_non_positive_definite_reports_pivot():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular
    problem = QpProblem(h, np.zeros(2))
    with pytest.raises(NonPositiveDefiniteError) as err:
        solve_qp(problem)
    assert err.value.pivot == 1


def test_iteration_cap_flags_nonconvergence():
    rng = np.random.default_rng(77)
    problem = random_problem(rng, 40, 1)
    sol = solve_qp(problem, max_iter=1)
    full = solve_qp(problem)
    if full.iterations > 1:
        assert not sol.converged


def test_weights_are_clean():
    rng = np.random.default_rng(91)
    for _ in range(10):
        problem = random_problem(rng, 20, 1)
        sol = solve_qp(problem)
        assert sol.w.min() >= 0.0
        assert abs(sol.w.mean() - 1.0) < 1e-12


def test_projected_gradient_fallback_agrees():
    # the fallback is only reached through the cycle guard in production;
    # drive it directly and compare against the active-set optimum
    from dcinv.solver import _projected_gradient

    rng = np.random.default_rng(103)
    problem = random_problem(rng, 6, 1)
    reference = solve_qp(problem)
    # gradient-space residuals map to weight error through the conditioning,
    # so the fallback needs a much tighter tolerance for tight agreement
    w_pg, ok, its = _projected_gradient(
        problem, np.ones(problem.size), tol=1e-11, max_iter=2_000_000
    )
    assert ok
    assert np.max(np.abs(w_pg - reference.w)) < 1e-5
    # monotone descent: the objective after k steps does not increase with k
    budgets = [2**e for e in range(int(np.log2(its)) + 1)] + [its]
    objectives = np.array([
        problem.objective(_projected_gradient(problem, np.ones(problem.size), 1e-11, k)[0])
        for k in budgets
    ])
    assert np.all(np.diff(objectives) <= 1e-12)


def test_vertex_start_recovers_optimum():
    rng = np.random.default_rng(107)
    problem = random_problem(rng, 5, 1)
    reference = solve_qp(problem)
    w0 = np.zeros(5)
    w0[2] = 5.0  # a simplex vertex: all but one variable starts active
    sol = solve_qp(problem, w0=w0)
    assert sol.converged
    assert np.max(np.abs(sol.w - reference.w)) < 1e-7


def test_incremental_factor_matches_fresh_cholesky():
    # the active set updates a Cholesky factor of the free block in place;
    # drive it through random append/remove sequences and compare against
    # factorizing from scratch at every step
    from dcinv.solver import _FreeBlockFactor

    rng = np.random.default_rng(101)
    for _ in range(10):
        n = 30
        pts = rng.uniform(0.0, 0.95, size=(n, 2))
        h = assemble_h(pts)
        free = list(range(n))
        factor = _FreeBlockFactor(h, free)
        for _step in range(40):
            if len(factor.free) > 2 and (len(factor.free) == n or rng.random() < 0.6):
                factor.remove(int(rng.integers(len(factor.free))))
            else:
                outside = [j for j in range(n) if j not in factor.free]
                if not outside:
                    continue
                factor.append(int(rng.choice(outside)))
            fresh = np.linalg.cholesky(h[np.ix_(factor.free, factor.free)])
            assert np.allclose(factor.L, fresh, atol=1e-12)
            rhs = rng.normal(size=len(factor.free))
            direct = np.linalg.solve(h[np.ix_(factor.free, factor.free)], rhs)
            assert np.allclose(factor.solve(rhs), direct, atol=1e-8)


def test_affine_scaling_invariance():
    # scaling samples, box, and target by the same affine map leaves the
    # optimal weights unchanged
    from dcinv.assembly import assemble_qp as _assemble

    rng = np.random.default_rng(97)
    for _ in range(5):
        ell = int(rng.integers(3, 10))
        pts = rng.uniform(2.0, 3.0, size=(ell, 1))
        y = rng.uniform(2.0, 3.0, size=(25, 1))
        box1 = BoxScaler([1.9], [3.1])
        shift, scale = 5.0, 3.0
        box2 = BoxScaler([1.9 * scale + shift], [3.1 * scale + shift])
        prob1 = _assemble(box1.scale(pts), EmpiricalTarget(y), box=box1)
        prob2 = _assemble(
            box2.scale(pts * scale + shift), EmpiricalTarget(y * scale + shift), box=box2
        )
        w1 = solve_qp(prob1).w
        w2 = solve_qp(prob2).w
        assert np.max(np.abs(w1 - w2)) < 1e-6


@pytest.mark.parametrize("free", [range(40), [0, 2, 1] + list(range(3, 40)), range(1, 40)])
def test_initial_factor_bit_equal_to_gathered_block(free):
    # with every variable free in order the factor reads h itself, without
    # the gathered copy; the factor must not change by one bit
    from dcinv.solver import _FreeBlockFactor

    h = QpProblem(assemble_h(np.random.default_rng(7).uniform(0.0, 0.95, (40, 1))), np.zeros(40)).h
    factor = _FreeBlockFactor(h, free)
    fresh = np.linalg.cholesky(h[np.ix_(list(free), list(free))])
    assert np.array_equal(factor.L.view(np.int64), fresh.view(np.int64))


def test_initial_factor_reports_pivot_without_gather():
    from dcinv.solver import _FreeBlockFactor

    h = assemble_h(np.array([[0.1], [0.4], [0.4], [0.7]]))  # duplicate rows 1 and 2
    with pytest.raises(NonPositiveDefiniteError) as info:
        _FreeBlockFactor(h, range(4))
    assert info.value.pivot == 2
