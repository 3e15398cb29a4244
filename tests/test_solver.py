import itertools

import numpy as np
import pytest

from dcinv import solver
from dcinv.assembly import QpProblem, assemble_b_empirical, assemble_qp
from dcinv.core import BoxScaler, SampleSet, WeightedEdf
from dcinv.edf import l2_distance
from dcinv.solver import KKT_RTOL, NonPositiveDefiniteError, solve_isotonic, solve_qp, verify_kkt
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


def random_instance(rng, ell, d):
    """Unit-box samples and their QP against a random target."""
    pts = rng.uniform(0.0, 0.98, size=(ell, d))
    kind = rng.integers(0, 3)
    if kind == 0 and d == 1:
        target = UniformTarget(0.0, 1.0)
    elif kind == 1 and d == 1:
        target = NormalTarget(rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.4))
    else:
        target = EmpiricalTarget(rng.uniform(size=(int(rng.integers(3, 40)), d)))
    return pts, assemble_qp(pts, target)


def random_problem(rng, ell, d):
    return random_instance(rng, ell, d)[1]


# Both solvers of the fitting QP. The isotonic solver takes 1-D samples only.
SOLVERS = {"active-set": solve_qp, "isotonic": solve_isotonic}


def test_identity_target_gives_all_ones():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 0.95, size=(40, 1))
    problem = QpProblem(pts, assemble_b_empirical(pts, pts))
    sol = solve_qp(problem)
    assert sol.converged
    assert np.max(np.abs(sol.w - 1.0)) < 1e-8


@pytest.mark.parametrize("solver", SOLVERS)
def test_uniform_target_two_samples_hand_optimum(solver):
    # For predicted {0.25, 0.75} and target F(q) = q the interior optimum is
    # all ones (stationarity reduces to 0.25 w_1 = 0.25 on the constraint line).
    pts = np.array([[0.25], [0.75]])
    problem = assemble_qp(pts, UniformTarget(0.0, 1.0))
    sol = SOLVERS[solver](problem)
    oracle = enumeration_oracle(problem)
    assert np.allclose(sol.w, oracle, atol=1e-6)
    assert np.allclose(sol.w, [1.0, 1.0], atol=1e-8)


@pytest.mark.parametrize("solver", SOLVERS)
def test_matches_enumeration_oracle_small(solver):
    rng = np.random.default_rng(42)
    for _ in range(30):
        ell = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        pts, problem = random_instance(rng, ell, d)
        if solver == "isotonic" and d > 1:
            continue
        sol = SOLVERS[solver](problem)
        oracle = enumeration_oracle(problem)
        assert oracle is not None
        assert np.max(np.abs(sol.w - oracle)) < 1e-6
        assert sol.kkt.passed


@pytest.mark.parametrize("solver", SOLVERS)
def test_matches_grid_oracle_l3(solver):
    rng = np.random.default_rng(7)
    for _ in range(5):
        pts, problem = random_instance(rng, 3, 1)
        sol = SOLVERS[solver](problem)
        oracle = grid_oracle(problem)
        assert np.max(np.abs(sol.w - oracle)) < 2e-3


@pytest.mark.filterwarnings("ignore:.*duplicated sample")
def test_matches_enumeration_oracle_objective_d3():
    # half the instances repeat a row, which the jitter turns into a near
    # duplicate: H then has cond ~1e10, so the weights of any two solvers
    # differ by ~1e-6 while their objectives agree to rounding
    rng = np.random.default_rng(5)
    for _ in range(20):
        ell = int(rng.integers(2, 9))
        pts = rng.uniform(0.0, 0.98, size=(ell, 3))
        if rng.random() < 0.5:
            pts[rng.integers(ell)] = pts[rng.integers(ell)]
        problem = assemble_qp(pts, EmpiricalTarget(rng.uniform(size=(int(rng.integers(3, 40)), 3))))
        sol = solve_qp(problem)
        assert sol.converged
        assert abs(sol.objective - problem.objective(enumeration_oracle(problem))) <= 1e-15


def test_stationarity_is_scale_aware_at_l_400():
    # an absolute multiplier test (mu >= -1e-8) stops early here, with
    # relative stationarity 4.8e-7 and weights 1.4e-2 off the optimum
    rng = np.random.default_rng(400002)
    pts = rng.uniform(size=(400, 2))
    y = rng.beta(2, 5, size=(2000, 2))
    sol = solve_qp(assemble_qp(pts, EmpiricalTarget(y)))
    assert sol.converged
    assert max(sol.kkt.relative().values()) <= 1e-12


@pytest.mark.filterwarnings("ignore:.*duplicated sample")
@pytest.mark.parametrize("d", [1, 2])
def test_target_outside_the_box_converges(d):
    # every target sample lies above the box, so b = 0 and a multiplier
    # margin relative to |b|_inf alone is 0: on these jittered repeats
    # (cond(H) ~ 1e13) rounding-level signs then pivot until the round cap
    rng = np.random.default_rng(0)
    pool = rng.uniform(size=(25, d))
    problem = assemble_qp(pool[rng.integers(0, 25, size=80)], EmpiricalTarget(np.full((1, d), 1.5)))
    assert not problem.b.any()
    sol = solve_qp(problem)
    assert sol.converged and sol.iterations < 20
    assert all(np.isfinite(v) for v in sol.kkt.relative().values())


def test_verify_kkt_pass_and_fail():
    problem = assemble_qp(np.array([[0.25], [0.75]]), UniformTarget(0.0, 1.0))
    sol = solve_qp(problem)
    assert verify_kkt(problem, sol.w).passed
    perturbed = sol.w + np.array([0.1, 0.0])
    perturbed *= 2.0 / perturbed.sum()
    assert not verify_kkt(problem, perturbed).passed


def test_verify_kkt_all_ones_identity():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 0.9, size=(10, 2))
    problem = QpProblem(pts, assemble_b_empirical(pts, pts))
    assert verify_kkt(problem, np.ones(10)).passed


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


def test_non_positive_definite_reports_pivot():
    problem = QpProblem(np.zeros((2, 1)), np.zeros(2))  # duplicate points: H is singular
    with pytest.raises(NonPositiveDefiniteError) as err:
        solve_qp(problem)
    assert err.value.pivot == 1


def test_iteration_cap_flags_nonconvergence(monkeypatch):
    from dcinv import solver

    rng = np.random.default_rng(77)
    problem = random_problem(rng, 40, 1)
    full = solve_qp(problem)
    assert full.converged and full.iterations > 1
    monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
    capped = solve_qp(problem)
    assert capped.iterations == 1 and not capped.converged


def test_murty_rule_moves_one_variable_once_progress_stalls(monkeypatch):
    # With no rounds of grace, every round that does not cut the number of
    # sign violations moves only the largest violating index. On this
    # instance that takes 5 rounds where exchanging every violator takes 3;
    # both end at the enumerated optimum.
    from dcinv import solver

    rng = np.random.default_rng(447)
    ell, d = int(rng.integers(5, 11)), int(rng.integers(1, 3))
    pts = rng.uniform(0.0, 0.98, size=(ell, d))
    problem = assemble_qp(pts, EmpiricalTarget(rng.uniform(size=(int(rng.integers(3, 40)), d))))
    assert (ell, d) == (7, 2)
    monkeypatch.setattr(solver, "_BACKUP_ROUNDS", 0)
    sol = solve_qp(problem)
    assert sol.converged and sol.iterations == 5
    assert np.max(np.abs(sol.w - enumeration_oracle(problem))) < 1e-6


def test_weights_are_clean():
    rng = np.random.default_rng(91)
    for _ in range(10):
        problem = random_problem(rng, 20, 1)
        sol = solve_qp(problem)
        assert sol.w.min() >= 0.0
        assert abs(sol.w.mean() - 1.0) < 1e-12


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


def test_initial_factor_reports_pivot_without_gather():
    pts = np.array([[0.1], [0.4], [0.4], [0.7]])  # duplicate rows 1 and 2
    with pytest.raises(NonPositiveDefiniteError) as info:
        solve_qp(QpProblem(pts, np.zeros(4)))
    assert info.value.pivot == 2


def test_isotonic_single_sample_takes_all_weight():
    pts = np.array([[0.3]])
    sol = solve_isotonic(assemble_qp(pts, NormalTarget(0.5, 0.1)))
    assert sol.w.tolist() == [1.0]
    assert sol.converged and sol.method == "isotonic" and sol.iterations == 0


def test_isotonic_zero_gap_reports_the_dense_pivot():
    # samples 1 and 3 coincide; the dense factorization fails at row 3 too
    pts = np.array([[0.6], [0.2], [0.9], [0.2]])
    problem = QpProblem(pts, assemble_b_empirical(pts, pts))
    with pytest.raises(NonPositiveDefiniteError) as iso:
        solve_isotonic(problem)
    with pytest.raises(NonPositiveDefiniteError) as dense:
        solve_qp(problem)
    assert iso.value.pivot == dense.value.pivot == 3


def test_isotonic_rejects_samples_of_two_dimensions():
    pts = np.array([[0.1, 0.5], [0.6, 0.2]])
    with pytest.raises(ValueError, match="1-D"):
        solve_isotonic(QpProblem(pts, np.zeros(2)))


def test_isotonic_counts_pool_merges():
    # gap means m_k = l (b_k - b_(k+1)) / gap_k = (0.1, 0.05, 0.15): the
    # first two decrease, so they must pool into one block
    pts = np.array([[0.1], [0.2], [0.3], [0.4]])
    problem = QpProblem(pts, np.array([0.03, 0.02, 0.015, 0.0]) / 4)
    sol = solve_isotonic(problem)
    assert sol.iterations == 1
    assert sol.kkt.passed
    reference = solve_qp(problem)
    assert np.max(np.abs(sol.w - reference.w)) < 1e-8


def shift_support_weight(problem, w, rel):
    """``w`` with weight moved between its lowest and highest support samples
    until the gradient's spread over the support is ``rel`` times the
    certificate's scale: moving eps shifts the gradient by eps H (e_i - e_j),
    and the reconstructed multiplier cannot absorb that spread."""
    pts = problem.points[:, 0]
    support = np.nonzero(w > 0.5)[0]
    i, j = support[np.argmin(pts[support])], support[np.argmax(pts[support])]
    direction = np.zeros(problem.size)
    direction[i], direction[j] = 1.0, -1.0
    shift = problem.h @ direction
    spread = np.max(np.abs(shift[support] - shift[support].mean()))
    eps = rel * verify_kkt(problem, w).scale / spread
    assert eps < w[j]  # the perturbed point stays feasible
    return w + eps * direction


def test_certificate_passes_at_the_isotonic_point_and_fails_beyond_its_tolerance(monkeypatch):
    """The certificate must pass while the stationarity shift is well below
    ``KKT_RTOL`` times its scale and fail once it is well above it."""
    rng = np.random.default_rng(61)
    pts = rng.uniform(0.0, 0.99, size=(50, 1))
    problem = assemble_qp(pts, NormalTarget(0.5, 0.1))
    sol = solve_isotonic(problem)
    assert sol.converged and sol.kkt.passed
    assert sol.kkt.b_scale == np.abs(problem.b).max()
    rel = sol.kkt.relative()
    assert set(rel) == {"stationarity", "feasibility", "complementarity"}
    assert max(rel.values()) <= 1e-10
    # converged is the certificate's verdict: below the rounding level it fails
    with monkeypatch.context() as m:
        m.setattr(solver, "KKT_RTOL", 1e-30)
        strict = solve_isotonic(problem)
        assert not strict.kkt.passed and not strict.converged
    for factor, passes in ((0.01, True), (100.0, False)):
        perturbed = shift_support_weight(problem, sol.w, factor * KKT_RTOL)
        assert verify_kkt(problem, perturbed).passed is passes


@pytest.mark.parametrize("ell", [50, 5000])
def test_certificate_is_scale_aware(ell):
    # |b|_inf falls like 1/l, so an absolute bound of 1e-8 would pass a
    # relative stationarity of 100 KKT_RTOL at l = 5000
    rng = np.random.default_rng(ell)
    problem = assemble_qp(rng.uniform(size=(ell, 1)), EmpiricalTarget(rng.beta(2, 5, size=(400, 1))))
    sol = solve_isotonic(problem)
    assert sol.converged
    for factor, passes in ((0.01, True), (100.0, False)):
        perturbed = shift_support_weight(problem, sol.w, factor * KKT_RTOL)
        assert verify_kkt(problem, perturbed).passed is passes


@pytest.mark.filterwarnings("ignore:.*duplicated sample")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_fit_weights_jitters_repeats_before_assembly(d):
    # assemble_qp jitters repeats before it assembles anything, and the
    # problem holds the jittered points: jittering them beforehand gives bit
    # for bit the same QP, and fit_weights returns that QP's solution
    from dcinv.assembly import dedupe_jitter
    from dcinv.binning import fit_weights

    rng = np.random.default_rng(d)
    points = rng.normal(3.0, 1.0, size=(30, d))
    points[10:15] = points[:5]  # five repeated rows
    box = BoxScaler(points.min(axis=0) - 0.01, points.max(axis=0) + 0.01)
    target = EmpiricalTarget(rng.normal(3.0, 1.0, size=(40, d)))
    clipped = np.clip(box.scale(points), 0.0, 1.0)
    inside = assemble_qp(clipped, target, box=box)
    jittered = dedupe_jitter(clipped)
    before = assemble_qp(jittered, target, box=box)
    assert np.array_equal(before.h.view(np.int64), inside.h.view(np.int64))
    assert np.array_equal(before.b.view(np.int64), inside.b.view(np.int64))
    assert np.array_equal(inside.points.view(np.int64), jittered.view(np.int64))
    sol = fit_weights(points, target, box)
    assert sol.converged
    if d == 1:
        expected = solve_isotonic(inside)
    else:
        expected = solve_qp(inside)
    assert sol.method == expected.method == ("isotonic" if d == 1 else "active-set")
    assert np.array_equal(sol.w.view(np.int64), expected.w.view(np.int64))
