"""Reweighting an empirical distribution function, from first principles.

A step function built from weighted samples can approximate a target CDF in
the L2 sense. The optimal weights solve a small quadratic program whose
matrix and vector have closed forms on unit-box samples. This script works
through a two-sample instance small enough to check by hand, then a larger
fit to show the improvement over equal weights.
"""

import numpy as np

from dcinv import (
    BoxScaler,
    SampleSet,
    UniformTarget,
    WeightedEdf,
    assemble_qp,
    l2_distance,
    solve_qp,
    verify_kkt,
)

# --- a two-sample instance, checkable by hand -------------------------------

samples = np.array([[0.25], [0.75]])
target = UniformTarget(0.0, 1.0)
problem = assemble_qp(samples, target)

print("fitting matrix H:")
print(np.asarray(problem.h))  # [[0.1875, 0.0625], [0.0625, 0.0625]]
print("fitting vector b:", problem.b)  # [0.234375, 0.109375]

solution = solve_qp(problem)
print("optimal weights:", solution.w)  # all ones: the EDF of {0.25, 0.75}
                                       # is already the L2-best 2-step fit
report = verify_kkt(problem, solution.w)
print("KKT optimality:", report.passed,
      f"(stationarity {report.stationarity_residual:.1e})")

# --- a larger fit: normal target, 40 predicted samples ----------------------

rng = np.random.default_rng(0)
pts = rng.uniform(0.0, 0.98, size=(40, 1))

from dcinv import NormalTarget

target = NormalTarget(0.5, 0.15)
problem = assemble_qp(pts, target)
solution = solve_qp(problem)

box = BoxScaler([0.0], [1.0])
cdf = lambda q: target.cdf(q[:, 0])
plain = WeightedEdf.plain(SampleSet(pts))
fitted = WeightedEdf(SampleSet(pts), solution.weights)

print()
print(f"L2 distance to target, equal weights:   {l2_distance(plain, cdf, box):.4f}")
print(f"L2 distance to target, optimal weights: {l2_distance(fitted, cdf, box):.4f}")
print(f"weight range: [{solution.w.min():.3f}, {solution.w.max():.3f}], "
      f"{np.sum(solution.w == 0)} samples switched off")
