"""A target whose density is discontinuous: where EDF reweighting shines.

The observed distribution is a mixture of three uniform components on
adjacent slivers of the data space, so its density jumps at the component
boundaries. Kernel density estimation smears those jumps and the density
ratio inherits the error; the binning method fits the piecewise-linear CDF
directly and is an order of magnitude more accurate in sup-norm.

Expected output: binning push-forward error around 2e-3, density-method
error around 4e-2.
"""

import time
from functools import partial

import numpy as np

from dcinv import (
    UniformBoxSampler,
    draw_pairs,
    mixture_benchmark_model,
    mixture_benchmark_partition,
    mixture_benchmark_target,
    solve_binning,
    solve_density,
    sup_distance,
)

model = mixture_benchmark_model()
target = mixture_benchmark_target()
sampler = UniformBoxSampler(model.box)
n, m, seed = 20_000, 10_000, 7

print("observed mixture:", target.components)
print("benchmark partition: focused grid with",
      mixture_benchmark_partition().p, "cells")

kinks = np.array([[a] for _, a, _ in target.components] + [[target.components[-1][2]]])
cdf = lambda pts: target.cdf(pts[:, 0])

# --- binning method (with batch refill of thin cells) ------------------------

t0 = time.perf_counter()
# draw(k) returns k more (parameter, data) pairs; the fill loop calls it
draw = partial(draw_pairs, sampler, model, rng=np.random.default_rng(seed))
sol = solve_binning(*draw(n), target, mixture_benchmark_partition(), draw=draw)
err_binning = sup_distance(
    sol.pushforward(), cdf, sol.box, grid_per_dim=8192,
    extra_points=np.vstack([sol.predicted.points, kinks]),
)
print(f"binning: sup error {err_binning:.4f}  "
      f"(drew {sol.n} samples in {sol.n_batches} refill batches, "
      f"{time.perf_counter() - t0:.0f}s)")

# --- density method on the same budget ---------------------------------------

t0 = time.perf_counter()
rng = np.random.default_rng(seed)
initial, predicted = draw_pairs(sampler, model, n, rng)
observed = target.sample(m, rng)
dsol = solve_density(initial, predicted, observed)
pf = dsol.pushforward()
err_density = sup_distance(
    pf, cdf, sol.box, grid_per_dim=8192,
    extra_points=np.vstack([predicted, kinks]),
)
print(f"density: sup error {err_density:.4f}  "
      f"(diagnostic {dsol.diagnostic:.3f}, {time.perf_counter() - t0:.0f}s)")
print(f"binning is {err_density / err_binning:.0f}x more accurate on this target")
