"""Built-in benchmark forward map and samplers.

The benchmark quantity of interest is the temperature of a heated metal rod
read by a single sensor at position ``x_star`` and time ``t_star``. The rod
has uncertain length and thermal diffusivity, lambda = (ell, kappa), with
Lambda = [1.9, 2.1] x [0.5, 1.5] by default.

Two series variants are available. The default evaluates the closed-form
series exactly as commonly printed for this benchmark,

    u(x, t) = (2 ell^2 / pi) sum_k ((-1)^{k+1} / k) exp(-kappa k pi t / ell^2)
              sin(k pi x / ell),

truncated after ``truncation`` terms. The separation-of-variables solution of
u_t = kappa u_xx with u(x, 0) = x has prefactor 2 ell / pi and exponent
-kappa (k pi / ell)^2 t instead; ``standard_physics=True`` switches to that
form. The two give very different output ranges, so benchmark targets must be
calibrated against the variant actually used (see ``heat_rod_observed``).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import BoxScaler, SampleSet, as_box, as_points, exp_or_zero
from .targets import MixtureOfUniforms, NormalTarget

DEFAULT_LAMBDA_BOX = ((1.9, 2.1), (0.5, 1.5))

# Observed-distribution defaults for the rod benchmark with the default
# (printed-series) map, whose push-forward of the uniform initial
# distribution ranges over about [2.263, 2.529] with mean 2.386 and standard
# deviation 0.071. The observed normal below sits well inside that support
# (mass outside is ~1.8e-4), so the predictability diagnostic is ~1.
HEAT_ROD_OBSERVED_MU = 2.39
HEAT_ROD_OBSERVED_SIGMA = 0.035
# Shifting the observed mean to the upper edge of the predicted range puts
# half of the observed mass outside the predicted support.
HEAT_ROD_VIOLATION_MU = 2.529


@dataclass(frozen=True)
class HeatRod:
    """Rod-temperature QoI map; see module docstring for the two variants."""

    x_star: float = 1.2
    t_star: float = 0.01
    truncation: int = 100
    lambda_box: tuple = DEFAULT_LAMBDA_BOX
    standard_physics: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lambda_box", tuple(tuple(map(float, b)) for b in self.lambda_box))
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
        ell_min = self.lambda_box[0][0]
        if not 0 < self.x_star < ell_min:
            raise ValueError(
                f"sensor position {self.x_star} must lie inside every rod "
                f"(0 < x_star < {ell_min})"
            )
        if self.t_star < 0:
            raise ValueError(f"t_star must be nonnegative, got {self.t_star}")

    @property
    def box(self):
        return as_box(self.lambda_box)

    def qoi(self, lam):
        """Evaluate the sensor temperature for each (ell, kappa) row of ``lam``.

        Zero-tail cut: once ``decay`` underflows to exactly 0.0 in every
        column, the remaining terms are all +-0.0, so the series stops at
        the last row of ``decay`` with a nonzero entry and ``sin`` is never
        evaluated past it. The cut is exact. The sum over k adds its terms
        in k order, and adding a signed zero (or the NaN of a ``sin`` that
        overflowed, which only occurs where every ``decay`` of the column
        is 0.0) can change a partial sum only when that sum is itself +-0.0;
        if any cut sum is zero, the full series is summed instead. With
        ``standard_physics=True`` and ``t_star = 0.3`` every row from
        k ~ 48 underflows; the printed series at the default ``t_star``
        never does. ``decay`` comes from ``exp_or_zero``, which writes the
        underflowed entries as +0.0 without paying for np.exp's slow lanes.
        """
        pts = as_points(lam)
        if pts.shape[1] != 2:
            raise ValueError(f"rod parameters are 2-D (ell, kappa), got dim {pts.shape[1]}")
        box = self.box
        if not np.all(box.contains(pts)):
            n_out = int(np.sum(~box.contains(pts)))
            warnings.warn(
                f"{n_out} parameter sample(s) outside Lambda; evaluating anyway",
                stacklevel=2,
            )
        ell = pts[:, 0]
        kappa = pts[:, 1]
        k = np.arange(1, self.truncation + 1)[:, None]
        if self.standard_physics:
            decay = exp_or_zero(-kappa[None, :] * (k * np.pi / ell[None, :]) ** 2 * self.t_star)
            prefactor = 2.0 * ell / np.pi
        else:
            decay = exp_or_zero(-kappa[None, :] * k * np.pi * self.t_star / ell[None, :] ** 2)
            prefactor = 2.0 * ell**2 / np.pi
        nonzero_rows = np.flatnonzero(decay.any(axis=1))
        rows = nonzero_rows[-1] + 1 if nonzero_rows.size else self.truncation
        series = self._series(k[:rows], decay[:rows], ell)
        if rows < self.truncation and not series.all():
            series = self._series(k, decay, ell)
        return prefactor * series

    def _series(self, k, decay, ell):
        signs = (-1.0) ** (k + 1) / k
        return np.sum(signs * decay * np.sin(k * np.pi * self.x_star / ell[None, :]), axis=0)

    def __call__(self, lam):
        return self.qoi(lam)


def heat_rod_observed():
    """Documented default observed distribution for the rod benchmark."""
    return NormalTarget(HEAT_ROD_OBSERVED_MU, HEAT_ROD_OBSERVED_SIGMA)


def heat_rod_violation_observed():
    """Observed distribution calibrated to violate predictability.

    About half of its mass lies above the predicted range of the default
    map, so the diagnostic drops to ~0.5 instead of ~1.
    """
    return NormalTarget(HEAT_ROD_VIOLATION_MU, HEAT_ROD_OBSERVED_SIGMA)


def mixture_benchmark_model():
    """Rod map variant for the mixture-of-uniforms benchmark.

    The textbook-physics series with a later read time pushes the uniform
    initial distribution onto roughly [0.33, 0.99], which covers the
    benchmark mixture support (0.585, 0.6] with usable density (~2 near
    0.59) and genuine two-parameter contour structure.
    """
    return HeatRod(t_star=0.3, standard_physics=True)


def mixture_benchmark_target():
    """The piecewise-uniform observed distribution of the mixture benchmark."""
    return MixtureOfUniforms(
        components=((0.5, 0.585, 0.59), (0.1, 0.59, 0.595), (0.4, 0.595, 0.6))
    )


MIXTURE_BENCHMARK_PARTITION_BOX = (0.575, 0.61)
MIXTURE_BENCHMARK_CELLS = 400


def mixture_benchmark_partition():
    """Regular grid focused on the mixture target's support region.

    The target support (0.585, 0.6] is known exactly, so the partition
    concentrates its resolution there; the classifier clamps everything
    outside the partition box into the two boundary cells, which carry no
    target mass and therefore zero weight. 400 cells over [0.575, 0.61]
    give ~1e-4 cell width where the target CDF has kinks, which keeps the
    push-forward sup-norm error a few times 1e-3.
    """
    from .binning import make_regular_grid

    lo, hi = MIXTURE_BENCHMARK_PARTITION_BOX
    return make_regular_grid(BoxScaler([lo], [hi]), MIXTURE_BENCHMARK_CELLS)


def eval_qoi(qoi, pts):
    """Evaluate a QoI map on an (n, d_in) array as an (n, d_out) float array.

    Raises if the map returns a different number of rows than it was given.
    """
    out = np.asarray(qoi(pts), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.shape[0] != pts.shape[0]:
        raise ValueError(
            f"model returned {out.shape[0]} values for {pts.shape[0]} samples"
        )
    return out


def draw_pairs(sampler, qoi, n, rng):
    """Draw ``n`` samples with ``sampler.sample(n, rng)`` and run them through
    ``qoi``: the aligned (n, d_in) initial and (n, d_out) predicted arrays."""
    initial = as_points(sampler.sample(n, rng))
    return initial, eval_qoi(qoi, initial)


def _sample_pair(initial, predicted):
    """Aligned (initial SampleSet, (n, d_out) predicted array)."""
    initial = initial if isinstance(initial, SampleSet) else SampleSet(initial)
    predicted_pts = as_points(predicted)
    if predicted_pts.shape[0] != initial.n:
        raise ValueError("initial and predicted sample counts differ")
    return initial, predicted_pts


class UniformBoxSampler:
    """Draw uniform samples from an axis-aligned box, one row per draw."""

    def __init__(self, box):
        self.box = as_box(box)

    def sample(self, n, rng):
        pts = rng.uniform(self.box.lower, self.box.upper, size=(n, self.box.dim))
        return SampleSet(pts)

