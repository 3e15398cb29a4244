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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .binning import make_regular_grid
from .core import BoxScaler, SampleSet, as_box, as_points
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
QOI_BLOCK_ROWS = 16384  # rows of the rod series evaluated at once
# A block's series stops once every row's |w_k| is below 2^-56 of its partial
# sum (see HeatRod.qoi); the test waits until the slowest-decaying row's
# |w_k| is below 2^-56 itself, the exit point of a partial sum of size one.
_EXIT_MARGIN = 2.0**-56
_EXIT_GATE = math.log(_EXIT_MARGIN)

@dataclass(frozen=True)
class HeatRod:
    """Rod-temperature QoI map; see module docstring for the two variants."""

    x_star: float = 1.2
    t_star: float = 0.01
    truncation: int = 100
    lambda_box: tuple = DEFAULT_LAMBDA_BOX
    standard_physics: bool = False

    def __post_init__(self):
        box = as_box(self.lambda_box)
        if box.dim != 2:
            raise ValueError(f"lambda_box needs a row for each of ell and kappa, got {box.dim}")
        object.__setattr__(self, "lambda_box", tuple(zip(box.lower.tolist(), box.upper.tolist())))
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

        With theta = pi x_star / ell, term k of the series is
        ``(-1)^{k+1} / k * Im(w_k)`` for ``w_k = exp(a k) exp(i k theta)``
        (printed series, a = -kappa pi t / ell^2) or
        ``w_k = exp(a k^2) exp(i k theta)`` (standard physics,
        a = -kappa pi^2 t / ell^2). Goertzel's (Watt's) recurrence builds
        ``w_k = w_{k-1} * step`` from one complex ``step = exp(a) exp(i theta)``
        per row; for standard physics ``step`` itself gains a factor
        ``exp(2a)`` per term, since ``exp(a k^2)`` grows by ``exp(a)^{2k+1}``.
        So each row costs one ``exp`` (two for standard physics), one ``cos``
        and one ``sin`` plus a complex multiply per term, and its rounding
        error grows only linearly in k (Gentleman, Comput. J. 1969). The rows
        are evaluated QOI_BLOCK_ROWS at a time, which keeps the few vectors
        of a block in cache; memory is those and the result.

        The multiplies are out of place: numpy's in-place complex multiply
        rounds differently with the array length, and out of place every row
        is a function of that row alone, whatever else is in the batch. A
        ``step`` that underflows to 0.0 makes every later term an exact zero.

        A block stops before ``truncation`` terms once no later term can
        change a bit of any of its rows, so the result is bit-identical to
        summing all ``truncation`` terms, whatever the blocks are. After term
        k the exit needs, for every row of the block, ``|step| <= 1``,
        ``exp(2a) <= 1`` for standard physics, and both parts of ``w_k``
        strictly below ``|s| 2^-56``, where s is the row's partial sum. Then:

        - ``|w_k| < sqrt(2) |s| 2^-56``;
        - each later step is at most ``|step|`` (each multiply by
          ``exp(2a) <= 1`` only shrinks both parts), so each later ``|w_j|``
          grows over ``|w_k|`` only by rounding, under 2^-50 per term, which
          stays below a factor 2 sqrt(2) for fewer than 10^15 terms;
        - so each later term ``(-1)^{j+1}/j * Im(w_j)`` is below
          ``|s| 2^-54``, and under round-to-nearest ``s + t = s`` whenever
          ``|t|`` is below half the spacing of the floats around s, which is
          at least ``|s| 2^-54`` (Goldberg, ACM Comput. Surv. 1991). By
          induction s never changes again.

        When ``|s| 2^-56`` falls below the smallest normal number it rounds
        to a multiple of 2^-1074, up by less than 2^-1075; a float part of
        ``w_k`` strictly below that multiple is still below ``|s| 2^-56``,
        and a bound that rounds to 0.0 is never met. The test is strict, so
        a row whose partial sum is 0.0 or NaN never meets it and keeps its
        bits. On the printed series at the default truncation no row gets
        there; the array test is skipped until the slowest-decaying row's
        ``exp(a k)`` (``exp(a k^2)``) is below 2^-56 and then runs every
        other term, so such calls pay one float compare per term for it. On
        the mixture model (``mixture_benchmark_model``) the series stops near
        term 12 of 100; on the printed series, rows of Lambda need 5 000 to
        11 000 terms.
        """
        pts = as_points(lam)
        if pts.shape[1] != 2:
            raise ValueError(f"rod parameters are 2-D (ell, kappa), got dim {pts.shape[1]}")
        inside = self.box.contains(pts)
        if not inside.all():
            warnings.warn(
                f"{np.count_nonzero(~inside)} parameter sample(s) outside Lambda; "
                "evaluating anyway",
                stacklevel=2,
            )
        if len(pts) <= QOI_BLOCK_ROWS:  # one block or none: no copy to concatenate
            return self._series(pts)
        return np.concatenate([self._series(pts[start:start + QOI_BLOCK_ROWS])
                               for start in range(0, len(pts), QOI_BLOCK_ROWS)])

    def _series(self, pts):
        """The sensor temperature of each row of the (n, 2) array ``pts``."""
        ell = pts[:, 0]
        kappa = pts[:, 1]
        theta = np.pi * self.x_star / ell
        if self.standard_physics:
            a = -kappa * (np.pi / ell) ** 2 * self.t_star
            growth = np.exp(2.0 * a)
            prefactor = 2.0 * ell / np.pi
        else:
            a = -kappa * np.pi * self.t_star / ell**2
            growth = None
            prefactor = 2.0 * ell**2 / np.pi
        step = np.exp(a) * np.exp(1j * theta)
        w = np.ones(len(pts), dtype=complex)
        series = np.zeros(len(pts))
        # the slowest-decaying row's |w_k| = exp(a k) or exp(a k^2) falls
        # below 2^-56 at term k_open; the exit test waits until then and
        # runs every other term after it
        slowest = float(np.max(a, initial=-np.inf))
        k_open = math.inf
        if slowest < 0:
            k_open = _EXIT_GATE / slowest
            if self.standard_physics:
                k_open = math.sqrt(k_open)
        for k in range(1, self.truncation + 1):
            w = w * step
            series = series + (-1.0) ** (k + 1) / k * w.imag
            if self.standard_physics:
                step = step * growth
            if k >= k_open and k % 2 == 0 and _settled(w, series, step, growth):
                break
        return prefactor * series

    def __call__(self, lam):
        return self.qoi(lam)


def _settled(w, series, step, growth=None):
    """Whether no later term of the rod series can change a bit of any row of
    ``series``: every row has ``|step| <= 1``, ``growth <= 1`` (None for the
    printed series, whose step is fixed) and both parts of ``w`` strictly
    below ``|series| * 2^-56``. The argument is in ``HeatRod.qoi``."""
    bound = np.abs(series) * _EXIT_MARGIN
    if not (np.all(np.abs(w.imag) < bound) and np.all(np.abs(w.real) < bound)):
        return False
    if growth is not None and not np.all(growth <= 1.0):
        return False
    return bool(np.all(np.abs(step) <= 1.0))


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


class UniformBoxSampler:
    """Draw uniform samples from an axis-aligned box, one row per draw."""

    def __init__(self, box):
        self.box = as_box(box)

    def sample(self, n, rng):
        pts = rng.uniform(self.box.lower, self.box.upper, size=(n, self.box.dim))
        return SampleSet(pts)

