"""Convergence study over (n, p) grids and side-by-side method comparisons.

The convergence study estimates the probability of a data-space event B and
a parameter-space event A from the binned solution at every (n, p) pair,
over repeated trials, against reference values computed once with the
density-based method at large n. Within a trial the initial sample sets are
nested: the n-sample set is the first n rows of the largest set, matching
the appended-sampling construction. All randomness flows from one base seed
through keyed SeedSequence streams ((seed, 0) observed samples, (seed, 1, t)
baseline trials, (seed, 2, t) study trials), so results are reproducible bit
for bit and trials can run in any order or in parallel.
"""

import os
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import __version__
from .binning import (
    WEIGHT_FLOOR,
    distribute_cell_weights,
    fit_weights,
    make_kmeans,
    make_regular_grid,
    pushforward_binned,
    solve_binning,
    solve_naive,
)
from .core import (PIPELINE_PADDING, ConfigError, Normalization, SampleSet, WeightedEdf, as_box,
                   fit_box, grid_points, ordered_map)
from .density import solve_density, update_probability
from .edf import l2_distance, sup_distance
from .io import make_output_dir, write_csv, write_json
from .models import HeatRod, UniformBoxSampler, draw_pairs, eval_qoi, heat_rod_observed
from .targets import EmpiricalTarget, as_target, is_exact

DIAGNOSTIC_GUARD = (0.8, 1.2)
# Keys that once set a binning constant: key -> (the constant's name, value).
# A config may not set them; a study's spec record holds each constant.
RETIRED_KEYS = {"padding": ("data-box padding", PIPELINE_PADDING),
                "weight_floor": ("cell-weight floor", WEIGHT_FLOOR)}
COMPARISON_GRID = 2048  # grid cells per dimension of compare_methods' distances
IMAGE_REGION_GRID = 81  # grid points per dimension of derive_image_region


class UntrustworthyBaselineError(RuntimeError):
    """A baseline trial's predictability diagnostic left DIAGNOSTIC_GUARD, so
    the reference probabilities of the study cannot be trusted."""


@dataclass(frozen=True)
class ConvergenceSpec:
    """Configuration of the convergence study.

    region_b defaults to the numerically computed image of region_a under
    the model (the interval hull over a fine grid of region_a). ``target``
    is stored as ``targets.as_target`` gives it: an array or SampleSet
    becomes an EmpiricalTarget. An out-of-range field raises
    ``ConfigError`` (a ValueError) whose pointer is the field's name, the
    key of the convergence spec file; the ranges are listed in ``config``'s
    module docstring.
    """

    n_grid: tuple = (1000, 3000, 10000)
    p_grid: tuple = (20, 60, 160)
    trials: int = 20
    seed: int = 0
    region_a: tuple = ((2.01, 2.02), (0.95, 1.0))
    region_b: tuple = None
    partition_kind: str = "grid"
    model: object = field(default_factory=HeatRod)
    target: object = field(default_factory=heat_rod_observed)
    m_observed: int = 100_000
    baseline_n: int = 100_000
    baseline_trials: int = 10

    def __post_init__(self):
        for key in ("n_grid", "p_grid"):
            grid = tuple(int(v) for v in getattr(self, key))
            if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(
                    f"/{key}", f"expected strictly increasing integers >= 1, got {list(grid)}"
                )
            object.__setattr__(self, key, grid)
        # the baseline KDE needs two samples; one trial of anything gives a mean
        for key, low in (("trials", 1), ("m_observed", 2), ("baseline_n", 2),
                         ("baseline_trials", 1)):
            value = getattr(self, key)
            if value < low:
                raise ConfigError(f"/{key}", f"expected an integer >= {low}, got {value}")
        if self.partition_kind not in ("grid", "kmeans"):
            raise ConfigError("/partition_kind", f"unknown partition kind {self.partition_kind!r}")
        if self.partition_kind == "kmeans" and self.p_grid[-1] > self.n_grid[0]:
            raise ConfigError("/p_grid", f"{self.p_grid[-1]} k-means cells for {self.n_grid[0]} samples")
        target = as_target(self.target)
        object.__setattr__(self, "target", target)
        if not is_exact(target) and target.m < 2:
            raise ConfigError("/target", f"needs at least 2 observed samples, got {target.m}")
        object.__setattr__(self, "region_a", _region("region_a", self.region_a, self.model.box.dim))
        if self.region_b is not None:
            object.__setattr__(self, "region_b", _region("region_b", self.region_b, target.dim))


def _region(key, region, dim):
    """``region``, checked to be a ``dim``-D box, as (lower, upper) float pairs."""
    try:
        box = as_box(region)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"/{key}", str(exc)) from None
    if box.dim != dim:
        raise ConfigError(f"/{key}", f"a {box.dim}-D box in a {dim}-D space")
    return tuple(zip(box.lower.tolist(), box.upper.tolist()))


def derive_image_region(model, region_a):
    """Interval hull of the model image of an axis-aligned parameter box."""
    box = as_box(region_a)
    axes = [np.linspace(lo, hi, IMAGE_REGION_GRID) for lo, hi in zip(box.lower, box.upper)]
    vals = eval_qoi(model, grid_points(axes))
    return tuple((float(vals[:, k].min()), float(vals[:, k].max())) for k in range(vals.shape[1]))


@dataclass(frozen=True)
class ConvergenceResult:
    """Estimates, error surfaces, and reproducibility metadata of one study
    of ``spec``, with its region_b, derived or not."""

    spec: ConvergenceSpec
    region_b: tuple
    baselines: dict
    estimates: dict  # name -> (trials, len(n_grid), len(p_grid)) array
    surfaces: dict  # name -> (len(n_grid), len(p_grid)) array

    @property
    def spec_dict(self):
        """Every spec field but region_b (derived or not, it is in the
        result), and each ``RETIRED_KEYS`` constant under its key."""
        spec = self.spec
        d = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "region_b"}
        return dict(d, model=repr(spec.model), target=repr(spec.target),
                    **{key: value for key, (_, value) in RETIRED_KEYS.items()})

    def to_dict(self):
        spec = self.spec
        return {
            "kind": "convergence_study",
            "version": __version__,
            "spec": self.spec_dict,
            "region_a": [list(b) for b in spec.region_a],
            "region_b": [list(b) for b in self.region_b],
            "baselines": self.baselines,
            "n_grid": list(spec.n_grid),
            "p_grid": list(spec.p_grid),
            "estimates": {k: np.asarray(v).tolist() for k, v in sorted(self.estimates.items())},
            "surfaces": {k: np.asarray(v).tolist() for k, v in sorted(self.surfaces.items())},
        }

    def save(self, out_dir):
        """Write result.json and one CSV per surface (rows n, columns p)."""
        make_output_dir(out_dir)
        paths = [os.path.join(out_dir, "result.json")]
        write_json(paths[0], self.to_dict())
        header = ["n"] + [f"p={p}" for p in self.spec.p_grid]
        for name, surface in sorted(self.surfaces.items()):
            paths.append(os.path.join(out_dir, f"surface_{name}.csv"))
            write_csv(paths[-1], header, [np.asarray(self.spec.n_grid), *np.asarray(surface).T])
        return paths


def _baseline_trial(spec, observed_pts, t):
    """Baseline trial ``t``: the density method at ``spec.baseline_n`` samples,
    drawn from the stream (seed, 1, t). Returns (diagnostic, P(region_a))."""
    model = spec.model
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1, t)))
    initial, predicted = draw_pairs(UniformBoxSampler(model.box), model, spec.baseline_n, rng)
    sol = solve_density(initial, predicted, SampleSet(observed_pts), method="binned")
    return float(sol.diagnostic), update_probability(spec.region_a, initial, sol.r_values)


def _study_trial(spec, observed_pts, region_b, t):
    """Study trial ``t``, drawn from the stream (seed, 2, t): the (3, n, p)
    estimates of P(region_b) from the cell weights and from the sample
    weights, and of P(region_a)."""
    model, n_grid, p_grid, seed = spec.model, spec.n_grid, spec.p_grid, spec.seed
    qp_target = EmpiricalTarget(SampleSet(observed_pts))
    box_a = as_box(spec.region_a)
    box_b = as_box(region_b)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2, t)))
    initial_full, predicted_full = draw_pairs(UniformBoxSampler(model.box), model, n_grid[-1], rng)
    box = fit_box(predicted_full)
    if spec.partition_kind == "grid":
        # A grid, and so its QP and weights, depends only on the trial's box
        # and on p, not on n: fit each p once and reuse it for every n.
        grids = [make_regular_grid(box, p) for p in p_grid]
        grid_fits = [(part, fit_weights(part.reps.points, qp_target, box).w) for part in grids]
    out = np.empty((3, len(n_grid), len(p_grid)))
    for i, n in enumerate(n_grid):
        lam = initial_full[:n]
        q = predicted_full[:n]
        in_a = box_a.contains(lam)
        in_b = box_b.contains(q)
        for j, p in enumerate(p_grid):
            if spec.partition_kind == "grid":
                part, w = grid_fits[j]
            else:
                part = make_kmeans(q, p, seed=(seed * 1_000_003 + 7 * t) % 2**31)
                w = fit_weights(part.reps.points, qp_target, box).w
            assignments = part.classify_many(q)
            u, w_floored, _counts = distribute_cell_weights(w, assignments, part.p, strict=False)
            reps_in_b = box_b.contains(part.reps.points)
            out[0, i, j] = np.sum(w_floored[reps_in_b]) / part.p
            out[1, i, j] = np.sum(u[in_b])
            out[2, i, j] = np.sum(u[in_a])
    return out


def run_convergence(spec, progress=None, threads=1):
    """Run the full convergence study.

    Raises UntrustworthyBaselineError when a baseline trial's diagnostic leaves
    [0.8, 1.2], reporting the value. ``threads`` (>= 1) distributes trials
    over at most that many processes; the reduction order is fixed by trial
    index either way.
    """
    model, target = spec.model, spec.target
    region_b = spec.region_b or derive_image_region(model, spec.region_a)
    try:
        box_b = as_box(region_b)
    except ValueError as exc:  # a derived image that is a point in some dimension
        raise ConfigError("/region_b", f"the model image of region_a is not a box: {exc}") from None

    if is_exact(target):
        obs_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
        try:
            observed = target.sample(spec.m_observed, obs_rng)
        except ValueError as exc:  # samples that overflow, as a solve config reports them
            raise ConfigError("/target", str(exc)) from None
    else:
        observed = target.samples
    p_obs_b = float(np.mean(box_b.contains(observed.points)))
    p_obs_b_exact = None
    if is_exact(target) and box_b.dim == 1:
        lo, hi = region_b[0]
        p_obs_b_exact = float(
            np.asarray(target.cdf(np.array([hi])))[0] - np.asarray(target.cdf(np.array([lo])))[0]
        )

    baseline = partial(_baseline_trial, spec, observed.points)
    diagnostics, p_update_trials = [], []
    for t, (diag, p_a) in enumerate(ordered_map(baseline, range(spec.baseline_trials), threads)):
        if not DIAGNOSTIC_GUARD[0] <= diag <= DIAGNOSTIC_GUARD[1]:
            raise UntrustworthyBaselineError(
                f"baseline diagnostic {diag:.4f} outside {list(DIAGNOSTIC_GUARD)}; "
                "reference probabilities are not trustworthy"
            )
        diagnostics.append(diag)
        p_update_trials.append(p_a)
        if progress:
            progress(f"baseline trial {t + 1}/{spec.baseline_trials}: diagnostic={diag:.4f}")
    p_update_a = float(np.mean(p_update_trials))

    study = partial(_study_trial, spec, observed.points, region_b)
    results = []
    for t, res in enumerate(ordered_map(study, range(spec.trials), threads)):
        results.append(res)
        if progress:
            progress(f"trial {t + 1}/{spec.trials} done")
    stacked = np.stack(results)  # (trials, 3, n, p)
    est_pred_b = stacked[:, 0]
    est_pred_b_samples = stacked[:, 1]
    est_init_a = stacked[:, 2]

    def _std(a):
        return a.std(axis=0, ddof=1) if spec.trials > 1 else np.zeros(a.shape[1:])

    surfaces = {
        "abs_err_pred_b": np.abs(est_pred_b.mean(axis=0) - p_obs_b),
        "std_pred_b": _std(est_pred_b),
        "abs_err_pred_b_samples": np.abs(est_pred_b_samples.mean(axis=0) - p_obs_b),
        "abs_err_init_a": np.abs(est_init_a.mean(axis=0) - p_update_a),
        "std_init_a": _std(est_init_a),
    }
    baselines = {
        "p_obs_b": p_obs_b,
        "p_obs_b_exact": p_obs_b_exact,
        "p_update_a": p_update_a,
        "p_update_a_trials": p_update_trials,
        "diagnostics": diagnostics,
        "n": spec.baseline_n,
        "m": observed.n,
        "trials": spec.baseline_trials,
        "kde_evaluation": "binned",
        "seed_keys": [[spec.seed, 1, t] for t in range(spec.baseline_trials)],
        "observed_seed_key": [spec.seed, 0] if is_exact(target) else None,
    }
    return ConvergenceResult(
        spec=spec,
        region_b=tuple(region_b),
        baselines=baselines,
        estimates={
            "pred_b": est_pred_b,
            "pred_b_samples": est_pred_b_samples,
            "init_a": est_init_a,
        },
        surfaces=surfaces,
    )


METHOD_NAMES = ("unweighted", "naive", "binning-grid", "binning-kmeans", "density")
# the key order of a compare_methods row, which write_comparison's CSV columns follow
ROW_KEYS = ("method", "n", "m", "seed", "l2", "sup", "l2_reps", "sup_reps", "weight_variance", "p",
            "solver_residual", "diagnostic", "violations")


def compare_methods(model, target, n, m, p, seed, methods=METHOD_NAMES):
    """Push-forward accuracy table for the requested methods.

    Draws n initial samples and m observed samples under ``seed``, runs each
    method on the shared data, and reports L2 and sup-norm distances of each
    method's data-space push-forward to the target CDF, the variance of its
    mean-one-scale weights, and, for the density row, the diagnostic.
    Binning rows carry the sample-level push-forward distances plus the
    representative-point variants (l2_reps, sup_reps). The choices are fixed:
    uniform initial samples on ``model.box``, p grid or k-means cells with no
    minimum fill, ``PIPELINE_PADDING``, the default KDE rule, and
    ``COMPARISON_GRID`` distance cells per dimension.
    """
    target = as_target(target)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
    initial, predicted = draw_pairs(UniformBoxSampler(model.box), model, n, rng)
    if is_exact(target):
        observed = target.sample(m, np.random.default_rng(np.random.SeedSequence((seed, 11))))
    else:
        observed = target.samples

    box = fit_box(predicted)

    def distances(pushforward):
        return (
            l2_distance(pushforward, target, box, COMPARISON_GRID),
            sup_distance(pushforward, target, box, COMPARISON_GRID,
                         extra_points=pushforward.samples.points),
        )

    rows = []
    for name in methods:
        row = {"method": name, "n": int(n), "m": int(m), "seed": int(seed)}
        sol = None
        if name == "naive":
            sol = solve_naive(initial, predicted, target)
        elif name in ("binning-grid", "binning-kmeans"):
            sol = solve_binning(
                initial, predicted, target, ("grid" if name == "binning-grid" else "kmeans", p),
                seed=seed,
            )
            row["l2_reps"], row["sup_reps"] = distances(pushforward_binned(sol))
            row["p"] = int(sol.p)
        elif name == "density":
            sol = solve_density(initial, predicted, observed)
            row["diagnostic"] = float(sol.diagnostic)
            row["violations"] = sol.n_violations
        elif name != "unweighted":
            raise ValueError(f"unknown method {name!r}")
        pf = WeightedEdf.plain(predicted) if sol is None else sol.pushforward()
        row["l2"], row["sup"] = distances(pf)
        w = pf.weights
        mean_one = w.weights if w.normalization is Normalization.MEAN_ONE else w.n * w.weights
        row["weight_variance"] = float(np.var(mean_one))
        if sol is not None and sol.qp_solution is not None:
            row["solver_residual"] = sol.qp_solution.kkt.stationarity_residual
        rows.append({k: row[k] for k in ROW_KEYS if k in row})
    return rows


def write_comparison(rows, out_dir):
    """Write comparison rows as CSV and JSON; returns the file paths.

    The CSV columns are the keys in the order they first appear across the
    rows. A column mixes method names, integers, floats (``%.17g``) and
    blanks where a method has no such field, so the rows are formatted here
    cell by cell, not by ``io.write_csv``, which types whole columns.
    """
    make_output_dir(out_dir)
    keys = list(dict.fromkeys(k for row in rows for k in row))

    def cell(row, key):
        value = row.get(key, "")
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    csv_path = os.path.join(out_dir, "comparison.csv")
    with open(csv_path, "w") as f:
        f.write(",".join(keys) + "\n")
        f.writelines(",".join(cell(row, k) for k in keys) + "\n" for row in rows)
    json_path = os.path.join(out_dir, "comparison.json")
    write_json(json_path, rows)
    return [csv_path, json_path]
