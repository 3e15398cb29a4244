"""Command-line front end.

Subcommands
-----------
solve        run one inversion (naive, binning-grid, binning-kmeans, density)
             from a JSON config; writes weights.csv, pushforward.csv, meta.json
diagnose     compute the predictability diagnostic for a density config
convergence  run the (n, p) convergence study from a spec file

Human-readable progress goes to stderr; stdout and files carry machine-
readable data only. Every run writes meta.json with the toolkit version, the
fully resolved config, all seeds, solver residuals, and wall-clock timing;
with the same config and seed all result files are byte-identical across
runs (wall-clock lives only in meta.json's "timing" block). ``io`` writes
the files in its formats. ``--out`` is checked before the run and created
only once the run has succeeded, so a failed run leaves no directory.

Exit codes: 0 success; 2 config error (``--out`` included); 3 solver failure
(matrix not positive definite, all weights or density ratios zero, a KDE
bandwidth matrix that is not finite), non-convergence, a run out of
memory (a fitting matrix too large to allocate), or a worker process that
died (killed by the out-of-memory killer, say); 4 unreachable cell; 5
diagnostic outside ``experiments.DIAGNOSTIC_GUARD`` (diagnose, or an
untrustworthy convergence-study baseline). ``FAILURES`` maps each failure to its code in
one place, for every subcommand: a failing ``solve``, ``diagnose`` or
``convergence`` writes a one-line reason to stderr and one JSON line to
stdout

    {"error": {"exit_code": N, "kind": "<exception class>", "message": "..."}}

where ``kind`` is the first public class of the exception (``MemoryError``
for numpy's failed allocation), or ``NotConverged`` for a solve that ran
out of iterations (its results are still written). ``diagnose`` exiting 5
prints its usual diagnostic record instead; it is a result, not a failure.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from . import __version__
from .binning import (
    DataBoxError,
    KMeansCellsError,
    PartitionBoxError,
    UnreachableCellError,
    make_regular_grid,
    resolve_data_box,
    solve_binning,
    solve_naive,
)
from .config import build_convergence_spec, build_solve_config, load_config
from .core import ConfigError, cpu_count, grid_points
from .density import BandwidthError, solve_density
from .edf import as_cdf_callable, wedf_eval_many
from .experiments import DIAGNOSTIC_GUARD, UntrustworthyBaselineError, run_convergence
from .io import OutputDirError, check_output_dir, make_output_dir, write_csv
from .io import write_json as _write_json  # traced by this name as a "cli" span
from .models import UniformBoxSampler, draw_pairs
from .solver import NonPositiveDefiniteError, WeightCollapseError
from .targets import is_exact

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_UNREACHABLE = 4
EXIT_DIAGNOSTIC = 5

METHODS = ("naive", "binning-grid", "binning-kmeans", "density")


class NotConverged(RuntimeError):
    """The solver stopped short of its certificate; the results are written
    and flagged in meta.json."""


# How every failure of a command ends it: (exception class, exit code, label
# of the one-line reason on stderr). An exit-2 row of a library error names,
# in place of the label, the solve option it is reported at as a
# ConfigError. Any other exception is a bug and propagates.
FAILURES = (
    (ConfigError, EXIT_CONFIG, None),
    (OutputDirError, EXIT_CONFIG, "--out"),
    (DataBoxError, EXIT_CONFIG, "/method/data_box"),
    (PartitionBoxError, EXIT_CONFIG, "/method/partition_box"),
    (KMeansCellsError, EXIT_CONFIG, "/method/p"),
    *[(cls, EXIT_NONCONVERGED, "solver failure") for cls in (
        NonPositiveDefiniteError, WeightCollapseError, BandwidthError, NotConverged)],
    (MemoryError, EXIT_NONCONVERGED, "out of memory"),
    (BrokenProcessPool, EXIT_NONCONVERGED, "worker process died"),
    (UnreachableCellError, EXIT_UNREACHABLE, "unreachable cell"),
    (UntrustworthyBaselineError, EXIT_DIAGNOSTIC, "aborted"),
)


def _log(msg):
    print(msg, file=sys.stderr)


def _fail(exc):
    """Report the failure ``exc`` as ``FAILURES`` says: a one-line ``label:
    reason`` on stderr and the JSON error record on stdout. Returns the exit
    code."""
    exit_code, label = next((code, label) for cls, code, label in FAILURES if isinstance(exc, cls))
    reason = str(exc)
    if exit_code == EXIT_CONFIG:
        if not isinstance(exc, ConfigError):
            exc = ConfigError(label, reason)
        label, reason = f"config error at {exc.pointer}", exc.message
    _log(f"{label}: {reason}")
    kind = next(c.__name__ for c in type(exc).__mro__ if not c.__name__.startswith("_"))
    error = {"exit_code": exit_code, "kind": kind, "message": str(exc)}
    print(json.dumps({"error": error}))
    return exit_code


def _write_weights_csv(path, initial, predicted, weights):
    header = ["index", *(f"x{k + 1}" for k in range(initial.shape[1])),
              *(f"q{k + 1}" for k in range(predicted.shape[1])), "weight"]
    write_csv(path, header, [np.arange(len(weights)), *initial.T, *predicted.T, np.asarray(weights)])


def _write_pushforward_csv(path, pushforward, target_cdf, box, grid):
    pts = grid_points([np.linspace(box.lower[k], box.upper[k], grid) for k in range(box.dim)])
    header = [*(f"q{k + 1}" for k in range(box.dim)), "f_method", "f_target"]
    write_csv(path, header, [*pts.T, wedf_eval_many(pushforward, pts), target_cdf(pts)])


def _sample_pairs(cfg, seed):
    """(initial, predicted, draw) samples of the config's model. A live model
    draws ``cfg.n_initial`` samples from ``default_rng(seed)`` and ``draw(k)``
    continues that stream; loaded pairs come as they are, with ``draw`` None."""
    model = cfg.model
    if not model.live:
        return model.initial, model.predicted, None
    draw = partial(draw_pairs, UniformBoxSampler(model.model.box), model.model,
                   rng=np.random.default_rng(seed))
    return (*draw(cfg.n_initial), draw)


def _density_samples(cfg):
    """The (initial, predicted, observed) samples of the density method."""
    if is_exact(cfg.target):
        raise ConfigError("/target/m",
                          "this method needs observed samples; set target.m (or use kind=samples)")
    observed = cfg.target.samples
    if observed.n < 2:
        raise ConfigError("/target/m", f"needs at least 2 observed samples, got {observed.n}")
    if cfg.n_initial < 2:  # the predicted KDE needs two samples, as the observed one does
        raise ConfigError("/initial/n" if cfg.model.live else "/model",
                          f"needs at least 2 initial samples, got {cfg.n_initial}")
    initial, predicted, _ = _sample_pairs(cfg, np.random.SeedSequence((cfg.seed, 10)))
    return initial, predicted, observed


def _cmd_solve(args):
    check_output_dir(args.out)
    cfg = build_solve_config(load_config(args.config), base_dir=os.path.dirname(args.config) or ".")
    t_start = time.perf_counter()
    meta = {
        "version": __version__,
        "method": args.method,
        "config": cfg.raw,
        "seed": cfg.seed,
        "n_initial": cfg.n_initial,
    }

    if args.method == "naive":
        initial, predicted, _ = _sample_pairs(cfg, np.random.SeedSequence((cfg.seed, 10)))
        sol = solve_naive(initial, predicted, cfg.target, data_box=cfg.data_box)
        box = sol.box
    elif args.method in ("binning-grid", "binning-kmeans"):
        if args.method == "binning-grid":
            cells = cfg.cells_per_dim or cfg.p
            if cfg.partition_box is not None:
                partition = make_regular_grid(cfg.partition_box, cells)
            else:
                partition = ("grid", cells)
        else:
            partition = ("kmeans", cfg.p)
        initial, predicted, draw = _sample_pairs(cfg, cfg.seed)
        sol = solve_binning(
            initial, predicted, cfg.target, partition, draw=draw, seed=cfg.seed,
            n_batch=cfg.n_batch, min_fill=cfg.min_fill, data_box=cfg.data_box,
        )
        box = sol.box
        meta.update(p=sol.p, partition_kind=sol.partition.kind, n_batches=sol.n_batches,
                    n_total=sol.n, cell_counts_min=int(sol.counts.min()))
    else:
        initial, predicted, observed = _density_samples(cfg)
        # the density method fits no QP, so the push-forward box is found
        # here, before the two KDE fits, which a bad data box would waste
        box = resolve_data_box(predicted, cfg.data_box)
        sol = solve_density(initial, predicted, observed, rule=cfg.kde_rule)
        _log(f"diagnostic: {sol.diagnostic:.6f}")
        meta.update(diagnostic=sol.diagnostic, violations=sol.n_violations,
                    kde_rule=str(cfg.kde_rule), m_observed=sol.observed_kde.n)

    weights, qp = sol.weights, sol.qp_solution
    meta["weight_normalization"] = weights.normalization.value
    meta["solver"] = _solver_meta(qp) if qp is not None else {}
    make_output_dir(args.out)
    _write_weights_csv(
        os.path.join(args.out, "weights.csv"), sol.initial.points, sol.predicted.points,
        weights.weights,
    )
    _write_pushforward_csv(
        os.path.join(args.out, "pushforward.csv"),
        sol.pushforward(),
        as_cdf_callable(cfg.target),
        box,
        cfg.pushforward_grid,
    )
    meta["timing"] = {"wall_clock_s": time.perf_counter() - t_start}
    _write_json(os.path.join(args.out, "meta.json"), meta)
    if qp is not None and not qp.converged:
        raise NotConverged("solver did not converge; results flagged in meta.json")
    return EXIT_OK


def _solver_meta(qp_solution):
    """The solver block of meta.json: every KKT residual absolute and as the
    pass rule reads it (``KktReport.relative``): stationarity and
    complementarity divided by the certificate's scale, max(|b|_inf, |nu|/l),
    and feasibility as it is."""
    kkt = qp_solution.kkt
    record = {
        "converged": qp_solution.converged,
        "iterations": qp_solution.iterations,
        "method": qp_solution.method,
        "stationarity_residual": kkt.stationarity_residual,
        "feasibility_residual": kkt.feasibility_residual,
        "complementarity_residual": kkt.complementarity_residual,
        "b_scale": kkt.b_scale,
        "objective": qp_solution.objective,
    }
    record.update({f"{k}_residual_rel": v for k, v in kkt.relative().items()})
    return record


def _cmd_diagnose(args):
    cfg = build_solve_config(load_config(args.config), base_dir=os.path.dirname(args.config) or ".")
    sol = solve_density(*_density_samples(cfg), rule=cfg.kde_rule)
    print(json.dumps({"diagnostic": sol.diagnostic, "violations": sol.n_violations}))
    low, high = DIAGNOSTIC_GUARD
    return EXIT_OK if low <= sol.diagnostic <= high else EXIT_DIAGNOSTIC


def _cmd_convergence(args):
    if args.threads < 1:
        raise ConfigError("--threads", f"expected an integer >= 1, got {args.threads}")
    check_output_dir(args.out)
    spec = build_convergence_spec(load_config(args.spec), base_dir=os.path.dirname(args.spec) or ".")
    t_start = time.perf_counter()
    # a worker beyond the CPU count would only wait for a CPU
    result = run_convergence(spec, progress=_log, threads=min(args.threads, cpu_count()))
    paths = result.save(args.out)
    _write_json(
        os.path.join(args.out, "meta.json"),
        {
            "version": __version__,
            "spec": result.spec_dict,
            "files": [os.path.basename(p) for p in paths],
            "threads": args.threads,
            "timing": {"wall_clock_s": time.perf_counter() - t_start},
        },
    )
    _log(f"wrote {len(paths) + 1} files to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcinv",
        description="Data-consistent inversion via optimally weighted EDFs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one inversion from a JSON config")
    p_solve.add_argument("--method", required=True, choices=METHODS)
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_diag = sub.add_parser("diagnose", help="predictability diagnostic for a density config")
    p_diag.add_argument("--config", required=True)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_conv = sub.add_parser("convergence", help="run the (n, p) convergence study")
    p_conv.add_argument("--spec", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--threads", type=int, default=cpu_count())
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        return _fail(exc)


if __name__ == "__main__":
    raise SystemExit(main())
