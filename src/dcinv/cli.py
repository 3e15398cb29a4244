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
runs (wall-clock lives only in meta.json's "timing" block).

Exit codes: 0 success; 2 config error; 3 solver failure (matrix not
positive definite, all weights collapsed to zero, all cell weights at or
below the floor) or non-convergence; 4 unreachable cell; 5 diagnostic
outside [0.8, 1.2] (diagnose, or an untrustworthy convergence-study
baseline). Each failure writes a one-line reason to stderr. When ``solve``
or ``convergence`` exits nonzero, and on a config error in any subcommand,
stdout also gets one JSON line

    {"error": {"exit_code": N, "kind": "<exception class>", "message": "..."}}

where ``kind`` is ``NotConverged`` for a solve that ran out of iterations
(its results are still written). ``diagnose`` exiting 5 prints its usual
diagnostic record instead.
"""

import argparse
import json
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from .binning import (
    AllWeightsFlooredError,
    DataBoxError,
    PartitionBoxError,
    UnreachableCellError,
    _data_box,
    make_regular_grid,
    solve_binning,
    solve_naive,
)
from .config import ConfigError, build_convergence_spec, build_solve_config, load_config
from .core import grid_points
from .density import solve_density
from .edf import as_cdf_callable, wedf_eval_many
from .experiments import UntrustworthyBaselineError, _jsonify, run_convergence
from .models import UniformBoxSampler, draw_pairs
from .solver import NonPositiveDefiniteError, WeightCollapseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_UNREACHABLE = 4
EXIT_DIAGNOSTIC = 5

METHODS = ("naive", "binning-grid", "binning-kmeans", "density")
# Failures of the weight computation itself; all exit with EXIT_NONCONVERGED.
SOLVER_FAILURES = (NonPositiveDefiniteError, WeightCollapseError, AllWeightsFlooredError)
CSV_BLOCK_ROWS = 8192


def _log(msg):
    print(msg, file=sys.stderr)


def _error_record(exit_code, kind, message):
    """Print the one-line JSON error record on stdout; returns ``exit_code``."""
    print(json.dumps({"error": {"exit_code": exit_code, "kind": kind, "message": message}}))
    return exit_code


def _fail(exit_code, label, exc):
    """Report ``exc`` as a one-line ``label: reason`` on stderr plus the error record."""
    _log(f"{label}: {exc}")
    return _error_record(exit_code, type(exc).__name__, str(exc))


def _write_json(path, payload):
    with open(path, "w") as f:
        f.write(json.dumps(_jsonify(payload), sort_keys=True, indent=1) + "\n")


def _write_csv(path, header, columns, index=False):
    """Write ``header`` and then one row per entry of the 1-D ``columns``.

    Format: an optional leading integer row index (``%d``), then every
    column as ``%.17g`` (enough digits for a bit-exact round trip), comma
    separated, LF line endings. Rows are formatted CSV_BLOCK_ROWS at a time,
    which keeps the Python floats and strings of one block in memory, not
    those of the whole file.
    """
    n = len(columns[0])
    fmt = ",".join((["%d"] if index else []) + ["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n)
            block = [c[start:stop].tolist() for c in columns]
            if index:
                block.insert(0, range(start, stop))
            f.writelines(map(fmt.__mod__, zip(*block)))


def _write_weights_csv(path, initial, predicted, weights):
    d_in = initial.shape[1]
    d_out = predicted.shape[1]
    header = (
        ["index"]
        + [f"x{k + 1}" for k in range(d_in)]
        + [f"q{k + 1}" for k in range(d_out)]
        + ["weight"]
    )
    columns = [initial[:, k] for k in range(d_in)] + [predicted[:, k] for k in range(d_out)]
    _write_csv(path, header, columns + [np.asarray(weights)], index=True)


def _write_pushforward_csv(path, pushforward, target_cdf, box, grid):
    pts = grid_points([np.linspace(box.lower[k], box.upper[k], grid) for k in range(box.dim)])
    f_method = wedf_eval_many(pushforward, pts)
    f_target = target_cdf(pts) if target_cdf is not None else None
    header = [f"q{k + 1}" for k in range(box.dim)] + ["f_method"]
    columns = [pts[:, k] for k in range(box.dim)] + [f_method]
    if f_target is not None:
        header.append("f_target")
        columns.append(f_target)
    _write_csv(path, header, columns)


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


def _solve_density(cfg):
    """The density method on the config's initial and observed samples."""
    observed = cfg.target.observed_or_fail
    initial, predicted, _ = _sample_pairs(cfg, np.random.SeedSequence((cfg.seed, 10)))
    return solve_density(initial, predicted, observed, rule=cfg.kde_rule)


def _run_solve(method, cfg, out_dir):
    t_start = time.perf_counter()
    meta = {
        "version": __version__,
        "method": method,
        "config": cfg.raw,
        "seed": cfg.seed,
    }
    meta["n_initial"] = cfg.n_initial if cfg.model.live else cfg.model.initial.n

    if method == "naive":
        initial, predicted, _ = _sample_pairs(cfg, np.random.SeedSequence((cfg.seed, 10)))
        sol = solve_naive(initial, predicted, cfg.target.target, padding=cfg.padding,
                          data_box=cfg.data_box)
    elif method in ("binning-grid", "binning-kmeans"):
        if method == "binning-grid":
            cells = cfg.cells_per_dim or cfg.p
            dim = cfg.target.target.dim
            if cfg.cells_per_dim and len(cells) != dim:
                raise ConfigError(
                    "/method/cells_per_dim", f"{len(cells)} cell counts for {dim}-D data"
                )
            if cfg.partition_box is not None:
                partition = make_regular_grid(cfg.partition_box, cells)
            else:
                partition = ("grid", cells)
        else:
            if cfg.p > meta["n_initial"]:
                raise ConfigError(
                    "/method/p", f"{cfg.p} k-means cells for {meta['n_initial']} samples"
                )
            partition = ("kmeans", cfg.p)
        initial, predicted, draw = _sample_pairs(cfg, cfg.seed)
        sol = solve_binning(
            initial, predicted, cfg.target.target, partition, draw=draw, seed=cfg.seed,
            n_batch=cfg.n_batch, min_fill=cfg.min_fill, weight_floor=cfg.weight_floor,
            padding=cfg.padding, data_box=cfg.data_box,
        )
        meta.update(p=sol.p, partition_kind=sol.partition.kind, n_batches=sol.n_batches,
                    n_total=sol.n, cell_counts_min=int(sol.counts.min()))
    elif method == "density":
        sol = _solve_density(cfg)
        _log(f"diagnostic: {sol.diagnostic:.6f}")
        meta.update(diagnostic=sol.diagnostic, violations=sol.n_violations,
                    kde_rule=str(cfg.kde_rule), m_observed=sol.observed_kde.n)
    else:
        raise ConfigError("/method", f"unknown method {method!r}")

    weights, qp = sol.weights, sol.qp_solution
    meta["weight_normalization"] = weights.normalization.value
    meta["solver"] = _solver_meta(qp) if qp is not None else {}
    box = sol.box
    if box is None:  # the density method fits no QP, so the tail finds its box here
        box = _data_box(sol.predicted.points, cfg.data_box, cfg.padding)
    os.makedirs(out_dir, exist_ok=True)
    _write_weights_csv(
        os.path.join(out_dir, "weights.csv"), sol.initial.points, sol.predicted.points,
        weights.weights,
    )
    _write_pushforward_csv(
        os.path.join(out_dir, "pushforward.csv"),
        sol.pushforward(),
        as_cdf_callable(cfg.target.target),
        box,
        cfg.pushforward_grid,
    )
    meta["timing"] = {"wall_clock_s": time.perf_counter() - t_start}
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    if qp is not None and not qp.converged:
        reason = "solver did not converge; results flagged in meta.json"
        _log(reason)
        return _error_record(EXIT_NONCONVERGED, "NotConverged", reason)
    return EXIT_OK


def _solver_meta(qp_solution):
    """The solver block of meta.json: every KKT residual both absolute and
    divided by the certificate's scale, max(|b|_inf, |nu|/l)."""
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


def _cmd_solve(args):
    cfg = build_solve_config(load_config(args.config), base_dir=os.path.dirname(args.config) or ".")
    try:
        return _run_solve(args.method, cfg, args.out)
    except DataBoxError as exc:
        raise ConfigError("/method/data_box", str(exc)) from None
    except PartitionBoxError as exc:
        raise ConfigError("/method/partition_box", str(exc)) from None
    except UnreachableCellError as exc:
        return _fail(EXIT_UNREACHABLE, "unreachable cell", exc)
    except SOLVER_FAILURES as exc:
        return _fail(EXIT_NONCONVERGED, "solver failure", exc)


def _cmd_diagnose(args):
    cfg = build_solve_config(load_config(args.config), base_dir=os.path.dirname(args.config) or ".")
    sol = _solve_density(cfg)
    print(json.dumps({"diagnostic": sol.diagnostic, "violations": sol.n_violations}))
    return EXIT_OK if 0.8 <= sol.diagnostic <= 1.2 else EXIT_DIAGNOSTIC


def _cmd_convergence(args):
    if args.threads < 1:
        raise ConfigError("--threads", f"expected an integer >= 1, got {args.threads}")
    spec = build_convergence_spec(load_config(args.spec), base_dir=os.path.dirname(args.spec) or ".")
    t_start = time.perf_counter()
    try:
        result = run_convergence(spec, progress=_log, threads=args.threads)
    except UntrustworthyBaselineError as exc:
        return _fail(EXIT_DIAGNOSTIC, "aborted", exc)
    except SOLVER_FAILURES as exc:
        return _fail(EXIT_NONCONVERGED, "solver failure", exc)
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
    p_conv.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, f"config error at {exc.pointer}", exc)


if __name__ == "__main__":
    raise SystemExit(main())
