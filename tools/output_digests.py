"""SHA-256 digests of every result file of the benchmark workloads' commands
and of a few small commands that cover the rest of the ``solve`` front end.

    python3 tools/output_digests.py --src DIR --out FILE

Runs 27 CLI commands in this process against the ``dcinv`` package under
``DIR/src``, each at input seeds 31000 and 47000 (54 runs): the five
``perfbench/workloads.py`` workloads at smoke and at full size, built with
``workloads.command``, and the seventeen ``EXTRA`` commands defined here
(binning-kmeans; a live binning-grid run whose fill loop draws several
batches; a naive solve of the standard-physics rod series at truncation
2000, whose series stops near term 60 as mixture_binning's stops near
term 12 (``HeatRod.qoi``); a ``pairs`` model read from CSV files, with 1-D data under naive,
binning-grid, binning-kmeans, density and density with a narrow fixed
bandwidth, with 1-D data of both signs from |q| = 1e-8 to 1e19 and
negative parameters under naive, with 2-D data under naive,
binning-grid, density and density with a narrow fixed bandwidth, and with
2-D data whose first 20 rows repeat under naive; a
``method.data_box`` override under naive and binning-grid; a convergence
spec that sets a rod key, an exact target and k-means cells, which the
workloads' specs, setting only sizes and the seed, leave at their defaults).
For each command it hashes ``weights.csv``, ``pushforward.csv``,
``result.json``, every ``surface_*.csv`` and ``meta.json`` without its
``timing`` block (the only part that holds wall time), and writes
``{command: {file: sha256}}`` to FILE as sorted JSON.

A change keeps the outputs byte-identical when the files written for two
checkouts are equal:

    python3 tools/output_digests.py --src OLD_CHECKOUT --out old.json
    python3 tools/output_digests.py --src . --out new.json
    diff old.json new.json

The output contract is that every hashed file stays byte-identical. Two
parts of it are easy to break unseen: the exact KDE skips, at every
dimension, only kernels that are +0.0 in any order, so
``pairs_density_narrow``, whose observed-KDE windows are empty at some
predicted values and partial at the rest, and ``pairs_2d_density_narrow``,
whose windows all leave out some samples, equal a checkout that sums every
kernel; and ``meta.json`` holds nothing that depends on the host, so only
its ``timing`` block is left out. ``CHANGES.md`` names the runs and the
bounds of each change that was allowed to move the last bits of outputs.

On two or more CPUs the exact KDE of 1-D data evaluates its query rows in
worker processes once they fill 48 blocks (``density.KdeModel.pdf``). Of
these runs only ``density_exact``'s, smoke and full size alike (both at
n = 10 000), are that large; the pairs commands have 300 predicted samples.
Pooled narrow, partial and empty windows are covered by
``tests/test_density.py::test_pdf_exact_pooled_bit_equal_to_reference``,
not by these runs.

The commands run one at a time. All 54 take about 6 s on 2 CPUs and
peak at about 115 MiB of memory (mixture_binning, then density_exact).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUT_SEEDS = (31000, 47000)
HASHED = ("weights.csv", "pushforward.csv", "result.json")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_digests(out_dir):
    """{file name: SHA-256} of the result files in ``out_dir``."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name in HASHED or (name.startswith("surface_") and name.endswith(".csv")):
            with open(path, "rb") as f:
                out[name] = _sha256(f.read())
        elif name == "meta.json":
            with open(path) as f:
                meta = json.load(f)
            meta.pop("timing", None)
            out[name] = _sha256(json.dumps(meta, sort_keys=True).encode())
    return out


ROD = {"kind": "heat_rod"}
ROD_TARGET = {"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": 2000}
PAIRS = {"kind": "pairs", "param_csv": "pairs_x.csv", "data_csv": "pairs_q.csv"}
PAIRS_2D = {"kind": "pairs", "param_csv": "pairs_x.csv", "data_csv": "pairs_q2.csv"}
PAIRS_2D_REPEATS = {"kind": "pairs", "param_csv": "pairs_x_rep.csv", "data_csv": "pairs_q2_rep.csv"}
PAIRS_WIDE = {"kind": "pairs", "param_csv": "pairs_x_neg.csv", "data_csv": "pairs_q_wide.csv"}
PAIRS_TARGET = {"kind": "normal", "mu": 0.6, "sigma": 0.15, "m": 1000}
PAIRS_WIDE_TARGET = {"kind": "normal", "mu": 0.0, "sigma": 1e18, "m": 1000}
PAIRS_2D_TARGET = {"kind": "samples", "csv": "observed_q2.csv"}
# name -> (solve method or "convergence", config or spec without its seed)
EXTRA = {
    "rod_kmeans": ("binning-kmeans", {
        "model": ROD, "initial": {"kind": "uniform", "n": 1000}, "target": ROD_TARGET,
        "method": {"p": 30}}),
    # at_least_one on 150 cells starves the tail cells: 6-8 fill batches of 100
    "rod_grid_fill": ("binning-grid", {
        "model": ROD, "initial": {"kind": "uniform", "n": 500}, "target": ROD_TARGET,
        "method": {"p": 150, "n_batch": 100, "min_fill": "at_least_one"}}),
    "rod_naive_data_box": ("naive", {
        "model": ROD, "initial": {"kind": "uniform", "n": 300}, "target": ROD_TARGET,
        "method": {"data_box": [[2.2, 2.6]]}}),
    "rod_grid_data_box": ("binning-grid", {
        "model": ROD, "initial": {"kind": "uniform", "n": 1000}, "target": ROD_TARGET,
        "method": {"p": 30, "data_box": [[2.2, 2.6]]}}),
    # the series stops near term 60 of 2000 here, near term 12 on mixture_binning
    "rod_std_long_naive": ("naive", {
        "model": {"kind": "heat_rod", "standard_physics": True, "truncation": 2000},
        "initial": {"kind": "uniform", "n": 300},
        "target": {"kind": "normal", "mu": 1.199997, "sigma": 4e-6, "m": 2000}}),
    "pairs_naive": ("naive", {"model": PAIRS, "target": PAIRS_TARGET}),
    "pairs_grid": ("binning-grid", {"model": PAIRS, "target": PAIRS_TARGET, "method": {"p": 20}}),
    "pairs_kmeans": ("binning-kmeans", {"model": PAIRS, "target": PAIRS_TARGET, "method": {"p": 20}}),
    # negative parameters and data from -1e19 to 1e19 with |q| down to 1e-8:
    # every sign, both "%.17g" forms and values outside the CSV writer's
    # exact window (formatted by "%")
    "pairs_wide_naive": ("naive", {"model": PAIRS_WIDE, "target": PAIRS_WIDE_TARGET}),
    "pairs_density": ("density", {"model": PAIRS, "target": PAIRS_TARGET}),
    # kernel reach 38.6 h = 0.12: the observed KDE's windows are empty at the
    # largest predicted values and leave out some samples at all the others
    "pairs_density_narrow": ("density", {
        "model": PAIRS, "target": PAIRS_TARGET, "method": {"kde_rule": 0.003}}),
    "pairs_2d_naive": ("naive", {"model": PAIRS_2D, "target": PAIRS_2D_TARGET}),
    # the first 20 pairs appear twice: 20 repeated rows in a d = 2 fit
    "pairs_2d_repeats_naive": ("naive", {"model": PAIRS_2D_REPEATS, "target": PAIRS_2D_TARGET}),
    "pairs_2d_grid": ("binning-grid", {
        "model": PAIRS_2D, "target": PAIRS_2D_TARGET, "method": {"cells_per_dim": [5, 4]}}),
    # the 2-D push-forward table dominates a density run: 64 cells keep it short
    "pairs_2d_density": ("density", {
        "model": PAIRS_2D, "target": PAIRS_2D_TARGET, "output": {"pushforward_grid": 64}}),
    # kernel reach 38.6 h = 0.39 on the first coordinate: every window of
    # both KDEs leaves out some samples
    "pairs_2d_density_narrow": ("density", {
        "model": PAIRS_2D, "target": PAIRS_2D_TARGET, "method": {"kde_rule": 0.01},
        "output": {"pushforward_grid": 64}}),
    # baseline diagnostics 0.96-0.97 at both input seeds, inside DIAGNOSTIC_GUARD
    "rod_convergence_kmeans": ("convergence", {
        "model": {"kind": "heat_rod", "truncation": 40},
        "target": {"kind": "uniform", "low": 2.30, "high": 2.45},
        "partition_kind": "kmeans", "n_grid": [200, 400], "p_grid": [5, 10], "trials": 2,
        "m_observed": 2000, "baseline_n": 2000, "baseline_trials": 2}),
}


def _write_samples(path, prefix, pts):
    with open(path, "w") as f:
        f.write(",".join(f"{prefix}{k + 1}" for k in range(pts.shape[1])) + "\n")
        f.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in pts)


def _extra_commands(seed, work_dir):
    """Write the pair and observed CSV files and the configs of the EXTRA
    commands for one input seed; yields (tag, argv, output dir)."""
    data_dir = os.path.join(work_dir, f"extra-{seed}")
    os.makedirs(data_dir)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0, size=(300, 2))
    q = lam[:, :1] + 0.5 * lam[:, 1:] ** 2
    # componentwise monotone maps: every grid cell of the 2-D data is reachable
    q2 = np.column_stack([np.exp(lam[:, 0]), lam[:, 1] + 0.5 * lam[:, 1] ** 2])
    _write_samples(os.path.join(data_dir, "pairs_x.csv"), "x", lam)
    _write_samples(os.path.join(data_dir, "pairs_q.csv"), "q", q)
    _write_samples(os.path.join(data_dir, "pairs_q2.csv"), "q", q2)
    _write_samples(os.path.join(data_dir, "pairs_x_rep.csv"), "x", np.concatenate([lam, lam[:20]]))
    _write_samples(os.path.join(data_dir, "pairs_q2_rep.csv"), "q", np.concatenate([q2, q2[:20]]))
    _write_samples(os.path.join(data_dir, "pairs_x_neg.csv"), "x", -lam)
    wide = np.where(lam[:, 1:] < 0.5, -1.0, 1.0) * 10.0 ** (27.0 * lam[:, :1] - 8.0)
    _write_samples(os.path.join(data_dir, "pairs_q_wide.csv"), "q", wide)
    _write_samples(os.path.join(data_dir, "observed_q2.csv"), "q",
                   q2[rng.choice(300, size=200)] + rng.normal(0.0, 0.02, size=(200, 2)))
    for name, (method, config) in EXTRA.items():
        tag = f"{name}-{seed}"
        config_path = os.path.join(data_dir, f"{name}.json")
        with open(config_path, "w") as f:
            json.dump(dict(config, seed=seed), f)
        out_dir = os.path.join(work_dir, f"{tag}.out")
        if method == "convergence":  # one process, as the convergence workload runs
            argv = ["convergence", "--threads", "1", "--spec", config_path]
        else:
            argv = ["solve", "--method", method, "--config", config_path]
        yield tag, argv + ["--out", out_dir], out_dir


def _import_package(src):
    """Import ``dcinv`` from ``src``; fails if another copy is already loaded."""
    sys.path.insert(0, src)
    import dcinv.cli

    loaded = os.path.dirname(os.path.abspath(dcinv.cli.__file__))
    if loaded != os.path.join(os.path.abspath(src), "dcinv"):
        raise SystemExit(f"dcinv was imported from {loaded}, not from {src}")
    return dcinv.cli


def run_all(src):
    cli = _import_package(src)
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import workloads

    digests = {}
    work_dir = tempfile.mkdtemp(prefix="dcinv-digests-")

    def run(tag, argv, out_dir):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{tag}: exit code {code}")
        digests[tag] = file_digests(out_dir)
        print(f"{tag}: {len(digests[tag])} files", file=sys.stderr)

    try:
        for name in workloads.NAMES:
            for smoke in (True, False):
                for seed in INPUT_SEEDS:
                    tag = f"{name}-{'smoke' if smoke else 'full'}-{seed}"
                    run(tag, *workloads.command(name, seed, smoke, work_dir, tag))
        for seed in INPUT_SEEDS:
            for tag, argv, out_dir in _extra_commands(seed, work_dir):
                run(tag, argv, out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="checkout whose src/ holds dcinv")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    digests = run_all(os.path.join(args.src, "src"))
    with open(args.out, "w") as f:
        f.write(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    n_files = sum(len(files) for files in digests.values())
    print(f"{len(digests)} commands, {n_files} files -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
