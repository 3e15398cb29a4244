"""The five benchmark workloads: seeded inputs and output checks.

Each workload is one ``dcinv`` CLI command. ``command`` turns an input seed
into the command's arguments and writes the JSON config (or convergence
spec) that the command reads; ``check`` inspects what the command wrote and
returns the problems it found, and ``digests`` hashes the result files for
the determinism guard. Checks and digests read the files as streams, so the
benchmark's own memory stays small beside the command's peak RSS.

Full sizes are the ones the workloads are defined at. Smoke sizes run the
same code paths in under a second each (density_exact, about 4 s, keeps its
full size); the worker uses them to warm up, and
``run.py --smoke`` runs them as the benchmark's own test.
"""

import hashlib
import json
import math
import os

ROD = {"kind": "heat_rod"}
MIXTURE_MODEL = {"kind": "heat_rod", "t_star": 0.3, "standard_physics": True}
MIXTURE_COMPONENTS = [[0.5, 0.585, 0.59], [0.1, 0.59, 0.595], [0.4, 0.595, 0.6]]
ROD_TARGET = {"kind": "normal", "mu": 2.39, "sigma": 0.035}

# Criterion 6 of the acceptance suite: the binned push-forward of the
# mixture problem stays within 1e-2 of the target CDF in sup norm.
MIXTURE_SUP_ERR_BOUND = 0.01
DIAGNOSTIC_RANGE = (0.8, 1.2)
NORMALIZATION_TOL = 1e-8

DIGESTED_FILES = ("weights.csv", "pushforward.csv", "result.json")


def _rod_naive(seed, smoke):
    n, m = (150, 1000) if smoke else (1500, 10_000)
    return ["solve", "--method", "naive"], {
        "seed": seed,
        "model": ROD,
        "initial": {"kind": "uniform", "n": n},
        "target": dict(ROD_TARGET, m=m),
    }


def _rod_naive_large(seed, smoke):
    return ["solve", "--method", "naive"], {
        "seed": seed,
        "model": ROD,
        "initial": {"kind": "uniform", "n": 300 if smoke else 6000},
        "target": dict(ROD_TARGET, m=None),
    }


def _mixture_binning(seed, smoke):
    return ["solve", "--method", "binning-grid"], {
        "seed": seed,
        "model": MIXTURE_MODEL,
        "initial": {"kind": "uniform", "n": 400 if smoke else 10_000},
        "target": {"kind": "mixture", "components": MIXTURE_COMPONENTS, "m": None},
        "method": {"p": 200 if smoke else 400, "partition_box": [[0.575, 0.61]]},
    }


def _density_exact(seed, smoke):
    # No smaller smoke size: at n = m = 3000 the diagnostic's sampling spread
    # left [0.8, 1.2] on 3 of 61 seeds; at 10 000 it stayed within 0.82-1.09.
    n = 10_000
    return ["solve", "--method", "density"], {
        "seed": seed,
        "model": MIXTURE_MODEL,
        "initial": {"kind": "uniform", "n": n},
        "target": {"kind": "mixture", "components": MIXTURE_COMPONENTS, "m": n},
    }


def _convergence(seed, smoke):
    if smoke:
        sizes = {"n_grid": [300], "p_grid": [5], "trials": 1,
                 "m_observed": 3000, "baseline_n": 3000, "baseline_trials": 1}
    else:
        sizes = {"n_grid": [1000, 3000, 10_000], "p_grid": [20, 60, 160], "trials": 10,
                 "m_observed": 100_000, "baseline_n": 100_000, "baseline_trials": 2}
    # One worker process: with two shared cores a pool would time the scheduler.
    return ["convergence", "--threads", "1"], dict(sizes, seed=seed)


BUILDERS = {
    "rod_naive": _rod_naive,
    "rod_naive_large": _rod_naive_large,
    "mixture_binning": _mixture_binning,
    "density_exact": _density_exact,
    "convergence": _convergence,
}
NAMES = tuple(BUILDERS)


def input_seed(seed, index):
    """Config seed of the ``index``-th input of a run with workload seed ``seed``."""
    return seed * 1000 + index


def command(name, seed, smoke, work_dir, tag):
    """Write the input file for one command and return its CLI argv and output dir."""
    args, config = BUILDERS[name](seed, smoke)
    config_path = os.path.join(work_dir, f"{tag}.json")
    out_dir = os.path.join(work_dir, f"{tag}.out")
    with open(config_path, "w") as f:
        json.dump(config, f)
    flag = "--spec" if args[0] == "convergence" else "--config"
    return args + [flag, config_path, "--out", out_dir], out_dir


def _rows(path, names):
    """Yield the named float columns of each row of a CSV written by the CLI,
    parsed from the line ends, one row at a time."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        keep = [header.index(n) - len(header) for n in names]
        for line in f:
            fields = line.rsplit(",", -min(keep))
            yield [float(fields[k]) for k in keep]


def pushforward_sup_err(out_dir):
    """max |f_method - f_target| over the rows of pushforward.csv."""
    rows = _rows(os.path.join(out_dir, "pushforward.csv"), ["f_method", "f_target"])
    return max(abs(f_method - f_target) for f_method, f_target in rows)


def _weight_sum(out_dir):
    """(exact sum, count) of the weights in weights.csv."""
    count = 0

    def weights():
        nonlocal count
        for (w,) in _rows(os.path.join(out_dir, "weights.csv"), ["weight"]):
            count += 1
            yield w

    return math.fsum(weights()), count


def digests(out_dir):
    out = {}
    for name in DIGESTED_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                out[name] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


def output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))


def check(name, out_dir):
    """Check a finished command's outputs; returns (problems, accuracy or None)."""
    if name == "convergence":
        return _check_convergence(out_dir), None
    problems = []
    with open(os.path.join(out_dir, "meta.json")) as f:
        meta = json.load(f)
    if name != "density_exact" and meta["solver"].get("converged") is not True:
        problems.append("meta.json: solver did not converge")
    total, count = _weight_sum(out_dir)
    if name in ("rod_naive", "rod_naive_large"):
        mean = total / count
        if abs(mean - 1.0) > NORMALIZATION_TOL:
            problems.append(f"weights.csv: mean weight {mean!r}, expected 1")
    elif abs(total - 1.0) > NORMALIZATION_TOL:
        problems.append(f"weights.csv: weights sum to {total!r}, expected 1")
    sup_err = pushforward_sup_err(out_dir)
    if not math.isfinite(sup_err):
        problems.append(f"pushforward.csv: sup error {sup_err!r}")
    if name == "mixture_binning" and not sup_err <= MIXTURE_SUP_ERR_BOUND:
        problems.append(f"pushforward sup error {sup_err:.3g} > {MIXTURE_SUP_ERR_BOUND}")
    if name == "density_exact":
        diag = meta.get("diagnostic")
        if not (isinstance(diag, float) and DIAGNOSTIC_RANGE[0] <= diag <= DIAGNOSTIC_RANGE[1]):
            problems.append(f"meta.json: diagnostic {diag!r} outside {list(DIAGNOSTIC_RANGE)}")
    return problems, sup_err


def _check_convergence(out_dir):
    problems = []
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    for key, surface in sorted(result["surfaces"].items()):
        values = [v for row in surface for v in row]
        if not values or not all(isinstance(v, float) and math.isfinite(v) for v in values):
            problems.append(f"result.json: surface {key} is empty or not finite")
    for diag in result["baselines"]["diagnostics"]:
        if not DIAGNOSTIC_RANGE[0] <= diag <= DIAGNOSTIC_RANGE[1]:
            problems.append(f"result.json: baseline diagnostic {diag!r} outside {list(DIAGNOSTIC_RANGE)}")
    return problems
