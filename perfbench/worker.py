"""One workload process of the benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--smoke]

run.py starts this process; it is not meant to be run by hand. Set-up is
``import dcinv`` and one small QP solve; the process then prints ``ready``
and, unless ``--setup-only``, warms up with one smoke-size run of the
workload's own command and runs that command in a closed loop with one
client through ``dcinv.cli.main`` until the next command would end after
``--seconds`` (at least two commands). The first two commands read the
same input and must write byte-identical results (the determinism guard);
every later command reads an input of its own, so the median spans several
inputs of the seed. Only the ``cli.main`` call is timed; output checks,
digests and clean-up run between commands.

With ``--trace 1`` the commands alternate untraced and traced, two per
input, so the tracing overhead is the difference of their medians and every
traced command must reproduce its untraced twin byte for byte. Before them, smoke-size
runs of ``LAYER_PASS``, which between them call into every layer, check that
the tracer reaches every layer. The per-layer figures count only the spans
and counters of the measured traced commands, so a layer the workload never
calls reads 0; the pass takes about 0.1 s and is timed in the detail output
(``layer_pass_s``).

The last line on stdout is one JSON object with the results.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_runs")
LAYER_PASS = ("rod_naive", "convergence")


def blas_threads(np):
    """OpenBLAS's own thread count, asked through ctypes; None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs CLI commands, times them, and checks and digests their outputs."""

    def __init__(self, cli, work_dir):
        self.cli = cli
        self.work_dir = work_dir
        self.records = []

    def run(self, name, seed, smoke, tag, tracer=None):
        argv, out_dir = workloads.command(name, seed, smoke, self.work_dir, tag)
        record = {"tag": tag, "workload": name, "seed": seed, "smoke": smoke,
                  "traced": tracer is not None, "problems": []}
        stderr = io.StringIO()
        scope = tracer.installed(tag) if tracer else contextlib.nullcontext()
        try:
            with scope, contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                code = self.cli.main(argv)
                record["wall_s"] = time.perf_counter() - start
            if code != 0:
                record["problems"].append(f"exit code {code}")
            else:
                problems, record["sup_err"] = workloads.check(name, out_dir)
                record["problems"] += problems
                record["digests"] = workloads.digests(out_dir)
                record["bytes_written"] = workloads.output_bytes(out_dir)
        except Exception:  # a failing command is counted, and the loop goes on
            record["problems"].append(traceback.format_exc(limit=-3))
        if record["problems"]:
            sys.stderr.write(stderr.getvalue())
            sys.stderr.write(f"{tag}: {record['problems']}\n")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.records.append(record)
        return record

    def failures(self):
        """Failed commands, after comparing the digests of runs of one input."""
        first = {}
        for r in self.records:
            key = (r["workload"], r["seed"], r["smoke"])
            if "digests" in r and first.setdefault(key, r["digests"]) != r["digests"]:
                r["problems"].append(f"outputs differ from the first run of seed {r['seed']}")
        return [r for r in self.records if r["problems"]]


def closed_loop(runner, args, tracer):
    """Measured commands: until the next one would end after ``args.seconds``."""
    start = time.perf_counter()
    costs = []
    i = 0
    while i < 2 or time.perf_counter() - start + statistics.median(costs) <= args.seconds:
        t = time.perf_counter()
        traced = tracer is not None and i % 2 == 1
        index = i // 2 if tracer else max(i - 1, 0)
        runner.run(args.workload, workloads.input_seed(args.seed, index), args.smoke,
                   f"cmd{i}", tracer if traced else None)
        costs.append(time.perf_counter() - t)
        i += 1
    return [r for r in runner.records if r["tag"].startswith("cmd")]


def trace_results(tracer, measured, layer_pass_s):
    plain = [r["wall_s"] for r in measured if not r["traced"] and "wall_s" in r]
    traced = [r for r in measured if r["traced"] and "wall_s" in r]
    tags = {r["tag"] for r in traced}
    layers, covered = tracer.self_times(tags)
    wall = sum(r["wall_s"] for r in traced)
    metrics = tracer.metrics(tags)
    metrics["cli.bytes_written"] = (
        statistics.mean(r.get("bytes_written", 0) for r in traced) if traced else 0.0, "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(plain)
        if traced and plain else 0.0, "s")
    metrics["trace.uncovered_frac"] = (
        (wall - sum(covered.get(r["tag"], 0.0) for r in traced)) / wall if wall else 1.0,
        "ratio")
    detail = {
        "traced_wall_s": [r["wall_s"] for r in traced],
        "plain_wall_s": plain,
        "layer_pass_s": layer_pass_s,
        "layer_share_of_traced_wall": {k: v / wall for k, v in layers.items()} if wall else {},
        "computed_not_measured": ["assembly.h.bytes_computed", "assembly.b.pairs",
                                  "density.kernel_evals"],
    }
    return metrics, detail


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import dcinv
    from dcinv import cli

    if not os.path.abspath(dcinv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dcinv imported from {dcinv.__file__}, not from {SRC}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{args.workload}-")
    try:
        rng = np.random.default_rng(args.seed)
        dcinv.solve_qp(dcinv.assemble_qp(rng.uniform(size=(20, 1)), dcinv.NormalTarget(0.5, 0.1)))
        print("ready", flush=True)
        if args.setup_only:
            return
        runner = Runner(cli, work_dir)
        runner.run(args.workload, workloads.input_seed(args.seed, 999), True, "warmup")
        tracer = None
        layer_pass_s = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            for traced in (None, tracer):  # warm up untraced first
                t = time.perf_counter()
                for name in LAYER_PASS:
                    runner.run(name, workloads.input_seed(args.seed, 999), True,
                               f"layers-{name}", traced)
                layer_pass_s = time.perf_counter() - t
        measured = closed_loop(runner, args, tracer)
        failed = runner.failures()
        result = {
            "attempted": len(runner.records),
            "failed": len(failed),
            "problems": [f"{r['tag']}: {p}" for r in failed for p in r["problems"]],
            "wall_s": [r["wall_s"] for r in measured if "wall_s" in r and not r["traced"]],
            "sup_err": [r["sup_err"] for r in measured if r.get("sup_err") is not None],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(np, scipy),
        }
        if tracer:
            missing = sorted(set(tracing.LAYER_NAMES) - tracer.entered())
            if missing:
                result["problems"].append(f"tracer reached no call in layers {missing}")
            metrics, detail = trace_results(tracer, measured, layer_pass_s)
            result["trace"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            result["trace_detail"] = detail
            tracer.dump(os.path.join(WORK_ROOT, f"trace-{args.workload}.json"))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
