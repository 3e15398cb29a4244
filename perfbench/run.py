"""Benchmark of the dcinv command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --smoke     # every workload, tiny sizes

Run it from the root of a source checkout; it imports ``dcinv`` from
``src/`` there and exits with code 2 if there is none. Each workload is one
``dcinv`` CLI command, run in a closed loop with one client in a process of
its own (see ``worker.py``); ``workloads.py`` builds the inputs from the
seed and checks every output.

Why these workloads (sizes are per command):

- ``rod_naive``: naive solve, rod model, n = 1500 against 10 000 observed
  samples. Hundreds of active-set steps: the solver workload.
- ``rod_naive_large``: naive solve, n = 6000, exact normal target. Two
  solver steps around one dense Cholesky; the only workload where the
  O(l^2) assembly of H and its memory matter.
- ``mixture_binning``: the mixture problem of acceptance criterion 6 with
  binning on 400 cells. The fill loop draws ~600k samples; writing their
  weights dominates. The write-heavy workload.
- ``density_exact``: KDE density-ratio baseline on the mixture problem,
  n = m = 10 000. Exact Gaussian KDE; no QP runs.
- ``convergence``: the (n, p) convergence study with 10 trials on one
  process: empirical b assembly, model series, 90 small QPs and the binned
  KDE.

End-to-end metrics (``--trace 0``), all lower-is-better:

- ``wall_s``: median wall time of one command in a warm process.
- ``setup_s``: median time from starting a fresh workload process until
  ``import dcinv`` and one small QP solve are done, over the measured
  process and ``SETUP_PROBES`` more started only for this.
- ``peak_rss_mb``: peak resident memory of the workload process, in MiB.

The line before the result also gives, per workload, the median
push-forward sup error (``pushforward_sup_err``, max |f_method - f_target|
over pushforward.csv; not defined for ``convergence``), the error rate, the
samples and the environment. The error rate is ``failed / attempted`` of the
result line, over every command the workload process ran, its warm-up run
included: a command fails on a non-zero exit code, an exception, a failed
output check or outputs that differ between two runs of one input.

``--trace 1`` instead reports per-layer self times and counters from spans
around the calls into each dcinv module (``tracing.py``), per traced
command, plus the tracing overhead (median traced minus median untraced
command; with a few commands per run it is within the run's noise) and the
share of traced wall time that no span below ``cli.main`` covers. Only the
measured traced commands count, so a layer the workload never calls reads 0.

The last line on stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0  # one workload run must end within 180 s
SETUP_PROBES = 4  # fresh processes started only to time set-up, besides the measured one


class WorkerError(RuntimeError):
    pass


def git_commit():
    """Commit of the checkout, if it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def worker_env():
    """BLAS and OpenMP threads set to the cores this process may use, whatever the caller set."""
    nproc = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
                MKL_NUM_THREADS=nproc)


def run_worker(argv, env, deadline):
    """Run one worker; return (seconds until it printed ``ready``, its last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE, env=env,
                            cwd=ROOT)
    out = b""
    ready_s = None
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise WorkerError(f"worker {argv} ran past the deadline")
            if not select.select([proc.stdout], [], [], left)[0]:
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready_s is None and b"ready\n" in out:
                ready_s = time.perf_counter() - start
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise WorkerError(f"worker {argv} exited with code {code}")
    return ready_s, out.decode().splitlines()[-1]


def run_workload(name, args, env, deadline):
    """Run one workload; returns (metrics, attempted, failed, detail)."""
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(argv + ["--setup-only"], env, deadline)[0])
    ready_s, line = run_worker(argv, env, deadline)
    setups.append(ready_s)
    res = json.loads(line)
    if not res["wall_s"]:
        raise WorkerError(f"no untraced command of {name} finished")
    if res["problems"] and not res["failed"]:
        res["failed"] = 1  # a failed tracer check fails the run
    detail = {"workload": name, "seed": args.seed, "attempted": res["attempted"],
              "failed": res["failed"], "problems": res["problems"], "env": res["env"]}
    if args.trace:
        metrics = res["trace"]
        detail.update(res["trace_detail"])
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        sup_err = statistics.median(res["sup_err"]) if res["sup_err"] else None
        detail["metrics"] = dict(
            metrics,
            pushforward_sup_err={"value": sup_err, "unit": "1"},
            error_rate={"value": res["failed"] / res["attempted"], "unit": "1"},
        )
        detail["samples"] = {"wall_s": res["wall_s"], "setup_s": setups}
    return metrics, res["attempted"], res["failed"], detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two commands per workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        args.seconds = 0.0
    if not os.path.isfile(os.path.join(ROOT, "src", "dcinv", "__init__.py")):
        print(f"no dcinv sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    env = worker_env()
    commit = git_commit()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            deadline = time.perf_counter() + DEADLINE_S
            m, a, f, detail = run_workload(name, args, env, deadline)
            detail["git_commit"] = commit
            print(json.dumps({"detail": detail}), flush=True)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
