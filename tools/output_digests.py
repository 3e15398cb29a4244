"""SHA-256 digests of every result file of the benchmark workloads' commands.

    python3 tools/output_digests.py --src DIR --out FILE

Runs 20 CLI commands in this process against the ``dcinv`` package under
``DIR/src``: the five ``perfbench/workloads.py`` workloads, at smoke and at
full size, at input seeds 31000 and 47000, built with
``workloads.command``. For each command it hashes ``weights.csv``,
``pushforward.csv``, ``result.json``, every ``surface_*.csv`` and
``meta.json`` without its ``timing`` block (the only part that holds wall
time), and writes ``{command: {file: sha256}}`` to FILE as sorted JSON.

A change keeps the outputs byte-identical when the files written for two
checkouts are equal:

    python3 tools/output_digests.py --src OLD_CHECKOUT --out old.json
    python3 tools/output_digests.py --src . --out new.json
    diff old.json new.json

The full-size commands take about a minute in total and up to about 1 GB
of memory (rod_naive_large); they run one at a time.
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
    try:
        for name in workloads.NAMES:
            for smoke in (True, False):
                for seed in INPUT_SEEDS:
                    tag = f"{name}-{'smoke' if smoke else 'full'}-{seed}"
                    argv, out_dir = workloads.command(name, seed, smoke, work_dir, tag)
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"{tag}: exit code {code}")
                    digests[tag] = file_digests(out_dir)
                    print(f"{tag}: {len(digests[tag])} files", file=sys.stderr)
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
