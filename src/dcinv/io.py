"""Sample files and result files: the one module that knows their formats.

CSV (``write_csv``: sample files, ``weights.csv``, ``pushforward.csv``,
``surface_*.csv``): a header row, then one row per entry of the 1-D columns,
an integer column as ``%d`` and any other as ``%.17g`` (a bit-exact round
trip), comma separated, LF line endings. Sample files have the header
``x1,...,xd``; any prefix is accepted when reading. JSON (``write_json``:
``meta.json``, ``result.json``, ``comparison.json``): keys sorted, indent 1,
a trailing newline, numpy scalars and arrays as their ``tolist()``.

Rows are formatted CSV_BLOCK_ROWS at a time. On two or more CPUs of a
platform that can fork, a file of at least 2 * POOL_BLOCKS_PER_WORKER
blocks has its blocks formatted in worker processes, one per
POOL_BLOCKS_PER_WORKER blocks and at most one per CPU this process may run
on, and written in block order, so its bytes are the same as when it is
formatted in process. Of the benchmark's files only a binning solve's
``weights.csv`` on the mixture problem (~600k rows) is that large. A
block's text is larger than a pipe holds, so a worker starts its next
block only once the writer reads its last one (``core.ordered_map``):
memory holds about two blocks' text per worker, never the whole file's.
"""

import csv
import json
import os
from functools import partial

import numpy as np

from .core import SampleSet, as_points, cpu_count, ordered_map

CSV_BLOCK_ROWS = 8192
POOL_BLOCKS_PER_WORKER = 4  # blocks per worker process, below which a worker costs more than it saves


class OutputDirError(ValueError):
    """An output directory path names an existing file or lies under one."""


def _format_rows(fmt, block):
    """The text of the rows of ``block``, a list of equal-length 1-D arrays."""
    return "".join(map(fmt.__mod__, zip(*[c.tolist() for c in block])))


def write_csv(path, header, columns):
    """Write ``header`` and then one row per entry of the 1-D arrays ``columns``,
    formatted CSV_BLOCK_ROWS rows at a time, in worker processes where the
    module docstring says."""
    n = len(columns[0])
    fmt = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns) + "\n"
    blocks = [[c[start:start + CSV_BLOCK_ROWS] for c in columns]
              for start in range(0, n, CSV_BLOCK_ROWS)]
    workers = min(cpu_count(), len(blocks) // POOL_BLOCKS_PER_WORKER)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(ordered_map(partial(_format_rows, fmt), blocks, workers))


def _tolist(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_text(payload):
    """The JSON text of ``payload`` as every result file holds it."""
    return json.dumps(payload, sort_keys=True, indent=1, default=_tolist) + "\n"


def write_json(path, payload):
    with open(path, "w") as f:
        f.write(json_text(payload))


def check_output_dir(path):
    """Raise OutputDirError unless ``path`` is a directory or can be made one."""
    head = os.path.abspath(path)
    while not os.path.exists(head):  # the nearest existing ancestor
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise OutputDirError(f"{head} exists and is not a directory")


def make_output_dir(path):
    """Create the directory ``path`` and its parents unless they exist."""
    check_output_dir(path)
    os.makedirs(path, exist_ok=True)


def save_samples(path, samples, prefix="x"):
    """Write a sample set to CSV with header ``<prefix>1..<prefix>d``."""
    pts = as_points(samples)
    write_csv(path, [f"{prefix}{k + 1}" for k in range(pts.shape[1])], list(pts.T))


def load_samples(path):
    """Read a sample set from CSV; dimension comes from the header."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        dim = len(header)
        if dim == 0:
            raise ValueError(f"{path}: empty header row")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no samples")
    return SampleSet(rows)


def load_pairs(param_csv, data_csv):
    """Read row-aligned (parameter, data) sample files.

    Row i of the parameter file and row i of the data file describe the same
    model evaluation. Both files must have the same number of rows.
    """
    params = load_samples(param_csv)
    data = load_samples(data_csv)
    if params.n != data.n:
        raise ValueError(
            f"row-count mismatch: {param_csv} has {params.n} rows, "
            f"{data_csv} has {data.n}"
        )
    return params, data
