import json
import multiprocessing

import numpy as np
import pytest

from dcinv import io
from dcinv.io import (
    CSV_BLOCK_ROWS,
    POOL_BLOCKS_PER_WORKER,
    OutputDirError,
    json_text,
    load_samples,
    make_output_dir,
    save_samples,
    write_csv,
    write_json,
)

EDGE = [0.0, -0.0, 5e-324, -1e-300, 0.1, 1 / 3, 2.0**53, -1.7976931348623157e308]


def test_save_samples_writes_lf_endings_and_round_trips_bit_exact(tmp_path):
    rng = np.random.default_rng(29)
    pts = rng.standard_normal((40, 2)) * 10.0 ** rng.uniform(-300, 300, size=(40, 2))
    pts[: len(EDGE), 0] = EDGE
    path = tmp_path / "q.csv"
    save_samples(path, pts, prefix="q")
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 41
    assert raw.startswith(b"q1,q2\n0,")
    back = load_samples(path).points
    assert np.array_equal(back, pts)
    assert np.array_equal(np.signbit(back), np.signbit(pts))


def test_write_csv_formats_integer_columns_as_integers(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "v"], [np.array([3, 10**12]), np.array([0.5, 0.1])])
    assert path.read_text() == "n,v\n3,0.5\n1000000000000,0.10000000000000001\n"


def test_json_writes_numpy_values_as_plain_ones(tmp_path):
    payload = {"b": np.float64(0.1), "a": [np.int64(3), np.array([[1.5, -0.0]])],
               "c": (np.bool_(True), None)}
    plain = {"b": 0.1, "a": [3, [[1.5, -0.0]]], "c": [True, None]}
    assert json_text(payload) == json.dumps(plain, sort_keys=True, indent=1) + "\n"
    write_json(tmp_path / "p.json", payload)
    assert (tmp_path / "p.json").read_text() == json_text(payload)
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        json_text({"x": object()})


def test_make_output_dir_rejects_a_path_under_a_file(tmp_path):
    (tmp_path / "f").write_text("")
    for path in (tmp_path / "f", tmp_path / "f" / "a" / "b"):
        with pytest.raises(OutputDirError, match="exists and is not a directory"):
            make_output_dir(path)
    make_output_dir(tmp_path / "d" / "e")
    make_output_dir(tmp_path / "d" / "e")  # an existing directory is fine
    assert (tmp_path / "d" / "e").is_dir()


# with two workers, the first row count whose file is formatted in the pool
POOLED_ROWS = (2 * POOL_BLOCKS_PER_WORKER - 1) * CSV_BLOCK_ROWS + 1


def edge_columns(n):
    """An integer column and three float columns holding nan, +-inf, -0.0,
    subnormals and values of every magnitude."""
    rng = np.random.default_rng(n)
    ints = rng.integers(-(2**62), 2**62, size=n)
    floats = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-320, 300, size=(3, n))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, *EDGE])
    for k, col in enumerate(floats):
        picks = rng.integers(0, n, size=min(n, 64)) if n else []
        col[picks] = special[(np.arange(len(picks)) + k) % len(special)]
    return [ints, *floats]


def oracle_text(header, columns):
    """The file, row by row, with no blocks and no pool."""
    fmt = ",".join("%d" if c.dtype.kind == "i" else "%.17g" for c in columns) + "\n"
    rows = zip(*[c.tolist() for c in columns])
    return ",".join(header) + "\n" + "".join(fmt % row for row in rows)


@pytest.fixture
def pool_workers(monkeypatch):
    """The worker counts ``write_csv`` asks ``ordered_map`` for."""
    asked = []
    real = io.ordered_map

    def recording_map(fn, payloads, workers):
        asked.append(workers)
        return real(fn, payloads, workers)

    monkeypatch.setattr(io, "ordered_map", recording_map)
    return asked


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                               POOLED_ROWS - 1, POOLED_ROWS])
def test_write_csv_pooled_and_serial_files_are_byte_identical(tmp_path, monkeypatch,
                                                              pool_workers, n):
    header = ["index", "a", "b", "c"]
    columns = edge_columns(n)
    expected = oracle_text(header, columns).encode()
    for cpus in (1, 2):
        monkeypatch.setattr(io, "cpu_count", lambda: cpus)
        path = tmp_path / f"cpus{cpus}.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == expected
    serial, two_cpus = pool_workers
    assert serial <= 1 and (two_cpus == 2) == (n >= POOLED_ROWS)
    assert multiprocessing.active_children() == []


def test_write_csv_pool_raises_a_worker_error_as_itself(tmp_path, monkeypatch):
    # "%.17g" of a str raises in the worker that formats the last block
    monkeypatch.setattr(io, "cpu_count", lambda: 2)
    values = np.arange(POOLED_ROWS, dtype=float).astype(object)
    values[-1] = "not a number"
    with pytest.raises(TypeError, match="must be real number, not str") as info:
        write_csv(tmp_path / "t.csv", ["v"], [values])
    assert type(info.value) is TypeError
    assert multiprocessing.active_children() == []
