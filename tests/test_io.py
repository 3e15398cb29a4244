import json
import multiprocessing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcinv import core, io
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
        monkeypatch.setattr(core, "cpu_count", lambda: cpus)
        path = tmp_path / f"cpus{cpus}.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == expected
    serial, two_cpus = pool_workers
    assert serial <= 1 and (two_cpus == 2) == (n >= POOLED_ROWS)
    assert multiprocessing.active_children() == []


def test_write_csv_pool_raises_a_worker_error_as_itself(tmp_path, monkeypatch):
    # a str in an object column fails its cast to float64 in the worker that
    # formats the last block
    monkeypatch.setattr(core, "cpu_count", lambda: 2)
    values = np.arange(POOLED_ROWS, dtype=float).astype(object)
    values[-1] = "not a number"
    with pytest.raises(ValueError, match="could not convert string to float") as info:
        write_csv(tmp_path / "t.csv", ["v"], [values])
    assert type(info.value) is ValueError
    assert "raised in a worker process" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


def csv_bytes(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


@pytest.fixture
def vector_only(monkeypatch):
    """Format every block with numpy, however few its rows."""
    monkeypatch.setattr(io, "VECTOR_MIN_ROWS", 1)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.floats(), st.floats(width=32),
                               st.integers(-(2**63), 2**63 - 1), st.booleans()),
                     min_size=1, max_size=40))
def test_write_csv_equals_the_percent_oracle_on_any_row(tmp_path, vector_only, rows):
    # nan, +-inf, subnormals, +-0.0, float32 and bool columns, int64 extremes
    floats, singles, ints, flags = zip(*rows)
    columns = [np.array(floats), np.array(singles, dtype=np.float32),
               np.array(ints, dtype=np.int64), np.array(flags)]
    header = ["f", "s", "i", "b"]
    assert csv_bytes(tmp_path, header, columns) == oracle_text(header, columns).encode()


def float_edges():
    """Values at the edges of the exact window: the nearest doubles to 10^k
    and the four on each side of them, exponents -12, -11, -6 to -3 and 15
    to 18, values whose 18th digit is a tie (x 10^(16-E) =
    M 5^(16-E) 2^(k+16-E) is a half integer when k + 16 - E = -1 and M is
    odd), and both signs of each."""
    rng = np.random.default_rng(97)
    below = above = [10.0 ** np.arange(-13, 20)]
    for _ in range(4):
        below = below + [np.nextafter(below[-1], -np.inf)]
        above = above + [np.nextafter(above[-1], np.inf)]
    near = below + above[1:]
    mantissa = rng.integers(1, 10**6, size=200) / 10**6 + 1.0
    exponents = np.concatenate([mantissa * 10.0**e for e in (-12, -11, -6, -5, -4, -3, 15, 16, 17, 18)])
    odd = rng.integers(2**52, 2**53, size=2000) | 1
    ties = np.concatenate([odd / 4.0, odd / 8.0, odd / 2.0 ** 6, odd * 2.0])
    values = np.concatenate(near + [exponents, ties, [99999999999999984.0, 1e16, 1e17]])
    return np.concatenate([values, -values])


def test_float_edges_cover_ties_and_every_exponent():
    values = float_edges().tolist()
    exponents = [int(("%.16e" % v).split("e")[1]) for v in values]
    assert set(range(-13, 20)) <= set(exponents)
    ties = [v for v, e in zip(values, exponents)
            if -11 <= e <= 16 and (Fraction(v) * Fraction(10) ** (16 - e)).denominator == 2]
    assert len(ties) > 1000


def float_column(kind):
    if kind == "edges":
        return float_edges()
    if kind == "bit-patterns":
        return np.random.default_rng(101).integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
    rng = np.random.default_rng(103)  # log-uniform over the window and past both ends
    return rng.standard_normal(10**5) * 10.0 ** rng.uniform(-14, 19, size=10**5)


@pytest.mark.parametrize("kind", ["edges", "bit-patterns", "log-uniform"])
def test_write_csv_equals_the_percent_oracle_on_float_columns(tmp_path, kind):
    values = float_column(kind)
    assert csv_bytes(tmp_path, ["v"], [values]) == oracle_text(["v"], [values]).encode()


def test_write_csv_equals_the_percent_oracle_on_integer_columns(tmp_path):
    rng = np.random.default_rng(109)
    extremes = [-(2**63), -(2**63) + 1, -1, 0, 1, 9, 10, 99, 100, 2**63 - 1]
    signed = np.concatenate([extremes, rng.integers(-(2**63), 2**63 - 1, size=10**5,
                                                    endpoint=True, dtype=np.int64)])
    unsigned = np.concatenate([np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
                               rng.integers(0, 2**64 - 1, size=signed.size - 3, endpoint=True,
                                            dtype=np.uint64)])
    columns = [signed, unsigned, signed.astype(np.int8), np.arange(signed.size, dtype=np.int32)]
    header = ["i64", "u64", "i8", "i32"]
    # oracle_text gives "%d" to dtype kind "i" only, so the format of the
    # uint64 column is spelled out here
    fmt = "%d,%d,%d,%d\n"
    expected = ",".join(header) + "\n" + "".join(fmt % row for row in zip(*[c.tolist() for c in columns]))
    assert csv_bytes(tmp_path, header, columns) == expected.encode()


@pytest.mark.parametrize("n", [1, io.VECTOR_MIN_ROWS - 1, io.VECTOR_MIN_ROWS])
def test_write_csv_small_and_vector_blocks_agree(tmp_path, n):
    # below VECTOR_MIN_ROWS rows a block is formatted by "%", from there on by numpy
    columns = edge_columns(n)
    header = ["index", "a", "b", "c"]
    assert csv_bytes(tmp_path, header, columns) == oracle_text(header, columns).encode()
