import json

import numpy as np
import pytest

from dcinv.io import (
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
