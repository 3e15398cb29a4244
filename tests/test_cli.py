import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from dcinv import assembly, binning, cli, config, core, density, experiments, io, solver
from dcinv.cli import main
from dcinv.core import BoxScaler, SampleSet, WeightedEdf, ordered_map
from dcinv.edf import wedf_eval_many
from dcinv.io import save_samples
from dcinv.models import HEAT_ROD_OBSERVED_MU, HEAT_ROD_OBSERVED_SIGMA, HEAT_ROD_VIOLATION_MU
from dcinv.targets import NormalTarget


def write_config(path, **overrides):
    cfg = {
        "seed": 11,
        "model": {"kind": "heat_rod"},
        "initial": {"kind": "uniform", "n": 400},
        "target": {
            "kind": "normal",
            "mu": HEAT_ROD_OBSERVED_MU,
            "sigma": HEAT_ROD_OBSERVED_SIGMA,
            "m": 3000,
        },
        "method": {"p": 20, "min_fill": "none"},
        "output": {"pushforward_grid": 64},
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def read_files(out_dir):
    contents = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            contents[name] = f.read()
    return contents


@pytest.mark.parametrize("method", ["naive", "binning-grid", "binning-kmeans", "density"])
def test_solve_smoke_all_methods(tmp_path, method):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / f"out_{method}"
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(out)]) == 0
    files = read_files(out)
    assert set(files) == {"weights.csv", "pushforward.csv", "meta.json"}
    meta = json.loads(files["meta.json"])
    assert meta["version"]
    assert meta["seed"] == 11
    assert "wall_clock_s" in meta["timing"]
    header = files["weights.csv"].decode().splitlines()[0]
    assert header == "index,x1,x2,q1,weight"
    pf_header = files["pushforward.csv"].decode().splitlines()[0]
    assert pf_header == "q1,f_method,f_target"
    assert meta["weight_normalization"] == ("mean_one" if method == "naive" else "sum_one")
    assert bool(meta["solver"]) == (method != "density")


@pytest.mark.parametrize("method", ["naive", "binning-grid", "density"])
def test_pushforward_grid_spans_the_data_box(tmp_path, method):
    cfg = write_config(tmp_path / "cfg.json", method={"p": 20, "min_fill": "none", "data_box": [[2.2, 2.6]]})
    out = tmp_path / "o"
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(out)]) == 0
    files = read_files(out)

    def first_column(name, col):
        return np.array([float(r.split(",")[col]) for r in files[name].decode().splitlines()[1:]])

    q = first_column("pushforward.csv", 0)
    assert (q[0], q[-1]) == (2.2, 2.6)


def test_solve_density_identity_diagnostic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", initial={"kind": "uniform", "n": 1500})
    out = tmp_path / "out"
    assert main(["solve", "--method", "density", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads(read_files(out)["meta.json"])
    n = meta["n_initial"]
    assert abs(meta["diagnostic"] - 1.0) <= 3.0 / np.sqrt(n) + 0.05


def test_solve_binning_variance_below_naive(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out_n = tmp_path / "naive"
    out_b = tmp_path / "binning"
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(out_n)]) == 0
    assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(out_b)]) == 0

    def weight_variance(out_dir, mean_one):
        rows = read_files(out_dir)["weights.csv"].decode().splitlines()[1:]
        w = np.array([float(r.split(",")[-1]) for r in rows])
        if not mean_one:
            w = w * w.size
        return np.var(w)

    assert weight_variance(out_b, False) < weight_variance(out_n, True)


def test_solve_deterministic_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(out)]) == 0
    files1, files2 = read_files(out1), read_files(out2)
    assert files1["weights.csv"] == files2["weights.csv"]
    assert files1["pushforward.csv"] == files2["pushforward.csv"]
    meta1 = json.loads(files1["meta.json"])
    meta2 = json.loads(files2["meta.json"])
    meta1.pop("timing")
    meta2.pop("timing")
    assert meta1 == meta2


def test_solve_config_error_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    write_config(path, target={"kind": "normal", "mu": 1.0, "sigma": -1.0})
    assert main(["solve", "--method", "naive", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    path2 = tmp_path / "bad2.json"
    write_config(path2, method={"p": 0})
    assert main(["solve", "--method", "binning-grid", "--config", str(path2), "--out", str(tmp_path / "o2")]) == 2


def test_solve_unreachable_cell_exit_4(tmp_path):
    # pairs with a gap in the outputs plus a target over the gap
    lam = np.linspace(0.0, 1.0, 300)[:, None]
    q = np.where(lam[:, 0] < 0.4, lam[:, 0], lam[:, 0] + 0.5)[:, None]
    save_samples(tmp_path / "lam.csv", lam)
    save_samples(tmp_path / "q.csv", q, prefix="q")
    cfg = write_config(
        tmp_path / "cfg.json",
        model={"kind": "pairs", "param_csv": "lam.csv", "data_csv": "q.csv"},
        target={"kind": "uniform", "low": 0.0, "high": 1.5, "m": None},
        method={"p": 40, "min_fill": "none"},
    )
    code = main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4


def test_diagnose_identity_exit_0(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", initial={"kind": "uniform", "n": 1200})
    assert main(["diagnose", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.8 <= payload["diagnostic"] <= 1.2
    assert payload["violations"] >= 0


def test_diagnose_violation_exit_5(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"kind": "uniform", "n": 1500},
        target={
            "kind": "normal",
            "mu": HEAT_ROD_VIOLATION_MU,
            "sigma": HEAT_ROD_OBSERVED_SIGMA,
            "m": 4000,
        },
    )
    assert main(["diagnose", "--config", str(cfg)]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostic"] < 0.9


def test_diagnose_empty_samples_exit_2(tmp_path):
    (tmp_path / "empty.csv").write_text("q1\n")
    cfg = write_config(
        tmp_path / "cfg.json", target={"kind": "samples", "csv": "empty.csv"}
    )
    assert main(["diagnose", "--config", str(cfg)]) == 2


def test_solve_pairs_ingestion(tmp_path):
    rng = np.random.default_rng(83)
    lam = rng.uniform(size=(400, 2))
    q = (lam[:, 0] + 0.5 * lam[:, 1])[:, None]
    save_samples(tmp_path / "lam.csv", lam)
    save_samples(tmp_path / "q.csv", q, prefix="q")
    cfg = write_config(
        tmp_path / "cfg.json",
        model={"kind": "pairs", "param_csv": "lam.csv", "data_csv": "q.csv"},
        target={"kind": "uniform", "low": 0.2, "high": 1.3, "m": None},
        method={"p": 12, "min_fill": "none"},
    )
    out = tmp_path / "out"
    assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads(read_files(out)["meta.json"])
    assert meta["n_initial"] == 400
    header = read_files(out)["weights.csv"].decode().splitlines()[0]
    assert header == "index,x1,x2,q1,weight"


def write_spec(path, **overrides):
    spec = {
        "seed": 5,
        "n_grid": [200, 400],
        "p_grid": [5, 10],
        "trials": 2,
        "m_observed": 2000,
        "baseline_n": 2000,
        "baseline_trials": 2,
    }
    spec.update(overrides)
    with open(path, "w") as f:
        json.dump(spec, f)
    return path


def test_convergence_tiny_spec(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["convergence", "--spec", str(spec), "--out", str(out)]) == 0
    names = set(os.listdir(out))
    assert "result.json" in names and "meta.json" in names
    assert any(n.startswith("surface_") for n in names)


def test_convergence_deterministic(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["convergence", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["convergence", "--spec", str(spec), "--out", str(out2)]) == 0
    with open(out1 / "result.json", "rb") as f1, open(out2 / "result.json", "rb") as f2:
        assert f1.read() == f2.read()


def test_convergence_malformed_spec_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", n_grid=[400, 400])
    assert main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    spec2 = write_spec(tmp_path / "spec2.json", target={"kind": "normal", "mu": 1.0})
    assert main(["convergence", "--spec", str(spec2), "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert "/target/sigma" in err


def test_convergence_untrustworthy_baseline_exit_5(tmp_path, capsys):
    # observed target far outside the predicted range: the baseline
    # diagnostic guard must abort the study
    spec = write_spec(
        tmp_path / "spec.json",
        target={"kind": "normal", "mu": 50.0, "sigma": 0.01, "m": None},
    )
    assert main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 5
    assert "diagnostic" in capsys.readouterr().err


def collapse_weights(monkeypatch):
    # the collapse cannot be provoked by a valid QP, so the cleanup is fed a zero iterate
    cleanup = solver._cleanup
    monkeypatch.setattr(solver, "_cleanup", lambda w, ell: cleanup(np.zeros_like(w), ell))


def test_solve_weight_collapse_exit_3(tmp_path, monkeypatch, capsys):
    collapse_weights(monkeypatch)
    cfg = write_config(tmp_path / "cfg.json")
    code = main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["solver failure: all weights collapsed to zero during cleanup"]


def test_convergence_weight_collapse_exit_3(tmp_path, monkeypatch, capsys):
    collapse_weights(monkeypatch)
    spec = write_spec(tmp_path / "spec.json")
    code = main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o"), "--threads", "1"])
    assert code == 3
    assert "solver failure: all weights collapsed to zero during cleanup" in capsys.readouterr().err


def reference_write_weights_csv(path, initial, predicted, weights):
    """Row-at-a-time writer the block writer must match byte for byte."""
    d_in = initial.shape[1]
    d_out = predicted.shape[1]
    header = (
        ["index"]
        + [f"x{k + 1}" for k in range(d_in)]
        + [f"q{k + 1}" for k in range(d_out)]
        + ["weight"]
    )
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for i in range(initial.shape[0]):
            row = (
                [str(i)]
                + [f"{v:.17g}" for v in initial[i]]
                + [f"{v:.17g}" for v in predicted[i]]
                + [f"{weights[i]:.17g}"]
            )
            f.write(",".join(row) + "\n")


def reference_write_pushforward_csv(path, pushforward, target_cdf, box, grid):
    axes = [np.linspace(box.lower[k], box.upper[k], grid) for k in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    f_method = wedf_eval_many(pushforward, pts)
    f_target = target_cdf(pts)
    header = [f"q{k + 1}" for k in range(box.dim)] + ["f_method", "f_target"]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for i in range(pts.shape[0]):
            row = [f"{v:.17g}" for v in pts[i]] + [f"{f_method[i]:.17g}", f"{f_target[i]:.17g}"]
            f.write(",".join(row) + "\n")


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e22, -1e22, 1.0, -3.0, 2.0**53, 1e16,
    0.1, 1 / 3, np.nextafter(1.0, 2.0), 1.7976931348623157e308, np.inf, -np.inf, np.nan,
]


def _edge_columns(n, dim, rng):
    """Values spanning the float range with the edge cases mixed in."""
    vals = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-320, 300, size=(n, dim))
    flat = vals.ravel()
    m = min(flat.size, 3 * len(EDGE_VALUES))
    flat[:m] = np.resize(EDGE_VALUES, m)
    rng.shuffle(flat)
    return flat.reshape(n, dim)


@pytest.mark.parametrize("n", [0, 1, 7, 23, 100])
@pytest.mark.parametrize("d_in", [1, 2])
def test_weights_csv_matches_row_writer(tmp_path, monkeypatch, n, d_in):
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 7)  # n = 23 and 100 span several blocks
    rng = np.random.default_rng(1000 * n + d_in)
    initial = _edge_columns(n, d_in, rng)
    predicted = _edge_columns(n, 1, rng)
    weights = _edge_columns(n, 1, rng)[:, 0]
    cli._write_weights_csv(tmp_path / "new.csv", initial, predicted, weights)
    reference_write_weights_csv(tmp_path / "ref.csv", initial, predicted, weights)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_weights_csv_default_block_size(tmp_path):
    n = io.CSV_BLOCK_ROWS * 2 + 5
    rng = np.random.default_rng(3)
    initial = rng.uniform(size=(n, 2))
    predicted = rng.uniform(size=(n, 1))
    weights = np.full(n, 1.0 / n)
    cli._write_weights_csv(tmp_path / "new.csv", initial, predicted, weights)
    reference_write_weights_csv(tmp_path / "ref.csv", initial, predicted, weights)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# the ids are those the cases had while the f_target column was optional
@pytest.mark.parametrize("dim", [1, 2], ids=["1-True", "2-True"])
def test_pushforward_csv_matches_row_writer(tmp_path, monkeypatch, dim):
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 5)
    rng = np.random.default_rng(dim)
    samples = SampleSet(rng.uniform(size=(40, dim)))
    pushforward = WeightedEdf.plain(samples)
    def target_cdf(pts):
        return np.prod(np.clip(pts, 0.0, 1.0), axis=1)

    box = BoxScaler([-0.1] * dim, [1.1] * dim)
    cli._write_pushforward_csv(tmp_path / "new.csv", pushforward, target_cdf, box, 9)
    reference_write_pushforward_csv(tmp_path / "ref.csv", pushforward, target_cdf, box, 9)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def error_record(capsys):
    """The one JSON line a failing command prints on stdout."""
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"error"} and set(record["error"]) == {"exit_code", "kind", "message"}
    return record["error"]


def test_error_record_exit_2(tmp_path, capsys):
    path = write_config(tmp_path / "bad.json", target={"kind": "normal", "mu": 1.0, "sigma": -1.0})
    assert main(["solve", "--method", "naive", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    record = error_record(capsys)
    assert record["exit_code"] == 2 and record["kind"] == "ConfigError"
    assert record["message"] == "/target: sigma must be positive, got -1.0"
    spec = write_spec(tmp_path / "spec.json", n_grid=[400, 400])
    assert main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o2")]) == 2
    assert error_record(capsys)["exit_code"] == 2
    (tmp_path / "empty.csv").write_text("q1\n")
    cfg = write_config(tmp_path / "cfg.json", target={"kind": "samples", "csv": "empty.csv"})
    assert main(["diagnose", "--config", str(cfg)]) == 2
    assert error_record(capsys)["kind"] == "ConfigError"


@pytest.mark.parametrize("overrides, pointer, reason", [
    ({"target": {"kind": "normal", "mu": 1.0, "sigma": -1.0}},
     "/target", "sigma must be positive, got -1.0"),
    # a library error mapped to the option it is reported at
    ({"method": {"p": 20, "data_box": [[5.0, 6.0]]}},
     "/method/data_box", "data box [[5.0, 6.0]] contains none"),
], ids=["ConfigError", "DataBoxError"])
def test_config_error_names_its_pointer_once(tmp_path, capsys, overrides, pointer, reason):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    line = captured.err.strip().splitlines()[-1]
    assert line.startswith(f"config error at {pointer}: {reason}")
    assert line.count(pointer) == 1
    message = json.loads(captured.out)["error"]["message"]
    assert message == line.removeprefix("config error at ")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
@pytest.mark.parametrize("role", ["param_csv", "data_csv", "samples"])
def test_non_finite_csv_value_names_its_file_and_line(tmp_path, capsys, role, value):
    lam = np.linspace(0.0, 1.0, 30)[:, None]
    save_samples(tmp_path / "lam.csv", lam)
    save_samples(tmp_path / "q.csv", lam + 1.0, prefix="q")
    bad = "q.csv" if role == "samples" else f"{role}.csv"
    lines = (tmp_path / ("lam.csv" if role == "param_csv" else "q.csv")).read_text().splitlines()
    lines[7] = value  # the blank line put in above moves it to line 9
    (tmp_path / bad).write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n")
    if role == "samples":
        model, target, pointer = {"kind": "heat_rod"}, {"kind": "samples", "csv": bad}, "/target"
    else:
        names = {"param_csv": "lam.csv", "data_csv": "q.csv", role: bad}
        model = {"kind": "pairs", **names}
        target, pointer = {"kind": "normal", "mu": 1.5, "sigma": 0.1, "m": 50}, "/model"
    cfg = write_config(tmp_path / "cfg.json", model=model, target=target)
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    record = error_record(capsys)
    assert record["kind"] == "ConfigError"
    assert record["message"] == (f"{pointer}: {tmp_path / bad}:9: "
                                 f"expected a finite number, got {value!r}")


@pytest.mark.parametrize("key, bounds", [
    ("data_box", [[0.5]]),
    ("partition_box", [[[0.5, 0.6]]]),
    ("partition_box", [[0.0, 1.0], [0.0, 1.0]]),  # a 2-D box for the rod's 1-D data
    ("data_box", [[0.0, 1.0], [0.0, 1.0]]),
])
def test_malformed_box_option_is_a_config_error(tmp_path, capsys, key, bounds):
    cfg = write_config(tmp_path / "cfg.json", method={"p": 20, key: bounds})
    for method in ("naive", "binning-grid"):
        assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        record = error_record(capsys)
        assert record["kind"] == "ConfigError" and record["message"].startswith(f"/method/{key}: ")


def refuse_to_evaluate_a_kde(*args, **kwargs):
    raise AssertionError("a KDE was evaluated before the data box was checked")


@pytest.mark.parametrize("method", ["naive", "binning-grid", "density"])
def test_data_box_without_predicted_samples_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                              method):
    # the rod's predicted values lie in about [2.26, 2.53]
    monkeypatch.setattr(density.KdeModel, "pdf", refuse_to_evaluate_a_kde)
    cfg = write_config(tmp_path / "cfg.json", method={"p": 20, "data_box": [[5.0, 6.0]]})
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    record = error_record(capsys)
    assert record["kind"] == "ConfigError"
    assert record["message"].startswith("/method/data_box: data box [[5.0, 6.0]] contains none")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["naive", "binning-grid", "density"])
def test_data_box_missing_some_predicted_samples_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                                   method):
    # [2.0, 2.3] holds only the lowest of the rod's predicted values
    monkeypatch.setattr(density.KdeModel, "pdf", refuse_to_evaluate_a_kde)
    cfg = write_config(tmp_path / "cfg.json", initial={"kind": "uniform", "n": 100},
                       method={"p": 20, "data_box": [[2.0, 2.3]]})
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    record = error_record(capsys)
    assert record["kind"] == "ConfigError"
    assert record["message"].startswith("/method/data_box: data box [[2.0, 2.3]] contains only ")
    assert record["message"].endswith(" of the 100 samples")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["naive", "binning-grid", "density"])
def test_data_box_of_loaded_pairs(tmp_path, capsys, method):
    # loaded pairs reach the data-box check as a SampleSet, not an array
    lam = np.linspace(0.0, 1.0, 300)[:, None]
    save_samples(tmp_path / "lam.csv", lam)
    save_samples(tmp_path / "q.csv", lam + 1.0, prefix="q")
    model = {"kind": "pairs", "param_csv": "lam.csv", "data_csv": "q.csv"}
    target = {"kind": "normal", "mu": 1.5, "sigma": 0.1, "m": 500}
    cfg = write_config(tmp_path / "all.json", model=model, target=target,
                       method={"p": 20, "min_fill": "none", "data_box": [[0.99, 2.01]]})
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path / "some.json", model=model, target=target,
                       method={"p": 20, "min_fill": "none", "data_box": [[0.99, 1.5]]})
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert error_record(capsys) == {
        "exit_code": 2, "kind": "ConfigError",
        "message": "/method/data_box: data box [[0.99, 1.5]] contains only 150 of the 300 samples",
    }
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("method_options", [
    {"partition_box": [[2.0, 2.6]]},  # wider than the box fitted to the samples
    {"partition_box": [[2.2, 2.7]], "data_box": [[2.2, 2.6]]},
])
def test_partition_box_outside_the_data_box_is_a_config_error(tmp_path, capsys, method_options):
    cfg = write_config(tmp_path / "cfg.json", method={"p": 20, **method_options})
    out = tmp_path / "o"
    assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(out)]) == 2
    record = error_record(capsys)
    assert record["kind"] == "ConfigError"
    assert record["message"].startswith(
        f"/method/partition_box: partition box {method_options['partition_box']} "
        "is not inside the data box "
    )
    assert not out.exists()


def test_single_observed_sample_is_a_config_error(tmp_path, capsys):
    target = {"kind": "normal", "mu": HEAT_ROD_OBSERVED_MU, "sigma": HEAT_ROD_OBSERVED_SIGMA, "m": 1}
    cfg = write_config(tmp_path / "cfg.json", target=target)
    for argv in (["solve", "--method", "density", "--out", str(tmp_path / "o")], ["diagnose"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        record = error_record(capsys)
        assert record["kind"] == "ConfigError" and record["message"].startswith("/target/m: ")


def test_exact_target_is_a_config_error_for_the_density_method(tmp_path, capsys):
    target = {"kind": "normal", "mu": HEAT_ROD_OBSERVED_MU, "sigma": HEAT_ROD_OBSERVED_SIGMA,
              "m": None}
    cfg = write_config(tmp_path / "cfg.json", target=target)
    out = tmp_path / "o"
    for argv in (["solve", "--method", "density", "--out", str(out)], ["diagnose"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert error_record(capsys) == {
            "exit_code": 2, "kind": "ConfigError",
            "message": "/target/m: this method needs observed samples; "
                       "set target.m (or use kind=samples)",
        }
    assert not out.exists()


def test_single_initial_sample_is_a_config_error_for_the_density_method(tmp_path, capsys):
    # the predicted KDE would get one sample
    cfg = write_config(tmp_path / "cfg.json", initial={"kind": "uniform", "n": 1})
    for argv in (["solve", "--method", "density", "--out", str(tmp_path / "o")], ["diagnose"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert error_record(capsys) == {
            "exit_code": 2, "kind": "ConfigError",
            "message": "/initial/n: needs at least 2 initial samples, got 1",
        }


def write_pairs_2d_config(tmp_path):
    """Config of a ``pairs`` model with 2-D data and an observed-sample target."""
    rng = np.random.default_rng(19)
    lam = rng.uniform(size=(120, 2))
    q = np.column_stack([np.exp(lam[:, 0]), lam[:, 1] + 0.5 * lam[:, 1] ** 2])
    save_samples(tmp_path / "lam2.csv", lam)
    save_samples(tmp_path / "q2.csv", q, prefix="q")
    save_samples(tmp_path / "obs2.csv", q[:80] + rng.normal(0.0, 0.02, size=(80, 2)), prefix="q")
    return write_config(
        tmp_path / "pairs2.json",
        model={"kind": "pairs", "param_csv": "lam2.csv", "data_csv": "q2.csv"},
        target={"kind": "samples", "csv": "obs2.csv"},
    )


@pytest.mark.parametrize("target", [
    {"kind": "normal", "mu": 1.5, "sigma": 0.2},
    {"kind": "normal", "mu": 1.5, "sigma": 0.2, "m": 500},
    {"kind": "samples", "csv": "obs1.csv"},
])
def test_target_of_another_dimension_than_the_data_is_a_config_error(tmp_path, capsys, target):
    write_pairs_2d_config(tmp_path)
    save_samples(tmp_path / "obs1.csv", np.linspace(1.0, 2.0, 50)[:, None], prefix="q")
    cfg = write_config(
        tmp_path / "cfg.json",
        model={"kind": "pairs", "param_csv": "lam2.csv", "data_csv": "q2.csv"},
        target=target,
    )
    expected = {"exit_code": 2, "kind": "ConfigError",
                "message": "/target: a 1-D target for 2-D data"}
    for method in ("naive", "binning-grid", "binning-kmeans", "density"):
        out = tmp_path / method
        assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(out)]) == 2
        assert error_record(capsys) == expected
        assert not out.exists()
    assert main(["diagnose", "--config", str(cfg)]) == 2
    assert error_record(capsys) == expected


@pytest.mark.parametrize("data_box, message", [
    # the method section is read before the target, so its error is the one reported
    ([[1.0, 3.0]], "/method/data_box: a 1-D box for 2-D data"),
    ([[1.0, 3.0], [0.0, 2.0]], "/target: a 1-D target for 2-D data"),
])
def test_target_dimension_is_checked_after_the_method(tmp_path, capsys, data_box, message):
    write_pairs_2d_config(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        model={"kind": "pairs", "param_csv": "lam2.csv", "data_csv": "q2.csv"},
        target={"kind": "normal", "mu": 1.5, "sigma": 0.2, "m": 500},
        method={"p": 20, "data_box": data_box},
    )
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert error_record(capsys) == {"exit_code": 2, "kind": "ConfigError", "message": message}


def test_convergence_target_of_another_dimension_is_a_config_error(tmp_path, capsys):
    save_samples(tmp_path / "obs2.csv", np.full((20, 2), 2.4), prefix="q")
    spec = write_spec(tmp_path / "spec.json", target={"kind": "samples", "csv": "obs2.csv"})
    out = tmp_path / "o"
    assert main(["convergence", "--spec", str(spec), "--out", str(out)]) == 2
    assert error_record(capsys) == {
        "exit_code": 2, "kind": "ConfigError", "message": "/target: a 2-D target for 1-D data",
    }
    assert not out.exists()


# (case key, spec overrides, error message): a case's id is "<key>-<message>",
# so that deleting a case renames no other
SPEC_ERRORS = [
    # padding is no longer a setting, whatever its value
    ("overrides0", {"padding": -1}, "/padding: expected a config without this key: "
                                    "the data-box padding is fixed at 0.001"),
    ("overrides1", {"m_observed": 0}, "/m_observed: expected an integer >= 2, got 0"),
    ("overrides2", {"baseline_n": 1}, "/baseline_n: expected an integer >= 2, got 1"),
    ("overrides3", {"baseline_trials": 0}, "/baseline_trials: expected an integer >= 1, got 0"),
    ("overrides4", {"trials": 0}, "/trials: expected an integer >= 1, got 0"),
    ("overrides5", {"n_grid": [0]}, "/n_grid: expected strictly increasing integers >= 1, got [0]"),
    ("overrides6", {"p_grid": [0, 5]},
     "/p_grid: expected strictly increasing integers >= 1, got [0, 5]"),
    ("overrides7", {"region_a": [[2.01, 2.02]]}, "/region_a: a 1-D box in a 2-D space"),
    ("overrides8", {"region_b": [[2.3, 2.4], [0.0, 1.0]]}, "/region_b: a 2-D box in a 1-D space"),
    ("overrides9", {"partition_kind": "kmeans", "p_grid": [5, 300]},
     "/p_grid: 300 k-means cells for 200 samples"),
    # observed samples of N(2.39, 1e308) overflow to infinity, as in a solve config
    ("overrides10", {"target": {"kind": "normal", "mu": 2.39, "sigma": 1e308, "m": None}},
     "/target: points must be finite"),
    # at t_star = 1e308 every predicted value is 0, so the derived region_b is a point
    ("overrides11", {"model": {"kind": "heat_rod", "t_star": 1e308}},
     "/region_b: the model image of region_a is not a box: "
     "upper must exceed lower in every component; component 0: [0.0, 0.0]"),
]


@pytest.mark.parametrize("overrides, message", [case[1:] for case in SPEC_ERRORS],
                         ids=[f"{key}-{message}" for key, _, message in SPEC_ERRORS])
def test_convergence_spec_out_of_range_is_a_config_error(tmp_path, capsys, overrides, message):
    spec = write_spec(tmp_path / "spec.json", **overrides)
    out = tmp_path / "o"
    assert main(["convergence", "--spec", str(spec), "--out", str(out)]) == 2
    assert error_record(capsys) == {"exit_code": 2, "kind": "ConfigError", "message": message}
    assert not out.exists()


# five million observed samples take about 0.15 s to draw, so a draw that
# should not happen is seen by the spy, not by the clock
LARGE_TARGET = {"kind": "normal", "mu": HEAT_ROD_OBSERVED_MU, "sigma": HEAT_ROD_OBSERVED_SIGMA,
                "m": 5_000_000}


@pytest.fixture
def target_draws(monkeypatch):
    """The sizes that ``NormalTarget.sample`` is asked for."""
    sizes = []
    sample = NormalTarget.sample
    monkeypatch.setattr(NormalTarget, "sample",
                        lambda self, n, rng: sizes.append(n) or sample(self, n, rng))
    return sizes


def test_a_solve_config_error_draws_no_observed_sample(tmp_path, capsys, target_draws):
    cfg = write_config(tmp_path / "cfg.json", target=LARGE_TARGET, method={"p": 0})
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert error_record(capsys)["message"].startswith("/method/p: ")
    assert target_draws == []


def test_a_convergence_spec_draws_no_observed_sample(tmp_path, capsys, target_draws):
    # the study draws its m_observed samples from the law; target.m is checked only
    spec = config.build_convergence_spec({"target": LARGE_TARGET})
    assert spec.target == NormalTarget(HEAT_ROD_OBSERVED_MU, HEAT_ROD_OBSERVED_SIGMA)
    path = write_spec(tmp_path / "spec.json", target=LARGE_TARGET, trials=0)
    assert main(["convergence", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    assert error_record(capsys)["message"].startswith("/trials: ")
    assert target_draws == []


def test_a_target_of_another_dimension_draws_no_observed_sample(tmp_path, capsys, target_draws):
    write_pairs_2d_config(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        model={"kind": "pairs", "param_csv": "lam2.csv", "data_csv": "q2.csv"},
        target=dict(LARGE_TARGET, mu=1.5, sigma=0.2),
    )
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert error_record(capsys)["message"] == "/target: a 1-D target for 2-D data"
    assert target_draws == []


@pytest.mark.parametrize("command, overrides, message", [
    ("solve", {"seed": -1}, "/seed: expected a finite number >= 0, got -1"),
    ("solve", {"seed": None}, "/seed: expected a finite number >= 0, got None"),
    ("solve", {"target": {"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": 300, "seed": -3}},
     "/target/seed: expected a finite number >= 0, got -3"),
    ("convergence", {"seed": -1}, "/seed: expected a finite number >= 0, got -1"),
])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, overrides, message):
    # numpy's SeedSequence rejects negative entropy with a bare ValueError
    out = tmp_path / "o"
    if command == "solve":
        argv = ["solve", "--method", "naive", "--config",
                str(write_config(tmp_path / "cfg.json", **overrides))]
    else:
        argv = ["convergence", "--spec", str(write_spec(tmp_path / "spec.json", **overrides))]
    assert main(argv + ["--out", str(out)]) == 2
    assert error_record(capsys) == {"exit_code": 2, "kind": "ConfigError", "message": message}
    assert not out.exists()


def test_convergence_samples_target_with_one_row_is_a_config_error(tmp_path, capsys):
    save_samples(tmp_path / "obs1.csv", np.full((1, 1), 2.4), prefix="q")
    spec = write_spec(tmp_path / "spec.json", target={"kind": "samples", "csv": "obs1.csv"})
    assert main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert error_record(capsys)["message"] == "/target: needs at least 2 observed samples, got 1"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_convergence_threads_below_one_is_a_config_error(tmp_path, capsys, threads):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "o"
    assert main(["convergence", "--spec", str(spec), "--out", str(out), "--threads", threads]) == 2
    assert error_record(capsys) == {
        "exit_code": 2, "kind": "ConfigError",
        "message": f"--threads: expected an integer >= 1, got {threads}",
    }
    assert not out.exists()


@pytest.mark.parametrize("cpus, threads, workers", [(1, "5000", 1), (2, "5000", 2), (2, "1", 1)])
def test_convergence_threads_are_capped_at_the_cpu_count(tmp_path, monkeypatch, cpus, threads,
                                                         workers):
    asked = []
    # the trials run in process, so no case forks, whatever it is handed
    monkeypatch.setattr(experiments, "ordered_map", lambda fn, payloads, w: (
        asked.append(w) or map(fn, payloads)))
    monkeypatch.setattr(cli, "cpu_count", lambda: cpus)
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "o"
    assert main(["convergence", "--spec", str(spec), "--out", str(out), "--threads", threads]) == 0
    assert asked == [workers, workers]  # baseline trials, then study trials
    assert json.loads((out / "meta.json").read_text())["threads"] == int(threads)
    assert multiprocessing.active_children() == []


def test_meta_names_the_solver_by_data_dimension(tmp_path):
    cases = [(write_config(tmp_path / "cfg.json"), "isotonic"),
             (write_pairs_2d_config(tmp_path), "active-set")]
    for i, (cfg, expected) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "meta.json").read_text())["solver"]
        assert record["method"] == expected and record["converged"] is True
        for name in ("stationarity", "feasibility", "complementarity"):
            assert record[f"{name}_residual_rel"] == record[f"{name}_residual"] / record["b_scale"]


def test_error_record_exit_3(tmp_path, monkeypatch, capsys):
    # a failed certificate writes its results and still reports; only data of
    # two or more dimensions goes through solve_qp, whose first round leaves
    # negative weights here
    monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
    cfg = write_pairs_2d_config(tmp_path)
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert error_record(capsys)["kind"] == "NotConverged"
    assert (tmp_path / "o" / "weights.csv").exists()


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private MemoryError subclass of a failed allocation."""


def test_out_of_memory_exit_3(tmp_path, monkeypatch, capsys):
    # the fitting matrix is read by the certificate after the solve; raising
    # in its place allocates nothing
    message = "Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64"

    def refuse_to_allocate(samples):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(assembly, "assemble_h", refuse_to_allocate)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert error_record(capsys) == {"exit_code": 3, "kind": "MemoryError", "message": message}
    assert not (tmp_path / "o").exists()
    spec = write_spec(tmp_path / "spec.json")
    code = main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o2"), "--threads", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines()[-1] == f"out of memory: {message}"
    assert json.loads(captured.out)["error"]["kind"] == "MemoryError"
    assert not (tmp_path / "o2").exists()


def test_error_record_exit_4(tmp_path, capsys):
    lam = np.linspace(0.0, 1.0, 300)[:, None]
    q = np.where(lam[:, 0] < 0.4, lam[:, 0], lam[:, 0] + 0.5)[:, None]
    save_samples(tmp_path / "lam.csv", lam)
    save_samples(tmp_path / "q.csv", q, prefix="q")
    cfg = write_config(
        tmp_path / "cfg.json",
        model={"kind": "pairs", "param_csv": "lam.csv", "data_csv": "q.csv"},
        target={"kind": "uniform", "low": 0.0, "high": 1.5, "m": None},
        method={"p": 40, "min_fill": "none"},
    )
    assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    record = error_record(capsys)
    assert record["exit_code"] == 4 and record["kind"] == "UnreachableCellError"
    assert "no predicted samples reach" in record["message"]


def test_error_record_exit_5(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", target={"kind": "normal", "mu": 50.0, "sigma": 0.01, "m": None})
    assert main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 5
    record = error_record(capsys)
    assert record["exit_code"] == 5 and record["kind"] == "UntrustworthyBaselineError"
    assert "diagnostic" in record["message"]


def test_success_prints_no_error_record(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == ""


# (case key, method, config overrides, pointer of the offending key): a case's
# id is "<method>-<key>-<pointer>", so that deleting a case renames no other
BAD_OPTIONS = [
    ("overrides0", "binning-grid",
     {"method": {"p": 20, "cells_per_dim": [0]}}, "/method/cells_per_dim"),
    ("overrides1", "binning-grid",
     {"method": {"p": 20, "cells_per_dim": ["a"]}}, "/method/cells_per_dim"),
    ("overrides2", "binning-grid",
     {"method": {"p": 20, "cells_per_dim": [3, 3]}}, "/method/cells_per_dim"),
    ("overrides3", "binning-grid", {"method": {"p": 20, "n_batch": -5}}, "/method/n_batch"),
    ("overrides4", "binning-grid", {"method": {"p": 20, "n_batch": 0}}, "/method/n_batch"),
    # the retired keys are an error whatever their value
    ("overrides5", "naive", {"method": {"padding": -1}}, "/method/padding"),
    ("overrides6", "naive", {"output": {"pushforward_grid": -3}}, "/output/pushforward_grid"),
    ("overrides7", "naive", {"output": {"pushforward_grid": 0}}, "/output/pushforward_grid"),
    ("overrides8", "density", {"method": {"kde_rule": -0.5}}, "/method/kde_rule"),
    ("overrides9", "density", {"method": {"kde_rule": True}}, "/method/kde_rule"),
    ("overrides10", "binning-kmeans",
     {"initial": {"kind": "uniform", "n": 200}, "method": {"p": 500}}, "/method/p"),
    # a fixed bandwidth whose square, the kernel variance, underflows or overflows
    ("overrides11", "density", {"method": {"kde_rule": 1e-300}}, "/method/kde_rule"),
    ("overrides12", "density", {"method": {"kde_rule": 1e308}}, "/method/kde_rule"),
    # at t_star = 1e308 every predicted value is the same, one distinct point for 20 cells
    ("overrides13", "binning-kmeans",
     {"model": {"kind": "heat_rod", "t_star": 1e308}}, "/method/p"),
    ("overrides14", "binning-grid",
     {"method": {"p": 20, "weight_floor": -1}}, "/method/weight_floor"),  # retired
    ("overrides15", "naive", {"model": {"kind": "heat_rod", "lambda_box": []}}, "/model"),
    ("overrides16", "naive", {"model": {"kind": "heat_rod", "lambda_box": [[1.9, 2.1]]}}, "/model"),
    # samples of N(2.39, 1e308) overflow to infinity
    ("overrides17", "naive",
     {"target": {"kind": "normal", "mu": 2.39, "sigma": 1e308, "m": 50}}, "/target"),
    # a null passes only where the default is null
    ("overrides18", "naive", {"model": None}, "/model"),
    ("overrides19", "naive", {"method": None}, "/method"),
    ("overrides20", "naive", {"initial": {"kind": "uniform", "n": None}}, "/initial/n"),
    ("overrides21", "naive",
     {"target": {"kind": "normal", "mu": None, "sigma": 0.035}}, "/target/mu"),
]


@pytest.mark.parametrize("method, overrides, pointer", [case[1:] for case in BAD_OPTIONS],
                         ids=[f"{method}-{key}-{pointer}" for key, method, _, pointer in BAD_OPTIONS])
def test_out_of_range_option_is_a_config_error(tmp_path, capsys, method, overrides, pointer):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    record = error_record(capsys)
    assert record["exit_code"] == 2 and record["kind"] == "ConfigError"
    assert record["message"].startswith(f"{pointer}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mu", [-1e308, 1e308])
def test_target_samples_that_overflow_the_data_box_scale(tmp_path, mu):
    # the target samples are finite but overflow when scaled into the data
    # box; the fit counts them as below or above every predicted value
    cfg = write_config(tmp_path / "cfg.json",
                       target={"kind": "normal", "mu": mu, "sigma": 0.035, "m": 50})
    for method in ("naive", "binning-grid"):
        out = tmp_path / method
        assert main(["solve", "--method", method, "--config", str(cfg), "--out", str(out)]) == 0


def test_density_ratios_all_zero_exit_3(tmp_path, capsys):
    # no predicted value comes near the target, so every observed-KDE value is zero
    cfg = write_config(tmp_path / "cfg.json", target={"kind": "normal", "mu": -1, "sigma": 0.035, "m": 50})
    out = tmp_path / "o"
    assert main(["solve", "--method", "density", "--config", str(cfg), "--out", str(out)]) == 3
    assert error_record(capsys) == {
        "exit_code": 3, "kind": "WeightCollapseError", "message": "all density ratios are zero",
    }
    assert not out.exists()


# finite observed samples near 1e308 whose sample covariance overflows, so the
# Scott bandwidth matrix is NaN
OVERFLOWING_COVARIANCE_TARGET = {"kind": "normal", "mu": 1e308, "sigma": 0.035, "m": 50}
NON_FINITE_BANDWIDTH = {
    "exit_code": 3, "kind": "BandwidthError", "message": "bandwidth matrix must be finite",
}


def test_density_solve_with_a_non_finite_bandwidth_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", target=OVERFLOWING_COVARIANCE_TARGET)
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["solve", "--method", "density", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert error_record(capsys) == NON_FINITE_BANDWIDTH
    assert not out.exists()


def test_diagnose_with_a_non_finite_bandwidth_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", target=OVERFLOWING_COVARIANCE_TARGET)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["diagnose", "--config", str(cfg)]) == 3
    assert error_record(capsys) == NON_FINITE_BANDWIDTH


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the command ran before it checked --out")


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                          command, below):
    monkeypatch.setattr(cli, "solve_naive", refuse_to_run)
    monkeypatch.setattr(cli, "run_convergence", refuse_to_run)
    blocker = tmp_path / "results"
    blocker.write_text("not a directory\n")
    if command == "solve":
        argv = ["solve", "--method", "naive", "--config", str(write_config(tmp_path / "cfg.json"))]
    else:
        argv = ["convergence", "--spec", str(write_spec(tmp_path / "spec.json"))]
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--out", str(blocker / below)]) == 2
    assert error_record(capsys) == {
        "exit_code": 2, "kind": "ConfigError",
        "message": f"--out: {blocker} exists and is not a directory",
    }
    assert sorted(tmp_path.iterdir()) == before
    assert blocker.read_text() == "not a directory\n"


def test_import_cli_loads_no_scipy():
    # scipy is imported where it is used, so a cold CLI start does without it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, dcinv.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_ignored_max_iter_key_still_loads(tmp_path):
    # solver.max_iter and solver.tol are retired keys; like any unknown key
    # they are ignored, whatever their value
    plain = write_config(tmp_path / "plain.json")
    with_key = write_config(tmp_path / "with_key.json", solver={"tol": 1e-8, "max_iter": 1})
    bad_tol = write_config(tmp_path / "bad_tol.json", solver={"tol": -1})
    for cfg, out in ((plain, "a"), (with_key, "b"), (bad_tol, "c")):
        assert main(["solve", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    for name in ("weights.csv", "pushforward.csv"):
        for out in ("b", "c"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / out / name).read_bytes()


@pytest.mark.parametrize("command, key, constant", [
    ("solve", "padding", "the data-box padding is fixed at 0.001"),
    ("solve", "weight_floor", "the cell-weight floor is fixed at 1e-06"),
    ("convergence", "padding", "the data-box padding is fixed at 0.001"),
    ("convergence", "weight_floor", "the cell-weight floor is fixed at 1e-06"),
])
def test_padding_and_weight_floor_keys_are_config_errors(tmp_path, capsys, command, key, constant):
    # unlike solver.tol, these keys are not ignored: a run that silently
    # dropped them would change its results without notice. The value is the
    # constant's own, so only the key's presence is at fault.
    value = {"padding": 1e-3, "weight_floor": 1e-6}[key]
    out = tmp_path / "o"
    if command == "solve":
        pointer = f"/method/{key}"
        cfg = write_config(tmp_path / "cfg.json", method={"p": 20, key: value})
        argv = ["solve", "--method", "binning-grid", "--config", str(cfg)]
    else:
        pointer = f"/{key}"
        argv = ["convergence", "--spec", str(write_spec(tmp_path / "spec.json", **{key: value}))]
    assert main(argv + ["--out", str(out)]) == 2
    assert error_record(capsys) == {
        "exit_code": 2, "kind": "ConfigError",
        "message": f"{pointer}: expected a config without this key: {constant}",
    }
    assert not out.exists()


@pytest.mark.parametrize("overrides, literal", [
    ({"model": {"kind": "heat_rod", "t_star": float("nan")}}, "NaN"),
    ({"model": {"kind": "heat_rod", "t_star": float("inf")}}, "Infinity"),
    ({"target": {"kind": "normal", "mu": float("nan"), "sigma": 0.035}}, "NaN"),
    ({"target": {"kind": "normal", "mu": 2.39, "sigma": -float("inf")}}, "-Infinity"),
    ({"method": {"p": 20, "kde_rule": float("nan")}}, "NaN"),
    ({"target": {"kind": "mixture", "components": [[float("nan"), 2.3, 2.4]], "m": None}}, "NaN"),
])
def test_non_finite_json_literal_is_a_config_error(tmp_path, capsys, overrides, literal):
    # json.load accepts NaN and +-Infinity, which strict JSON does not
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert literal in cfg.read_text()
    out = tmp_path / "o"
    assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(out)]) == 2
    record = error_record(capsys)
    assert record == {
        "exit_code": 2,
        "kind": "ConfigError",
        "message": f"/: {literal} is not a JSON number; use a finite value",
    }
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "/: cannot read the config file: "),  # a directory
    (b"\xff\xfe", "/: invalid JSON: 'utf-8' codec can't decode"),
    (b'{"seed": 1' + b"0" * 5000 + b"}", "/: invalid JSON: Exceeds the limit (4300 digits)"),
])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["solve", "--method", "naive", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    record = error_record(capsys)
    assert record["kind"] == "ConfigError" and record["message"].startswith(message)


def test_non_finite_json_literal_in_a_spec_is_a_config_error(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", m_observed=float("nan"))
    assert main(["convergence", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert error_record(capsys)["message"] == "/: NaN is not a JSON number; use a finite value"


def test_live_binning_solve_evaluates_only_the_samples_it_keeps(tmp_path, monkeypatch):
    from dcinv.models import HeatRod

    rows = []
    qoi = HeatRod.qoi
    monkeypatch.setattr(HeatRod, "qoi", lambda self, lam: rows.append(len(lam)) or qoi(self, lam))
    cfg = write_config(tmp_path / "cfg.json", method={"p": 20, "n_batch": 100})
    out = tmp_path / "o"
    assert main(["solve", "--method", "binning-grid", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_batches"] > 0  # the fill loop ran
    assert sum(rows) == meta["n_total"]
    assert meta["n_initial"] == 400


def exit_in_worker(*args):
    if multiprocessing.parent_process() is None:  # never end the test process itself
        raise AssertionError("the task ran in the parent process")
    os._exit(1)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes are forked")
# 3000 predicted samples fill 70 blocks of 43 rows of the predicted KDE: two workers
POOLED_KDE_INITIAL = {"kind": "uniform", "n": 3000}


@needs_fork
@pytest.mark.parametrize("command", ["solve", "convergence", "density"])
def test_a_dead_worker_exits_3(tmp_path, monkeypatch, capsys, command):
    # the CSV writer's pool (its blocks made small, so that the 400-row
    # weights.csv is pooled), the convergence study's pool and the exact
    # KDE's, which runs before the CSV writer (in process, the task raises)
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 16)
    monkeypatch.setattr(core, "cpu_count", lambda: 2)
    monkeypatch.setattr(io, "_format_rows", exit_in_worker)
    monkeypatch.setattr(experiments, "_study_trial", exit_in_worker)
    monkeypatch.setattr(density.KdeModel, "_block_sums", exit_in_worker)
    out = tmp_path / "o"
    if command == "solve":
        argv = ["solve", "--method", "naive", "--config", str(write_config(tmp_path / "cfg.json"))]
    elif command == "density":
        cfg = write_config(tmp_path / "cfg.json", initial=POOLED_KDE_INITIAL)
        argv = ["solve", "--method", "density", "--config", str(cfg)]
    else:
        argv = ["convergence", "--spec", str(write_spec(tmp_path / "spec.json")), "--threads", "2"]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    record = json.loads(captured.out)["error"]
    assert record["exit_code"] == 3 and record["kind"] == "BrokenProcessPool"
    assert captured.err.strip().splitlines()[-1] == f"worker process died: {record['message']}"
    assert multiprocessing.active_children() == []


@needs_fork
def test_density_solve_files_are_the_same_with_the_kde_pool(tmp_path, monkeypatch):
    asked = []
    real = density.ordered_map
    monkeypatch.setattr(density, "ordered_map", lambda fn, payloads, workers: (
        asked.append(workers) or real(fn, payloads, workers)))
    cfg = write_config(tmp_path / "cfg.json", initial=POOLED_KDE_INITIAL)
    files = {}
    for cpus in (1, 2):
        monkeypatch.setattr(core, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["solve", "--method", "density", "--config", str(cfg), "--out", str(out)]) == 0
        files[cpus] = read_files(out)
        meta = json.loads(files[cpus].pop("meta.json"))
        meta.pop("timing")
        files[cpus]["meta.json"] = json.dumps(meta, sort_keys=True)
    assert set(files[1]) == {"weights.csv", "pushforward.csv", "meta.json"}
    assert files[1] == files[2]
    # the observed and the predicted KDE of each run: the predicted one pooled on 2 CPUs
    assert asked[:2] == [1, 1] and asked[3] == 2
    assert multiprocessing.active_children() == []


# constructor arguments of the FAILURES classes that take other than one message
FAILURE_ARGS = {
    config.ConfigError: ("/initial/n", "must be >= 2"),
    binning.UnreachableCellError: ([3, 17], [0.25, 1e-3]),
    solver.NonPositiveDefiniteError: (3,),
}


def raise_failure(args):
    cls, i = args
    if i == 1:
        raise cls(*FAILURE_ARGS.get(cls, (f"{cls.__name__} in a worker",)))
    return i


@needs_fork
@pytest.mark.parametrize("cls", [cls for cls, _, _ in cli.FAILURES], ids=lambda c: c.__name__)
def test_every_failure_raised_in_a_worker_reaches_the_caller_as_itself(cls):
    expected = cls(*FAILURE_ARGS.get(cls, (f"{cls.__name__} in a worker",)))
    with pytest.raises(cls) as info:
        list(ordered_map(raise_failure, [(cls, 0), (cls, 1)], 2))
    got = info.value
    assert type(got) is cls
    assert str(got) == str(expected) and got.args == expected.args
    assert vars(got) == vars(expected)
    assert "in raise_failure" in str(got.__cause__)  # it was raised in the worker
    assert multiprocessing.active_children() == []
