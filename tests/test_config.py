"""The settable keys of a solve config and a convergence spec, pinned.

Every leaf that ``build_solve_config`` and ``build_convergence_spec`` read
goes through ``config._get``; recording its calls on configs that set every
key lists all the settable values. A new key, or one that goes, fails the
test until ``SOLVE_KEYS`` or ``SPEC_KEYS`` is changed with it.
"""

import pickle

import numpy as np
import pytest

from dcinv import config
from dcinv.core import ConfigError
from dcinv.io import load_samples, save_samples
from dcinv.models import HeatRod, heat_rod_observed
from dcinv.targets import EmpiricalTarget, MixtureOfUniforms, NormalTarget, UniformTarget

ROD_MODEL = {"kind": "heat_rod", "x_star": 1.2, "t_star": 0.01, "truncation": 20,
             "lambda_box": [[1.9, 2.1], [0.5, 1.5]], "standard_physics": False}
TARGETS = [
    {"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": 50, "seed": 7},
    {"kind": "uniform", "low": 2.3, "high": 2.5, "m": 50, "seed": 7},
    {"kind": "mixture", "components": [[1.0, 2.3, 2.5]], "m": None, "seed": None},
    {"kind": "samples", "csv": "obs.csv"},
]
SOLVE_KEYS = {
    "/seed", "/model", "/target", "/initial", "/method", "/output",
    "/model/kind", "/model/x_star", "/model/t_star", "/model/truncation",
    "/model/lambda_box", "/model/standard_physics", "/model/param_csv", "/model/data_csv",
    "/target/kind", "/target/mu", "/target/sigma", "/target/low", "/target/high",
    "/target/components", "/target/m", "/target/seed", "/target/csv",
    "/initial/kind", "/initial/n",
    "/method/p", "/method/partition_box", "/method/data_box", "/method/cells_per_dim",
    "/method/n_batch", "/method/min_fill", "/method/kde_rule",
    "/output/pushforward_grid",
}
SPEC_KEYS = {
    "/seed", "/model", "/target", "/n_grid", "/p_grid", "/trials", "/region_a", "/region_b",
    "/partition_kind", "/m_observed", "/baseline_n", "/baseline_trials",
    "/model/kind", "/model/x_star", "/model/t_star", "/model/truncation",
    "/model/lambda_box", "/model/standard_physics",
    "/target/kind", "/target/mu", "/target/sigma", "/target/m", "/target/seed",
}


@pytest.fixture
def read_keys(monkeypatch):
    """The set of ``pointer/key`` strings that ``config._get`` is asked for."""
    keys = set()
    get = config._get

    def recording_get(cfg, key, pointer, *args, **kwargs):
        keys.add(f"{pointer}/{key}")
        return get(cfg, key, pointer, *args, **kwargs)

    monkeypatch.setattr(config, "_get", recording_get)
    return keys


def test_settable_keys_of_a_solve_config(tmp_path, read_keys):
    save_samples(tmp_path / "obs.csv", np.linspace(2.3, 2.5, 20)[:, None], prefix="q")
    save_samples(tmp_path / "lam.csv", np.linspace(0.0, 1.0, 20)[:, None])
    save_samples(tmp_path / "q.csv", np.linspace(2.3, 2.5, 20)[:, None], prefix="q")
    method = {"p": 4, "partition_box": [[2.3, 2.5]], "data_box": [[2.2, 2.6]],
              "cells_per_dim": [4], "n_batch": 100, "min_fill": "at_least_one",
              "kde_rule": "silverman"}
    models = [ROD_MODEL, {"kind": "pairs", "param_csv": "lam.csv", "data_csv": "q.csv"}]
    for model in models:
        for target in TARGETS:
            cfg = {"seed": 3, "model": model, "initial": {"kind": "uniform", "n": 60},
                   "target": target, "method": method, "output": {"pushforward_grid": 16}}
            config.build_solve_config(cfg, base_dir=str(tmp_path))
    assert read_keys == SOLVE_KEYS


def test_settable_keys_of_a_convergence_spec(read_keys):
    spec = {
        "seed": 3, "model": ROD_MODEL, "target": TARGETS[0],
        "n_grid": [40, 60], "p_grid": [2, 3], "trials": 2,
        "region_a": [[2.01, 2.02], [0.95, 1.0]], "region_b": [[2.3, 2.5]],
        "partition_kind": "grid", "m_observed": 200, "baseline_n": 200, "baseline_trials": 1,
    }
    config.build_convergence_spec(spec)
    assert read_keys == SPEC_KEYS


def solve_target(target, tmp_path=".", seed=3):
    cfg = {"seed": seed, "model": ROD_MODEL, "target": target}
    return config.build_solve_config(cfg, base_dir=str(tmp_path)).target


@pytest.mark.parametrize("target, law", [
    ({"kind": "normal", "mu": 2.39, "sigma": 0.035}, NormalTarget(2.39, 0.035)),
    ({"kind": "uniform", "low": 2.3, "high": 2.5, "m": None, "seed": 7}, UniformTarget(2.3, 2.5)),
    ({"kind": "mixture", "components": [[0.5, 2.3, 2.4], [0.5, 2.4, 2.5]], "m": None},
     MixtureOfUniforms([[0.5, 2.3, 2.4], [0.5, 2.4, 2.5]])),
], ids=["normal", "uniform", "mixture"])
def test_a_null_m_gives_the_exact_law(target, law):
    got = solve_target(target)
    assert type(got) is type(law) and got == law


@pytest.mark.parametrize("target_seed, entropy", [(None, (3, 11)), (7, 7)], ids=["default", "own"])
def test_m_draws_give_an_empirical_target_of_the_seeded_draw(target_seed, entropy):
    got = solve_target({"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": 50, "seed": target_seed})
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    expected = NormalTarget(2.39, 0.035).sample(50, rng).points
    assert type(got) is EmpiricalTarget
    assert got.samples.points.tobytes() == expected.tobytes()


def test_a_samples_target_is_the_loaded_csv(tmp_path):
    save_samples(tmp_path / "obs.csv", np.random.default_rng(5).normal(2.39, 0.035, (30, 1)),
                 prefix="q")
    got = solve_target({"kind": "samples", "csv": "obs.csv"}, tmp_path)
    assert type(got) is EmpiricalTarget
    assert got.samples.points.tobytes() == load_samples(tmp_path / "obs.csv").points.tobytes()


def test_a_rod_without_keys_and_a_spec_without_target_take_the_defaults():
    for model, expected in (({}, HeatRod()), ({"truncation": 7}, HeatRod(truncation=7))):
        cfg = {"model": {"kind": "heat_rod", **model}, "target": TARGETS[0]}
        assert config.build_solve_config(cfg).model.model == expected
    spec = config.build_convergence_spec({"n_grid": [40], "p_grid": [2]})
    assert spec.model == HeatRod()
    assert spec.target == heat_rod_observed()


def test_n_initial_of_pairs_is_the_row_count(tmp_path):
    save_samples(tmp_path / "lam.csv", np.linspace(0.0, 1.0, 23)[:, None])
    save_samples(tmp_path / "q.csv", np.linspace(2.3, 2.5, 23)[:, None], prefix="q")
    cfg = {"model": {"kind": "pairs", "param_csv": "lam.csv", "data_csv": "q.csv"},
           "initial": {"kind": "uniform", "n": 60}, "target": TARGETS[0]}
    assert config.build_solve_config(cfg, base_dir=str(tmp_path)).n_initial == 23
    cfg["model"] = ROD_MODEL
    assert config.build_solve_config(cfg).n_initial == 60


def test_config_error_keeps_pointer_and_message_apart():
    exc = ConfigError("/target", "bad: value")
    assert str(exc) == "/target: bad: value" and exc.message == "bad: value"
    back = pickle.loads(pickle.dumps(exc))
    assert (back.pointer, back.message, str(back)) == (exc.pointer, exc.message, str(exc))
