"""Fuzzed configs and convergence specs end in a documented exit code,
never a bare traceback.

Each example replaces one or two entries of a smoke rod config, leaves or
whole sections, with values from a fixed list of JSON values, or adds one of
the optional method keys. It then runs ``solve`` with each of the four
methods and ``diagnose``. Sizes stay small: the smoke config has n = 60,
m = 200, truncation 20 and a 16-point push-forward grid, and no integer in
VALUES exceeds 3, so no example asks for a large allocation. Huge sizes
(``method.n_batch: 2**63``, ``initial.n: 2**40``) would need an upper-bound
policy and are never run. The 400 examples take about 7 s on 2 vCPUs.

A smoke convergence spec (n_grid [40, 60], p_grid [2, 3], 2 trials,
m_observed and baseline_n 200, one baseline trial, truncation 20) is fuzzed
the same way and run by ``convergence --threads 1``; its 400 examples take
about 1.3 s on 2 vCPUs, as most of them end in a config error.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv.cli import main

SMOKE = {
    "seed": 3,
    "model": {"kind": "heat_rod", "x_star": 1.2, "t_star": 0.01, "truncation": 20,
              "lambda_box": [[1.9, 2.1], [0.5, 1.5]], "standard_physics": False},
    "initial": {"kind": "uniform", "n": 60},
    "target": {"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": 200, "seed": 7},
    "method": {"p": 3, "min_fill": "proportional", "kde_rule": "scott"},
    "output": {"pushforward_grid": 16},
}
SPEC_SMOKE = {
    "seed": 3, "n_grid": [40, 60], "p_grid": [2, 3], "trials": 2,
    "region_a": [[2.01, 2.02], [0.95, 1.0]], "region_b": None, "partition_kind": "grid",
    "model": SMOKE["model"],
    "target": {"kind": "normal", "mu": 2.39, "sigma": 0.035, "m": None, "seed": 7},
    "m_observed": 200, "baseline_n": 200, "baseline_trials": 1,
}
OPTIONAL = [("method", key) for key in ("n_batch", "cells_per_dim", "data_box", "partition_box")]
VALUES = [
    None, True, False, 0, 1, 2, 3, -1, 0.5, -0.5, 2.39, 1e-300, 1e308, -1e308,
    "", "x", "scott", "at_least_one", "none", "uniform", "mixture", "samples", "pairs",
    [], [0], [1], [3], [None], [1.9, 2.1], [[1.9, 2.1]], [[2.3, 2.5]], [[2.5, 2.3]],
    [[1.9, 2.1], [0.5, 1.5]], [[1.9, 2.1], [-1.0, 1.5]], [[1, 2.3, 2.4]],
    {}, {"kind": "heat_rod"},
]
SPEC_VALUES = VALUES + ["grid", "kmeans", [2, 3], [3, 2], [[2.01, 2.02], [0.95, 1.0]]]
EXIT_CODES = {0, 2, 3, 4, 5}
COMMANDS = [["solve", "--method", method] for method in
            ("naive", "binning-grid", "binning-kmeans", "density")] + [["diagnose"]]


def entries(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from entries(value, prefix + (key,))


PATHS = list(entries(SMOKE)) + OPTIONAL
SPEC_PATHS = list(entries(SPEC_SMOKE))


def mutated(mutations, base=SMOKE):
    cfg = copy.deepcopy(base)
    for path, value in mutations:
        node = cfg
        for key in path[:-1]:
            node = node.get(key)
            if not isinstance(node, dict):  # an earlier mutation replaced the section
                break
        else:
            node[path[-1]] = copy.deepcopy(value)
    return cfg


def run(argv):
    """(exit code, stdout lines) of ``main(argv)``; stderr and warnings are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue().splitlines()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)), min_size=1, max_size=2))
def test_fuzzed_config_ends_in_a_documented_exit_code(mutations):
    cfg = mutated(mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        for command in COMMANDS:
            argv = command + ["--config", path]
            if command[0] == "solve":
                argv += ["--out", os.path.join(tmp, command[2])]
            code, lines = run(argv)
            assert code in EXIT_CODES, (argv, cfg)
            records = [json.loads(line) for line in lines]
            if command[0] == "diagnose" and code in (0, 5):
                assert len(records) == 1 and set(records[0]) == {"diagnostic", "violations"}
            elif code == 0:
                assert records == []
            else:
                assert len(records) == 1 and records[0]["error"]["exit_code"] == code, (argv, cfg)
                assert set(records[0]["error"]) == {"exit_code", "kind", "message"}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SPEC_PATHS), st.sampled_from(SPEC_VALUES)),
                min_size=1, max_size=2))
def test_fuzzed_convergence_spec_ends_in_a_documented_exit_code(mutations):
    spec = mutated(mutations, SPEC_SMOKE)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as f:
            json.dump(spec, f)
        argv = ["convergence", "--spec", path, "--out", os.path.join(tmp, "out"), "--threads", "1"]
        code, lines = run(argv)
        assert code in EXIT_CODES, spec
        records = [json.loads(line) for line in lines]
        if code == 0:
            assert records == []
        else:
            assert len(records) == 1 and records[0]["error"]["exit_code"] == code, spec
            assert set(records[0]["error"]) == {"exit_code", "kind", "message"}
