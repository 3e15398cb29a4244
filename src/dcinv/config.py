"""JSON configuration parsing for the command-line interface.

Validation errors carry a JSON-pointer-style path to the offending key so a
malformed config can be fixed without reading source code. Every random
choice is driven by explicit seeds recorded in the resolved config; there is
no hidden global randomness.

Config schema (solve / diagnose):

    {
      "seed": 42,
      "model": {"kind": "heat_rod", "x_star": 1.2, "t_star": 0.01,
                 "truncation": 100, "lambda_box": [[1.9, 2.1], [0.5, 1.5]],
                 "standard_physics": false}
               | {"kind": "pairs", "param_csv": "...", "data_csv": "..."},
      "initial": {"kind": "uniform", "n": 2000},            # ignored for pairs
      "target": {"kind": "normal", "mu": 2.39, "sigma": 0.035,
                  "m": 10000, "seed": 7}                     # m null = exact CDF
               | {"kind": "uniform", "low": ..., "high": ..., "m": ..., "seed": ...}
               | {"kind": "mixture", "components": [[w, a, b], ...], "m": ..., "seed": ...}
               | {"kind": "samples", "csv": "observed.csv"},
      "method": {"p": 40, "partition_box": [[0.575, 0.61]],  # optional focus box
                  "data_box": [[0.3, 1.0]],                  # known support override
                  "cells_per_dim": null,                     # grid cells per data dim
                  "n_batch": null, "min_fill": "proportional",  # live fill loop only
                  "weight_floor": 1e-6, "padding": 1e-3, "kde_rule": "scott"},
      "output": {"pushforward_grid": 512}
    }

Validated ranges: ``seed`` and ``target.seed`` are integers >= 0 (numpy
seeds take no negative entropy; a null ``target.seed`` means the default);
``initial.n``, ``method.p``, ``method.n_batch`` and
``output.pushforward_grid`` are integers >= 1; ``method.cells_per_dim`` is a
nonempty list of integers >= 1, one per data dimension; ``method.padding``
is a finite number >= 0; ``method.kde_rule`` is "scott", "silverman" or a
finite number > 0 (a fixed bandwidth); the target, ``method.partition_box``
and ``method.data_box`` have the data's dimension (1 for the rod, the
``data_csv`` columns for pairs). k-means needs ``method.p`` at most the
number of initial samples, ``method.data_box`` must contain every predicted
sample (for the density method it only bounds the push-forward grid), and
the density method needs at least 2 observed samples. ``method.n_batch``
and ``method.min_fill`` drive the binning fill loop, which draws from a
live model only; loaded pairs are used as they are. Unknown keys are
ignored. The literals NaN, Infinity and -Infinity, which strict JSON does
not allow, are rejected wherever they appear.

The convergence spec file carries the ConvergenceSpec fields (n_grid, p_grid,
trials, seed, region_a, optional region_b, partition_kind, model, target,
m_observed, baseline_n, baseline_trials). Validated ranges: ``seed`` and
``target.seed`` are integers >= 0, as in a solve config; ``n_grid`` and
``p_grid`` are nonempty, strictly increasing lists of integers >= 1;
``trials`` and ``baseline_trials`` are integers >= 1; ``m_observed`` and
``baseline_n`` are integers >= 2, as is the row count of a ``samples``
target (the baseline KDE needs two samples); ``padding`` is a finite number
>= 0; ``region_a`` is a box of the model's parameter dimension (2 for the
rod) and ``region_b`` one of the data's dimension. The model must be live.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import SampleSet, as_box
from .io import load_pairs, load_samples
from .models import HeatRod
from .targets import EmpiricalTarget, MixtureOfUniforms, NormalTarget, UniformTarget


class ConfigError(ValueError):
    """Invalid configuration; ``pointer`` locates the offending key."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


_REQUIRED = object()


def _get(cfg, key, pointer, kind=None, default=_REQUIRED, choices=None):
    if key not in cfg:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"{pointer}/{key}", "missing required key")
    value = cfg[key]
    if kind is not None and value is not None:
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{pointer}/{key}", f"expected a number, got {value!r}")
            value = float(value)
        elif kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{pointer}/{key}", f"expected an integer, got {value!r}")
        elif not isinstance(value, kind):
            raise ConfigError(
                f"{pointer}/{key}", f"expected {kind.__name__}, got {type(value).__name__}"
            )
    if choices is not None and value not in choices:
        raise ConfigError(f"{pointer}/{key}", f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _number(cfg, key, pointer, kind, default, low):
    """``_get`` a finite number >= ``low``; null passes only where it is the
    default."""
    value = _get(cfg, key, pointer, kind, default=default)
    if value is None and default is None:
        return None
    if value is None or not (math.isfinite(value) and value >= low):
        raise ConfigError(f"{pointer}/{key}", f"expected a finite number >= {low}, got {value!r}")
    return value


def _is_positive_number(value):
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value) and value > 0
    )


def _reject_constant(literal):
    raise ConfigError("/", f"{literal} is not a JSON number; use a finite value")


def load_config(path):
    """Parse a JSON config; the non-standard literals NaN, Infinity and
    -Infinity, which ``json`` would accept, are a ConfigError."""
    try:
        with open(path) as f:
            return json.load(f, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError("/", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"invalid JSON: {exc}") from None


@dataclass
class ResolvedModel:
    """A live model or a precomputed pair set."""

    kind: str
    model: object = None
    initial: SampleSet = None
    predicted: SampleSet = None

    @property
    def live(self):
        return self.kind != "pairs"

    @property
    def data_dim(self):
        """Dimension of the model's outputs; the rod's sensor value is 1-D."""
        return 1 if self.live else self.predicted.dim


def _check_target_dim(target, model):
    if target.dim != model.data_dim:
        raise ConfigError("/target", f"a {target.dim}-D target for {model.data_dim}-D data")


def build_model(cfg, pointer="/model", base_dir="."):
    kind = _get(cfg, "kind", pointer, str, choices={"heat_rod", "pairs"})
    if kind == "pairs":
        param_csv = os.path.join(base_dir, _get(cfg, "param_csv", pointer, str))
        data_csv = os.path.join(base_dir, _get(cfg, "data_csv", pointer, str))
        try:
            initial, predicted = load_pairs(param_csv, data_csv)
        except (ValueError, OSError) as exc:
            raise ConfigError(pointer, str(exc)) from None
        return ResolvedModel("pairs", initial=initial, predicted=predicted)
    lambda_box = _get(cfg, "lambda_box", pointer, list, default=[[1.9, 2.1], [0.5, 1.5]])
    try:
        model = HeatRod(
            x_star=_get(cfg, "x_star", pointer, float, default=1.2),
            t_star=_get(cfg, "t_star", pointer, float, default=0.01),
            truncation=_get(cfg, "truncation", pointer, int, default=100),
            lambda_box=tuple(tuple(b) for b in lambda_box),
            standard_physics=_get(cfg, "standard_physics", pointer, bool, default=False),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from None
    return ResolvedModel("heat_rod", model=model)


@dataclass
class ResolvedTarget:
    """Target for the QP plus (optional) observed samples for KDE methods."""

    target: object
    observed: SampleSet = None  # samples backing the EDF / density estimate
    exact: object = None  # the exact target when one exists

    @property
    def observed_or_fail(self):
        if self.observed is None:
            raise ConfigError(
                "/target/m",
                "this method needs observed samples; set target.m (or use kind=samples)",
            )
        if self.observed.n < 2:
            raise ConfigError("/target/m", f"needs at least 2 observed samples, got {self.observed.n}")
        return self.observed


def build_target(cfg, seed, pointer="/target", base_dir="."):
    kind = _get(cfg, "kind", pointer, str, choices={"normal", "uniform", "mixture", "samples"})
    if kind == "samples":
        path = os.path.join(base_dir, _get(cfg, "csv", pointer, str))
        try:
            samples = load_samples(path)
        except (ValueError, OSError) as exc:
            raise ConfigError(pointer, str(exc)) from None
        return ResolvedTarget(EmpiricalTarget(samples), observed=samples)
    try:
        if kind == "normal":
            exact = NormalTarget(
                _get(cfg, "mu", pointer, float), _get(cfg, "sigma", pointer, float)
            )
        elif kind == "uniform":
            exact = UniformTarget(
                _get(cfg, "low", pointer, float), _get(cfg, "high", pointer, float)
            )
        else:
            comps = _get(cfg, "components", pointer, list)
            exact = MixtureOfUniforms(tuple(tuple(c) for c in comps))
    except (TypeError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from None
    m = _get(cfg, "m", pointer, int, default=None)
    if m is None:
        return ResolvedTarget(exact, exact=exact)
    if m < 1:
        raise ConfigError(f"{pointer}/m", f"m must be positive, got {m}")
    target_seed = _number(cfg, "seed", pointer, int, None, 0)
    if target_seed is None:
        target_seed = (seed, 11)
    observed = exact.sample(m, np.random.default_rng(np.random.SeedSequence(target_seed)))
    return ResolvedTarget(EmpiricalTarget(observed), observed=observed, exact=exact)


@dataclass
class SolveConfig:
    seed: int
    model: ResolvedModel
    target: ResolvedTarget
    n_initial: int
    p: int
    partition_box: object
    data_box: object
    cells_per_dim: object
    n_batch: object
    min_fill: str
    weight_floor: float
    padding: float
    kde_rule: object
    pushforward_grid: int
    raw: dict = field(default_factory=dict)


def build_solve_config(cfg, base_dir="."):
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be a JSON object")
    seed = _number(cfg, "seed", "", int, 0, 0)
    model = build_model(_get(cfg, "model", "", dict), base_dir=base_dir)
    target = build_target(_get(cfg, "target", "", dict), seed, base_dir=base_dir)
    _check_target_dim(target.target, model)
    initial_cfg = _get(cfg, "initial", "", dict, default={})
    if initial_cfg:
        _get(initial_cfg, "kind", "/initial", str, default="uniform", choices={"uniform"})
    n_initial = _get(initial_cfg, "n", "/initial", int, default=2000)
    if n_initial < 1:
        raise ConfigError("/initial/n", f"n must be positive, got {n_initial}")
    method = _get(cfg, "method", "", dict, default={})
    p = _get(method, "p", "/method", int, default=40)
    if p < 1:
        raise ConfigError("/method/p", f"p must be positive, got {p}")
    def _box_option(key):
        raw = _get(method, key, "/method", list, default=None)
        if raw is None:
            return None
        try:
            box = as_box(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"/method/{key}", str(exc)) from None
        if box.dim != target.target.dim:
            raise ConfigError(f"/method/{key}", f"a {box.dim}-D box for {target.target.dim}-D data")
        return box

    partition_box = _box_option("partition_box")
    data_box = _box_option("data_box")
    cells_per_dim = _get(method, "cells_per_dim", "/method", list, default=None)
    if cells_per_dim is not None and not (cells_per_dim and all(
        isinstance(c, int) and _is_positive_number(c) for c in cells_per_dim
    )):
        raise ConfigError(
            "/method/cells_per_dim", f"expected positive integers, got {cells_per_dim!r}"
        )
    output = _get(cfg, "output", "", dict, default={})
    kde_rule = _get(method, "kde_rule", "/method", default="scott")
    if kde_rule not in ("scott", "silverman") and not _is_positive_number(kde_rule):
        raise ConfigError(
            "/method/kde_rule",
            f"expected 'scott', 'silverman' or a positive bandwidth, got {kde_rule!r}",
        )
    min_fill = _get(
        method, "min_fill", "/method", str, default="proportional",
        choices={"proportional", "at_least_one", "none"},
    )
    return SolveConfig(
        seed=seed,
        model=model,
        target=target,
        n_initial=n_initial,
        p=p,
        partition_box=partition_box,
        data_box=data_box,
        cells_per_dim=cells_per_dim,
        n_batch=_number(method, "n_batch", "/method", int, None, 1),
        min_fill=min_fill,
        weight_floor=_get(method, "weight_floor", "/method", float, default=1e-6),
        padding=_number(method, "padding", "/method", float, 1e-3, 0.0),
        kde_rule=kde_rule,
        pushforward_grid=_number(output, "pushforward_grid", "/output", int, 512, 1),
        raw=cfg,
    )


def build_convergence_spec(cfg, base_dir="."):
    from .experiments import ConvergenceSpec
    from .models import heat_rod_observed

    if not isinstance(cfg, dict):
        raise ConfigError("/", "spec must be a JSON object")
    seed = _number(cfg, "seed", "", int, 0, 0)
    model_cfg = _get(cfg, "model", "", dict, default={"kind": "heat_rod"})
    model = build_model(model_cfg, base_dir=base_dir)
    if not model.live:
        raise ConfigError("/model/kind", "the convergence study needs a live model")
    if "target" in cfg:
        target = build_target(cfg["target"], seed, base_dir=base_dir)
        target_obj = target.exact if target.exact is not None else target.target
    else:
        target_obj = heat_rod_observed()
    _check_target_dim(target_obj, model)
    kwargs = {}
    for key, kind in (
        ("n_grid", list), ("p_grid", list), ("trials", int),
        ("region_a", list), ("region_b", list),
        ("partition_kind", str), ("m_observed", int),
        ("baseline_n", int), ("baseline_trials", int),
        ("weight_floor", float), ("padding", float),
    ):
        if key in cfg:
            kwargs[key] = _get(cfg, key, "", kind)
    try:
        return ConvergenceSpec(seed=seed, model=model.model, target=target_obj, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("/", str(exc)) from None
