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
                  "kde_rule": "scott"},
      "output": {"pushforward_grid": 512}
    }

A null stands for the default only where the default is null: at
``target.m``, ``target.seed``, ``method.partition_box``, ``method.data_box``,
``method.cells_per_dim``, ``method.n_batch`` and a spec's ``region_b``.
Elsewhere it is an error, as is a number beyond the float range.

Validated ranges: ``seed`` and ``target.seed`` are integers >= 0 (numpy
seeds take no negative entropy; a null ``target.seed`` means the default);
``target.m``, ``initial.n``, ``method.p``, ``method.n_batch`` and
``output.pushforward_grid`` are integers >= 1; ``model.lambda_box`` is two
rows of (lower, upper) with lower < upper, for the rod's (ell, kappa);
``method.cells_per_dim`` is a list of integers >= 1, one per data dimension;
``method.kde_rule`` is "scott", "silverman" or a fixed bandwidth h > 0
whose square, the kernel variance, neither underflows to 0 nor overflows
(about 2.2e-162 < h < 1.3e154); the target, ``method.partition_box`` and
``method.data_box`` have the data's dimension (1 for the rod, the
``data_csv`` columns for pairs). Observed samples drawn from an exact target
must be finite. k-means needs at least ``method.p`` distinct predicted
samples, ``method.data_box`` must contain every predicted sample (for the
density method it only bounds the push-forward grid), and the density method
needs at least 2 initial and 2 observed samples. ``method.n_batch``
and ``method.min_fill`` drive the binning fill loop, which draws from a
live model only; loaded pairs are used as they are. Unknown keys are
ignored, except ``method.padding`` and ``method.weight_floor``: they once
set what are now the constants ``core.PIPELINE_PADDING`` and
``binning.WEIGHT_FLOOR``, and ignoring them would change a run's results
without notice, so each is a config error. The literals NaN, Infinity and
-Infinity, which strict JSON does not allow, are rejected wherever they
appear. The other sections of a solve config are checked before the
target's ``m`` observed samples are drawn, so an error there costs no draw.

The convergence spec file carries the ConvergenceSpec fields (n_grid, p_grid,
trials, seed, region_a, optional region_b, partition_kind, model, target,
m_observed, baseline_n, baseline_trials); for the same reason, it must
not set ``padding`` or ``weight_floor``. A spec's ``target.m`` and
``target.seed`` are checked as in a solve config but draw nothing: the study
draws its ``m_observed`` observed samples from the target's law itself.
Validated ranges:
``seed`` and ``target.seed`` are integers >= 0, as in a solve config;
``n_grid`` and ``p_grid`` are nonempty, strictly increasing lists of
integers >= 1, and for k-means no ``p_grid`` entry exceeds an ``n_grid``
entry; ``trials`` and ``baseline_trials`` are integers >= 1; ``m_observed``
and ``baseline_n`` are integers >= 2, as is the row count of a ``samples``
target (the baseline KDE needs two samples); ``region_a`` is a box of the
model's parameter dimension (2 for the rod) and ``region_b`` one of the
data's dimension. The model must be live.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .binning import WEIGHT_FLOOR
from .core import PIPELINE_PADDING, SampleSet, as_box
from .io import load_pairs, load_samples
from .models import HeatRod
from .targets import EmpiricalTarget, MixtureOfUniforms, NormalTarget, UniformTarget


class ConfigError(ValueError):
    """Invalid configuration; ``pointer`` locates the offending key."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


_REQUIRED = object()


def _get(cfg, key, pointer, kind=None, default=_REQUIRED, choices=None, low=None):
    """The leaf ``cfg[key]``, checked: present unless there is a ``default``,
    null only where the default is None, of JSON type ``kind`` (int or float:
    a finite number, >= ``low`` if given; a float is returned as a float) and
    one of ``choices`` if given."""
    where = f"{pointer}/{key}"
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(where, "missing required key")
        return default
    value = cfg[key]
    if value is None and default is None:
        return None
    if kind is int or kind is float:
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float))
        ):
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(where, f"expected {expected}, got {value!r}")
        try:
            number = float(value)
        except (TypeError, OverflowError):  # a null, or an integer beyond the float range
            number = math.nan
        if not (math.isfinite(number) and (low is None or number >= low)):
            bound = "" if low is None else f" >= {low}"
            raise ConfigError(where, f"expected a finite number{bound}, got {value!r}")
        if kind is float:
            value = number
    elif kind is not None and not isinstance(value, kind):
        raise ConfigError(where, f"expected {kind.__name__}, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(where, f"expected one of {sorted(choices)}, got {value!r}")
    return value


# Keys that once set a binning constant, with the constant's name and value.
_FIXED = {"padding": ("data-box padding", PIPELINE_PADDING),
          "weight_floor": ("cell-weight floor", WEIGHT_FLOOR)}


def _reject_fixed(cfg, pointer):
    """A ConfigError at the first ``_FIXED`` key that ``cfg`` sets."""
    for key, (name, value) in _FIXED.items():
        if key in cfg:
            raise ConfigError(f"{pointer}/{key}",
                              f"expected a config without this key: the {name} is fixed at {value:g}")


def _reject_constant(literal):
    raise ConfigError("/", f"{literal} is not a JSON number; use a finite value")


def load_config(path):
    """Parse a JSON config; the non-standard literals NaN, Infinity and
    -Infinity, which ``json`` would accept, are a ConfigError, as is a file
    that cannot be read or parsed."""
    try:
        with open(path) as f:
            return json.load(f, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError("/", f"cannot read the config file: {exc}") from None
    except ConfigError:
        raise
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of over 4300 digits
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
    options = dict(
        x_star=_get(cfg, "x_star", pointer, float, default=1.2),
        t_star=_get(cfg, "t_star", pointer, float, default=0.01),
        truncation=_get(cfg, "truncation", pointer, int, default=100),
        lambda_box=_get(cfg, "lambda_box", pointer, list, default=[[1.9, 2.1], [0.5, 1.5]]),
        standard_physics=_get(cfg, "standard_physics", pointer, bool, default=False),
    )
    try:
        model = HeatRod(**options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from None
    return ResolvedModel("heat_rod", model=model)


@dataclass
class ResolvedTarget:
    """Target for the QP plus (optional) observed samples for KDE methods."""

    target: object
    observed: SampleSet = None  # samples backing the EDF / density estimate

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


def _target_law(cfg, pointer, base_dir):
    """The target of ``cfg``, drawing nothing: (the exact law, ``m``, ``seed``),
    or (the EmpiricalTarget of the loaded samples, None, None)."""
    kind = _get(cfg, "kind", pointer, str, choices={"normal", "uniform", "mixture", "samples"})
    if kind == "samples":
        path = os.path.join(base_dir, _get(cfg, "csv", pointer, str))
        try:
            samples = load_samples(path)
        except (ValueError, OSError) as exc:
            raise ConfigError(pointer, str(exc)) from None
        return EmpiricalTarget(samples), None, None
    if kind == "normal":
        law, args = NormalTarget, [_get(cfg, k, pointer, float) for k in ("mu", "sigma")]
    elif kind == "uniform":
        law, args = UniformTarget, [_get(cfg, k, pointer, float) for k in ("low", "high")]
    else:
        law, args = MixtureOfUniforms, [_get(cfg, "components", pointer, list)]
    m = _get(cfg, "m", pointer, int, default=None, low=1)
    target_seed = _get(cfg, "seed", pointer, int, default=None, low=0)
    try:
        return law(*args), m, target_seed
    except (TypeError, ValueError) as exc:  # out of range
        raise ConfigError(pointer, str(exc)) from None


def build_target(cfg, seed, model, pointer="/target", base_dir="."):
    """The target of ``cfg`` and its observed samples: the loaded samples, or
    ``m`` draws from the exact law (none for a null ``m``), seeded by the
    target's ``seed`` or else by (``seed``, 11). The target's dimension is
    checked against ``model``'s data before anything is drawn."""
    law, m, target_seed = _target_law(cfg, pointer, base_dir)
    _check_target_dim(law, model)
    if isinstance(law, EmpiricalTarget):
        return ResolvedTarget(law, observed=law.samples)
    if m is None:
        return ResolvedTarget(law)
    seeds = np.random.SeedSequence((seed, 11) if target_seed is None else target_seed)
    try:
        observed = law.sample(m, np.random.default_rng(seeds))
    except ValueError as exc:  # samples that overflow
        raise ConfigError(pointer, str(exc)) from None
    return ResolvedTarget(EmpiricalTarget(observed), observed=observed)


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
    kde_rule: object
    pushforward_grid: int
    raw: dict = field(default_factory=dict)


def build_solve_config(cfg, base_dir="."):
    """Read and check the whole config against the model's data dimension,
    then build the target last, so that no observed sample is drawn for a
    config with an error elsewhere."""
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be a JSON object")
    seed = _get(cfg, "seed", "", int, default=0, low=0)
    model = build_model(_get(cfg, "model", "", dict), base_dir=base_dir)
    dim = model.data_dim
    initial_cfg = _get(cfg, "initial", "", dict, default={})
    _get(initial_cfg, "kind", "/initial", str, default="uniform", choices={"uniform"})
    method = _get(cfg, "method", "", dict, default={})
    _reject_fixed(method, "/method")
    output = _get(cfg, "output", "", dict, default={})

    def _box_option(key):
        raw = _get(method, key, "/method", list, default=None)
        if raw is None:
            return None
        try:
            box = as_box(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"/method/{key}", str(exc)) from None
        if box.dim != dim:
            raise ConfigError(f"/method/{key}", f"a {box.dim}-D box for {dim}-D data")
        return box

    cells_per_dim = _get(method, "cells_per_dim", "/method", list, default=None)
    if cells_per_dim is not None and not (len(cells_per_dim) == dim and all(
        isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in cells_per_dim
    )):
        raise ConfigError("/method/cells_per_dim", f"expected an integer >= 1 per dimension "
                          f"of the {dim}-D data, got {cells_per_dim!r}")
    kde_rule = _get(method, "kde_rule", "/method", default="scott")
    if isinstance(kde_rule, str):
        _get(method, "kde_rule", "/method", default="scott", choices={"scott", "silverman"})
    else:  # a fixed bandwidth h; the kernel variance h * h must be a positive float
        h = _get(method, "kde_rule", "/method", float, low=0)
        if not 0 < h * h < math.inf:
            raise ConfigError("/method/kde_rule",
                              f"expected a bandwidth whose square is a positive float, got {h!r}")
    options = dict(
        n_initial=_get(initial_cfg, "n", "/initial", int, default=2000, low=1),
        p=_get(method, "p", "/method", int, default=40, low=1),
        partition_box=_box_option("partition_box"),
        data_box=_box_option("data_box"),
        cells_per_dim=cells_per_dim,
        n_batch=_get(method, "n_batch", "/method", int, default=None, low=1),
        min_fill=_get(
            method, "min_fill", "/method", str, default="proportional",
            choices={"proportional", "at_least_one", "none"},
        ),
        kde_rule=kde_rule,
        pushforward_grid=_get(output, "pushforward_grid", "/output", int, default=512, low=1),
    )
    target = build_target(_get(cfg, "target", "", dict), seed, model, base_dir=base_dir)
    return SolveConfig(seed=seed, model=model, target=target, raw=cfg, **options)


def build_convergence_spec(cfg, base_dir="."):
    from .experiments import ConvergenceSpec
    from .models import heat_rod_observed

    if not isinstance(cfg, dict):
        raise ConfigError("/", "spec must be a JSON object")
    _reject_fixed(cfg, "")
    seed = _get(cfg, "seed", "", int, default=0, low=0)
    model = build_model(_get(cfg, "model", "", dict, default={"kind": "heat_rod"}), base_dir=base_dir)
    if not model.live:
        raise ConfigError("/model/kind", "the convergence study needs a live model")
    if "target" in cfg:  # the study draws its own m_observed samples from the law
        target_obj, _m, _seed = _target_law(_get(cfg, "target", "", dict), "/target", base_dir)
    else:
        target_obj = heat_rod_observed()
    _check_target_dim(target_obj, model)
    kwargs = {key: _get(cfg, key, "", kind) for key, kind in (
        ("n_grid", list), ("p_grid", list), ("trials", int), ("region_a", list),
        ("partition_kind", str), ("m_observed", int), ("baseline_n", int),
        ("baseline_trials", int),
    ) if key in cfg}
    # a null region_b, the default, is the image of region_a
    kwargs["region_b"] = _get(cfg, "region_b", "", list, default=None)
    try:
        return ConvergenceSpec(seed=seed, model=model.model, target=target_obj, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("/", str(exc)) from None
