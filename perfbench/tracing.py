"""Per-layer spans recorded around calls into dcinv's public functions.

The tracer wraps the functions and methods listed in ``LAYERS`` from outside
the package: each module-level function is replaced in every ``dcinv``
module namespace that holds it (the CLI imports names directly), and each
method is replaced on its class. ``installed()`` puts the wrappers in place
for one command and restores the originals afterwards, so untraced commands
run the unmodified program.

A span records its layer, start, end, the index of the span that was open
when it started (its parent, -1 at top level) and the run id of the command.
A layer's self time is the summed duration of its spans minus the time
covered by their direct children. Spans stay in memory until ``dump``.
Counters are updated from each call's arguments and result after its span
closes, per run id; byte, pair and kernel counts are computed from array
sizes, not measured. ``density.kernel_evals`` counts exact KDE evaluation
only.

Besides the public functions, the CLI's result writers are wrapped as
``cli`` spans, so that the time ``cli.main`` spends outside every named
child span (``trace.uncovered_frac``) is glue code only.
"""

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict


def _qoi_rows(c, a, result):
    c["models.qoi.rows"] += len(result)


def _h_bytes(c, a, result):
    c["assembly.h.bytes_computed"] += 8 * result.size


def _b_pairs(c, a, result):
    c["assembly.b.pairs"] += len(a["samples"]) * len(a["target_samples"])


def _solver(c, a, result):
    b = a["problem"].b
    c["solver.calls"] += 1
    c["solver.iterations"] += result.iterations
    c["solver.fallbacks"] += result.method != "active-set"
    c["solver._support"] += float((result.w > 0).sum()) / result.w.size
    b_max = float(abs(b).max())
    rel = result.kkt.stationarity_residual / b_max if b_max > 0 else math.inf
    c["solver.kkt_rel_residual_max"] = max(c["solver.kkt_rel_residual_max"], rel)


def _fill(c, a, result):
    c["binning.fill_batches"] += result.n_batches
    c["binning.samples_drawn"] += result.n
    c["binning._useful"] += float(result.n_min.sum())


def _kernel_evals(c, a, result):
    if a["method"] == "exact":  # binned evaluation sums no kernels per query
        c["density.kernel_evals"] += len(result) * a["self"].n


# (module, function or Class.method, layer, counter hook)
LAYERS = [
    *[("dcinv.cli", f, "cli", None) for f in (
        "main", "_write_weights_csv", "_write_pushforward_csv", "_write_json")],
    *[("dcinv.config", f, "config", None) for f in (
        "load_config", "build_solve_config", "build_convergence_spec",
        "build_model", "build_target")],
    ("dcinv.models", "HeatRod.qoi", "models.qoi", _qoi_rows),
    ("dcinv.models", "UniformBoxSampler.sample", "models.sample", None),
    *[("dcinv.targets", f"{cls}.{m}", "targets", None)
      for cls in ("NormalTarget", "UniformTarget", "MixtureOfUniforms")
      for m in ("cdf", "integral_of_cdf", "sample")],
    ("dcinv.targets", "EmpiricalTarget.cdf", "targets", None),
    ("dcinv.assembly", "assemble_h", "assembly.h", _h_bytes),
    ("dcinv.assembly", "assemble_b_empirical", "assembly.b", _b_pairs),
    ("dcinv.assembly", "assemble_b_exact", "assembly.b", None),
    *[("dcinv.assembly", f, "assembly.qp", None) for f in (
        "assemble_qp", "dedupe_jitter", "scaled_cdf", "QpProblem.__post_init__")],
    ("dcinv.solver", "solve_qp", "solver", _solver),
    ("dcinv.solver", "verify_kkt", "solver", None),
    ("dcinv.binning", "solve_binning", "binning", _fill),
    *[("dcinv.binning", f, "binning", None) for f in (
        "solve_naive", "make_regular_grid", "make_kmeans", "pushforward_binned",
        "proportional_min_fill", "at_least_one_min_fill")],
    *[("dcinv.binning", f, "binning.classify", None) for f in (
        "classify", "RegularGridPartition.classify_many", "KMeansPartition.classify_many")],
    ("dcinv.binning", "distribute_cell_weights", "binning.distribute", None),
    *[("dcinv.density", f, "density", None) for f in (
        "solve_density", "kde_fit", "density_ratio", "density_ratio_many", "diagnostic",
        "rejection_sample", "update_probability")],
    ("dcinv.density", "KdeModel.pdf", "density.kde_pdf", _kernel_evals),
    *[("dcinv.edf", f, "edf", None) for f in (
        "edf_eval", "edf_eval_many", "wedf_eval", "wedf_eval_many",
        "l1_distance", "l2_distance", "sup_distance")],
    *[("dcinv.experiments", f, "experiments", None) for f in (
        "run_convergence", "derive_image_region", "compare_methods", "write_comparison",
        "ConvergenceResult.save")],
]
LAYER_NAMES = tuple(dict.fromkeys(layer for _, _, layer, _ in LAYERS))
COUNTERS = {
    "solver.iterations": "count", "solver.calls": "count", "solver.fallbacks": "count",
    "assembly.h.bytes_computed": "bytes", "assembly.b.pairs": "count",
    "models.qoi.rows": "count", "binning.fill_batches": "count",
    "binning.samples_drawn": "count", "density.kernel_evals": "count",
}


class Tracer:
    """Spans and counters of the traced commands of one benchmark run."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, run_id]
        self.counts = defaultdict(lambda: defaultdict(float))  # run_id -> counter -> value
        self._stack = []
        self._run_id = None

    def _wrap(self, fn, layer, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._run_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts[self._run_id], bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id):
        """Wrap every listed call while one command runs under ``run_id``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dcinv" or name.startswith("dcinv.")]
        undo = []
        try:
            for module_name, qualname, layer, hook in LAYERS:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(original, layer, hook))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(module, qualname)
                traced = self._wrap(original, layer, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            undo.append((mod, key, original))
            self._run_id = run_id
            yield
        finally:
            self._run_id = None
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self, run_ids):
        """{layer: self seconds} and {run_id: seconds covered by the children of
        top-level spans}, over the spans of ``run_ids``."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = dict.fromkeys(LAYER_NAMES, 0.0)
        top = defaultdict(float)
        for i, (layer, start, end, parent, run_id) in enumerate(self.spans):
            if run_id not in run_ids:
                continue
            layers[layer] += end - start - child[i]
            if parent < 0:
                top[run_id] += child[i]
        return layers, dict(top)

    def entered(self):
        return {span[0] for span in self.spans}

    def metrics(self, run_ids):
        """Per-layer figures of the commands ``run_ids``: self times and counts per command."""
        layers, _ = self.self_times(run_ids)
        per = max(len(run_ids), 1)
        c = defaultdict(float)
        for run_id in run_ids:
            for name, value in self.counts[run_id].items():
                if name == "solver.kkt_rel_residual_max":
                    c[name] = max(c[name], value)
                else:
                    c[name] += value
        out = {f"{layer}.self_s": (v / per, "s") for layer, v in layers.items()}
        out.update({name: (c[name] / per, unit) for name, unit in COUNTERS.items()})
        out["solver.support_frac"] = (
            c["solver._support"] / c["solver.calls"] if c["solver.calls"] else 0.0, "ratio")
        out["solver.kkt_rel_residual_max"] = (c["solver.kkt_rel_residual_max"], "ratio")
        drawn = c["binning.samples_drawn"]
        out["binning.fill_useful_ratio"] = (c["binning._useful"] / drawn if drawn else 0.0, "ratio")
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"layers": LAYER_NAMES, "spans": self.spans}, f)
