"""The checks a traced benchmark run makes, as tier-1 tests.

``perfbench/tracing.py`` looks up each ``(module, qualname)`` of ``LAYERS``
when ``--trace 1`` runs, so removing or renaming one of those functions
breaks the traced benchmark. A traced run also runs the smoke commands of
``LAYER_PASS`` (``perfbench/worker.py``) and fails unless they enter every
layer, and unless each traced command writes the same results as its
untraced twin. These tests load the benchmark's modules without changing
anything and repeat those checks.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, qualname, _layer, _hook in load_perfbench("tracing").LAYERS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name, None)
            # the tracer replaces the method in the class's own __dict__
            if owner is None or attr not in vars(owner):
                missing.append(f"{module_name}.{qualname}")
        elif not callable(getattr(module, qualname, None)):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, missing


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's tracing, workloads and worker modules."""
    workloads = load_perfbench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # worker.py imports it by name
    return load_perfbench("tracing"), workloads, load_perfbench("worker")


def test_layer_pass_enters_every_layer_and_tracing_changes_no_result(bench, tmp_path):
    from dcinv import cli

    tracing, workloads, worker = bench
    tracer = tracing.Tracer()
    seed = workloads.input_seed(1, 999)
    for name in worker.LAYER_PASS:
        digests = {}
        for tag, scope in (("plain", None), ("traced", tracer)):
            argv, out_dir = workloads.command(name, seed, True, str(tmp_path), f"{name}-{tag}")
            if scope is None:
                code = cli.main(argv)
            else:
                with scope.installed(tag):
                    code = cli.main(argv)
            assert code == 0, (name, tag)
            digests[tag] = workloads.digests(out_dir)
        assert digests["plain"], name
        assert digests["traced"] == digests["plain"], name
    missing = sorted(set(tracing.LAYER_NAMES) - tracer.entered())
    assert not missing, f"the traced commands entered no call in layers {missing}"
