"""Every call the benchmark's tracer wraps must exist under its listed name.

``perfbench/tracing.py`` looks up each ``(module, qualname)`` of ``LAYERS``
when ``--trace 1`` runs, so removing or renaming one of those functions
breaks the traced benchmark. This test loads the tracer's table without
changing anything and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for module_name, qualname, _layer, _hook in load_layers():
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
