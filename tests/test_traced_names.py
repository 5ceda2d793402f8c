"""Every function and method the benchmark's tracer wraps stays defined.

``perfbench/spans.py`` looks each name up when a traced run starts, so a
deletion in the package would otherwise surface only under ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans()
    missing = []
    for layer, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"dqsolve.{layer}")
        missing += [f"{layer}.{name}" for name in names if not callable(getattr(module, name, None))]
    for layer, classes in spans.METHODS.items():
        module = importlib.import_module(f"dqsolve.{layer}")
        for cls_name, methods in classes.items():
            # the tracer replaces the class's own attribute, not an inherited one
            own = vars(getattr(module, cls_name, object))
            missing += [f"{layer}.{cls_name}.{name}" for name in methods if not callable(own.get(name))]
    assert not missing
