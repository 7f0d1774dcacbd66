"""The benchmark's tracer wraps ubd functions by name: every name it lists
must still resolve, or the traced benchmark run stops with AttributeError."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")


def _tracing_lists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED, module.TRACED_METHODS, module.COUNTED_METHODS


def test_every_traced_name_resolves():
    traced, methods, counted = _tracing_lists()
    names = [(home, (attr,)) for _, home, attr, _ in traced]
    names += [(home, (cls, attr)) for _, home, cls, attr in methods]
    names += [(home, (cls, attr)) for _, home, cls, attrs in counted
              for attr in attrs]
    missing = []
    for home, path in names:
        obj = importlib.import_module(f"ubd.{home}")
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"ubd.{home}.{'.'.join(path)}")
    assert missing == []
