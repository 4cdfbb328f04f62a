"""Every name the benchmark's layer tracer patches must still exist.

perfbench/tracer.py wraps functions and methods by name; a target that no
longer resolves would silently drop a layer from the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("module,attr", [(t[0], t[1]) for t in TARGETS])
def test_trace_target_resolves(module, attr):
    mod = importlib.import_module(f"degenbell.{module}")
    if "." in attr:
        # Patched through the class __dict__, so the method must be defined
        # on the class itself, not inherited or synthesised.
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(mod, attr, None))
