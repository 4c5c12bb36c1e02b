"""The traced benchmark run (perfbench/tracing.py) wraps ovmkit functions
and value-class initialisers by name; every name must still resolve, or a
traced run fails only when it is started."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for name in load_tracing().FUNCTIONS:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"ovmkit.{module}"), attr, None)
        assert inspect.isfunction(fn), name


def test_traced_initialisers_are_defined_on_their_class():
    for name in load_tracing().INITS:
        module, cls_name, _ = name.split(".")
        cls = getattr(importlib.import_module(f"ovmkit.{module}"), cls_name)
        assert "__post_init__" in vars(cls), name
