"""Span collector for the traced benchmark run.

The traced run wraps ovmkit's public functions from outside the package:
every module attribute or package export that refers to a listed
function is replaced by a wrapper that records a span (name, start, end,
parent span, operation id).  Calls between ovmkit modules go
through those same bindings, so nested library calls are seen too.
Spans stay in memory in flat arrays and are written once, when the run
ends.  Counts such as solver iterations are read off the returned result
objects.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, has wrapped children) for module-level functions, keyed as
# "<module>.<function>".
FUNCTIONS = {
    "opcore.hermitian": False,
    "opcore.is_hermitian": False,
    "opcore.psd_check": True,
    "opcore.psd_sqrt": True,
    "opcore.op_norm": True,
    "opcore.herm_coords": True,
    "ovm.direct_sum": True,
    "ovm.evaluate": False,
    "ovm.evaluate_fractional": True,
    "ovm.induced_measure": False,
    "ovm.check_ovm_properties": True,
    "rnderiv.rn_derivative": True,
    "rnderiv.rn_exists": True,
    "rnderiv.rn_consistency": True,
    "qintegrate.indicator": True,
    "qintegrate.integrate": False,
    "qintegrate.integrand_fs": True,
    "qintegrate.ess_support": False,
    "qintegrate.ess_range": True,
    "qintegrate.ess_sup": True,
    "lyapunov.attain": True,
    "lyapunov.purify": True,
    "lyapunov.realize_intervals": True,
    "lyapunov.coordinate_matrix": False,
    "lyapunov.convex_combine": True,
    "lyapunov.kernel_witness": True,
    "lyapunov.joint_attain": True,
    "lyapunov.convexity_certificate": True,
    "lyapunov.brute_force_range": False,
    "cli.main": True,
}
# Validation in the value classes' __post_init__, reported as "<name>_s".
INITS = ("ovm.OVM.init", "qintegrate.QuantumRandomVariable.init")
# Every function defined in ovmkit.models records one span name.
MODELS = "models"
CLI_KINDS = ("attain", "convexity", "paper_example_13", "uhl",
             "singular_34", "classical", "properties")
COUNTERS = (
    "lyapunov.attain.iterations",
    "lyapunov.attain.rejected",
    "lyapunov.purify.pivots",
    "lyapunov.purify.fractional_out",
    "lyapunov.realize_intervals.intervals",
    "qintegrate.ess_range.values",
)


def _count(counts, key, amount):
    counts[key] = counts.get(key, 0) + int(amount)


def _attain_result(counts, r):
    _count(counts, "lyapunov.attain.iterations", r.iterations)


def _attain_error(counts, exc):
    if type(exc).__name__ == "TargetNotInHull":
        _count(counts, "lyapunov.attain.rejected", 1)


def _purify_result(counts, r):
    _count(counts, "lyapunov.purify.pivots", r.iterations)
    _count(counts, "lyapunov.purify.fractional_out", len(r.fractional_indices))


RESULT_HOOKS = {
    "lyapunov.attain": _attain_result,
    "lyapunov.purify": _purify_result,
    "lyapunov.realize_intervals":
        lambda counts, r: _count(counts, "lyapunov.realize_intervals.intervals", r.interval_count),
    "qintegrate.ess_range":
        lambda counts, r: _count(counts, "qintegrate.ess_range.values", len(r)),
}
ERROR_HOOKS = {"lyapunov.attain": _attain_error}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, has_children in FUNCTIONS.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        if has_children:
            units[f"{name}.self_s"] = "s"
    for name in INITS:
        units[f"{name}.calls"] = "count"
        units[f"{name}_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units[f"{MODELS}.calls"] = "count"
    units[f"{MODELS}.busy_s"] = "s"
    for kind in CLI_KINDS:
        units[f"cli.kind.{kind}.busy_s"] = "s"
    units["lyapunov.attain.children_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


class Tracer:
    """Records nested spans in flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.outer = array("b")  # 1 when no span of the same name is open
        self.counts: dict[str, int] = {}
        self.active = True
        self.op_id = -1  # -1: set-up, before the first operation
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: list[int] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def wrap(self, fn, name: str):
        """``fn`` recording a span named ``name`` around every call."""
        nid = self._name_id(name)
        on_result = RESULT_HOOKS.get(name)
        on_error = ERROR_HOOKS.get(name)
        stack, opened, counts = self._stack, self._open, self.counts
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.outer.append(opened[nid] == 0)
            end.append(0.0)
            opened[nid] += 1
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
                opened[nid] -= 1
            if on_result is not None:
                on_result(counts, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap the listed functions of every loaded ovmkit module, at each
        name through which package, module or caller reaches them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ovmkit" or name.startswith("ovmkit.")}
        wrappers = {}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            if f"ovmkit.{module}" in modules:
                fn = getattr(modules[f"ovmkit.{module}"], attr)
                wrappers[id(fn)] = (fn, self.wrap(fn, name))
        models = modules.get("ovmkit.models")
        if models is not None:
            for fn in vars(models).values():
                if inspect.isfunction(fn) and fn.__module__ == models.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(fn, MODELS))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])
        for name in INITS:
            module, cls_name, _ = name.split(".")
            cls = getattr(modules[f"ovmkit.{module}"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._patch(cls, "__post_init__", original, self.wrap(original, name))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }

    def save(self, path, op_labels):
        np.savez(path, names=np.array(self.names), op_labels=np.array(op_labels),
                 **self.arrays())

    def summary(self, op_kinds) -> dict[str, float]:
        """Per-layer metrics: calls, busy time (outermost spans of a name),
        self time (duration minus the direct children's spans) and counts.

        ``op_kinds[i]`` names the scenario kind of operation i, used to
        split cli.main time by kind.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        by_name = {name: i for i, name in enumerate(self.names)}
        out = dict.fromkeys(metric_units(), 0)
        for name, nid in by_name.items():
            mine = a["name"] == nid
            top = mine & a["outer"]
            busy_key = f"{name}_s" if name in INITS else f"{name}.busy_s"
            out[f"{name}.calls"] = int(mine.sum())
            out[busy_key] = float(dur[top].sum())
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] = float((dur[mine] - child[mine]).sum())
        attain = a["name"] == by_name.get("lyapunov.attain", -1)
        out["lyapunov.attain.children_s"] = float(child[attain].sum())
        main = (a["name"] == by_name.get("cli.main", -1)) & a["outer"]
        for i in np.flatnonzero(main):
            kind = op_kinds[a["op"][i]] if a["op"][i] >= 0 else None
            if kind in CLI_KINDS:
                out[f"cli.kind.{kind}.busy_s"] += float(dur[i])
        out.update(self.counts)
        out["trace.spans"] = int(dur.size)
        return out
