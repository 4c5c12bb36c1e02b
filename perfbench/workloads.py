"""The three benchmark workloads, each a fixed stream of ovmkit operations.

A workload is built from a seed and a number of cycles.  Every cycle runs
the same list of cases on fresh seeded inputs, so the stream's shape is
fixed and only the drawn numbers change with the seed.  Every operation
carries a check of its output; see WORKLOADS.md for why each workload
was chosen and what it costs.

Operations call ovmkit through the package (``getattr(ok, name)``) at
call time, so the traced run sees the wrappers installed after set-up.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from inputs import Inputs

OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    case: str
    kind: str
    call: Callable[[], Any]
    # (result, exception or None) -> None when correct, else the reason.
    check: Callable[[Any, BaseException | None], str | None]


@dataclass
class Plan:
    ops: list[Op]
    digest: str
    # Run once, untimed, before the stream.
    warmup: list[Op] = field(default_factory=list)


def scratch_dir() -> Path:
    """Where this process writes scenario configs and reports; the caller
    removes it when the run ends."""
    return OUT / f"scenarios-{os.getpid()}"


def call(ok, name, *args):
    return lambda: getattr(ok, name)(*args)


def returns(check, *args):
    """Verdict for an operation that must return; ``check(*args, result)``."""
    def verdict(out, err):
        if err is not None:
            return f"raised {type(err).__name__}: {err}"
        return check(*args, out)
    return verdict


# --- interior: attain and convex_combine on the ROADMAP grid -------------

INTERIOR_GRID = tuple((d, m) for d in (1, 2, 3, 4) for m in (200, 1000, 2000))


def interior(ok, seed: int, cycles: int) -> Plan:
    inp = Inputs(seed, "interior")
    spaces = {m: ok.SampleSpace.uniform(m) for _, m in INTERIOR_GRID}
    ops = []
    for _ in range(cycles):
        # A fresh measure per cycle: solver cost varies with the measure.
        for d, m in INTERIOR_GRID:
            masses = inp.masses(d, m)
            nu = ok.grid_ovm(spaces[m], masses)
            target = np.tensordot(inp.fractions(m), masses, axes=1)
            ops.append(Op(f"attain d={d} m={m}", "attain", call(ok, "attain", nu, target),
                          returns(checks.realization, masses, target)))
            e1, e2, t = inp.mask(m), inp.mask(m), inp.weight()
            mixed = t * masses[e1].sum(axis=0) + (1.0 - t) * masses[e2].sum(axis=0)
            sets = ok.MeasurableSet(tuple(e1)), ok.MeasurableSet(tuple(e2))
            ops.append(Op(f"convex_combine d={d} m={m}", "convex_combine",
                          call(ok, "convex_combine", nu, *sets, t),
                          returns(checks.realization, masses, mixed)))
    return Plan(ops, inp.digest())


# --- calculus: everything but attain, on raw mass and value arrays -------

# (d, m, every value distinct, with null cells).  ess_range deduplicates
# in O(m^2) op_norm calls when values are distinct, so those cases stay
# near m = 200; pooled values allow m = 1000.  The two distinct cases at
# m = 200 give the tail one band of 8 calls per cycle.
CALCULUS_CASES = (
    (1, 200, True, False),
    (2, 200, True, False),
    (3, 150, True, True),
    (4, 64, True, True),
    (1, 1000, False, True),
    (2, 1000, False, False),
    (3, 500, False, True),
    (4, 1000, False, False),
)
NULL_SHARE = 0.25


def calculus_case(ok, inp: Inputs, space, d: int, m: int, distinct: bool, nulls: bool):
    masses = inp.masses(d, m, NULL_SHARE if nulls else 0.0)
    values, labels = inp.values(d, m, distinct)
    rho, s = inp.state(d), inp.state(d)
    mask, h = inp.mask(m), inp.fractions(m)
    sample = [inp.mask(m) for _ in range(8)]
    e = ok.MeasurableSet(tuple(mask))
    frac = ok.FractionalSet(tuple(h))
    sets = [ok.MeasurableSet(tuple(x)) for x in sample]
    built = {}

    def build(key, name, *args):
        def run():
            built[key] = getattr(ok, name)(*args)
            return built[key]
        return run

    def with_built(name, *args):
        return lambda: getattr(ok, name)(*(built.get(a, a) if isinstance(a, str) else a
                                           for a in args))

    def built_ovm(nu):
        return checks.same_stack(masses, "OVM masses", nu.cell_masses) or (
            None if nu.positive else "OVM not flagged positive")

    def built_qrv(f):
        return checks.same_stack(values, "step values", f.cell_values) or (
            None if f.self_adjoint else "step function not flagged self-adjoint")

    def indicator_integral():
        return ok.integrate(built["nu"], ok.indicator(space, d, e))

    tag = f"d={d} m={m} {'distinct' if distinct else 'pooled'}{' nulls' if nulls else ''}"
    steps = [
        ("grid_ovm", build("nu", "grid_ovm", space, masses), returns(built_ovm)),
        ("qrv", build("f", "qrv", space, values), returns(built_qrv)),
        ("evaluate", with_built("evaluate", "nu", e),
         returns(checks.set_value, masses, mask, "evaluate")),
        ("evaluate_fractional", with_built("evaluate_fractional", "nu", frac),
         returns(checks.set_value, masses, h, "evaluate_fractional")),
        ("induced_measure", with_built("induced_measure", "nu", rho),
         returns(lambda r: checks.induced(rho, masses, r.cells))),
        ("rn_derivative", with_built("rn_derivative", "nu", rho),
         returns(lambda r: checks.density(rho, masses, r.cells))),
        ("rn_consistency", with_built("rn_consistency", "nu", rho, sets),
         returns(checks.at_most, checks.RN_CONSISTENCY_TOL, "rn_consistency")),
        ("integrate", with_built("integrate", "nu", "f"),
         returns(lambda r: checks.integrated(checks.integral(masses, values), r))),
        ("indicator_integrate", indicator_integral,
         returns(checks.indicator_identity, masses, mask)),
        ("integrand_fs", with_built("integrand_fs", "f", s, "nu", rho),
         returns(lambda r: checks.integration_identity(
             s, rho, masses, checks.integral(masses, values), r.cells))),
        ("ess_support", with_built("ess_support", "f", "nu"),
         returns(lambda r: checks.support(masses, values, r.cell_mask))),
        ("ess_range", with_built("ess_range", "f", "nu"),
         returns(checks.ess_values, masses, values, labels)),
        ("ess_sup", with_built("ess_sup", "f", "nu"),
         returns(checks.ess_sup, masses, values)),
    ]
    return [Op(f"{name} {tag}", name, run, verdict) for name, run, verdict in steps]


def calculus(ok, seed: int, cycles: int) -> Plan:
    inp = Inputs(seed, "calculus")
    spaces = {m: ok.SampleSpace.uniform(m) for _, m, _, _ in CALCULUS_CASES}
    ops = []
    for _ in range(cycles):
        for d, m, distinct, nulls in CALCULUS_CASES:
            ops += calculus_case(ok, inp, spaces[m], d, m, distinct, nulls)
    return Plan(ops, inp.digest())


# --- scenarios: the CLI on written configs -------------------------------

def _matrix(a) -> dict:
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def _inline_ovm(masses) -> dict:
    m = masses.shape[0]
    return {
        "space": {"a": 0.0, "b": 1.0, "breakpoints": (np.arange(m + 1) / m).tolist(),
                  "atoms": [], "divisible": [True] * m},
        "dim": int(masses.shape[1]),
        "variant": "grid",
        "cell_masses": [_matrix(x) for x in masses],
        "atom_masses": [],
    }


def scenario_configs(inp: Inputs):
    """(name, config, expected exit code) for all seven kinds, a check
    failure, and malformed configs that must end in an exit-1 report; and
    apart, nu(X) of a scalar measure, which is in the range but which the
    feasibility loop runs to its iteration cap (about 2 s) and rejects."""
    def seed():
        return int(inp.keep(inp.rng.integers(0, 2**31, 1))[0])

    masses = inp.masses(2, 24)
    target = np.tensordot(inp.fractions(24), masses, axes=1)
    ovm = _inline_ovm(masses)
    scalar_ovm = _inline_ovm(inp.masses(1, 50))
    no_dim = {k: v for k, v in ovm.items() if k != "dim"}
    lambdas = [float(x) for x in inp.keep(inp.rng.uniform(0.05, 0.95, 4))]
    fraction = inp.weight()
    return [
        ("attain_inline", {"kind": "attain", "ovm": ovm, "target": _matrix(target)}, 0),
        ("attain_model", {"kind": "attain", "ovm": {"model": "lebesgue_identity", "dim": 2,
                                                    "cells": 16},
                          "target": {"total_fraction": fraction}}, 0),
        ("attain_random_povm", {"kind": "attain", "ovm": {"model": "random_povm", "dim": 3,
                                                          "cells": 40, "seed": seed()},
                                "target": {"total_fraction": inp.weight()}}, 0),
        ("convexity", {"kind": "convexity", "ovm": {"model": "random_povm", "dim": 2,
                                                    "cells": 40, "seed": seed()},
                       "trials": 100, "seed": seed()}, 0),
        ("paper_example_13", {"kind": "paper_example_13", "levels": 8}, 0),
        ("uhl", {"kind": "uhl", "cells": 12}, 0),
        ("singular_34", {"kind": "singular_34", "measures": 4, "lambdas": lambdas}, 0),
        ("classical", {"kind": "classical", "measures": 3, "cells": 64, "trials": 5,
                       "seed": seed()}, 0),
        ("properties", {"kind": "properties", "ovm": ovm, "seed": seed(),
                        "expect": {"positive": True, "spectral": False}}, 0),
        ("properties_wrong_expectation", {"kind": "properties", "ovm": ovm, "seed": seed(),
                                          "expect": {"spectral": True}}, 2),
        ("unknown_kind", {"kind": "nope"}, 1),
        ("unknown_key", {"kind": "uhl", "cells": 8, "bogus": 1}, 1),
        ("uhl_too_small", {"kind": "uhl", "cells": 1}, 1),
        ("lambdas_out_of_range", {"kind": "singular_34", "measures": 2,
                                  "lambdas": [0.5, 1.5]}, 1),
        ("lambdas_scalar", {"kind": "singular_34", "measures": 4, "lambdas": 5}, 1),
        ("expect_scalar", {"kind": "convexity", "ovm": {"model": "random_povm", "dim": 2,
                                                        "cells": 8, "seed": seed()},
                           "trials": 2, "expect": 3}, 1),
        ("inline_ovm_without_dim", {"kind": "attain", "ovm": no_dim,
                                    "target": _matrix(target)}, 1),
    ], ("attain_whole_scalar_measure", {"kind": "attain", "ovm": scalar_ovm,
                                        "target": {"total_fraction": 1.0}}, 0)


def scenario_op(cli, name, kind, config_path: Path, report_path: Path, expected, refs):
    """One ``ovmkit run`` of a config.  The warm-up run (``expected`` None)
    records the reference report; timed runs compare against it."""
    argv = ["run", "--config", str(config_path), "--out", str(report_path)]

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def verdict(code, err):
        data = report_path.read_bytes() if report_path.exists() else None
        report_path.unlink(missing_ok=True)
        if expected is None:
            refs[name] = data
            return None
        if err is not None:
            return f"raised {type(err).__name__}: {err}"
        return checks.scenario(expected, refs.get(name), code, data)

    return Op(name, kind, run, verdict)


def scenarios(ok, seed: int, cycles: int) -> Plan:
    cli = importlib.import_module("ovmkit.cli")
    inp = Inputs(seed, "scenarios")
    workdir = scratch_dir()
    workdir.mkdir(parents=True, exist_ok=True)
    refs: dict[str, bytes | None] = {}
    warmup, ops = [], []
    per_cycle, capped = scenario_configs(inp)
    for name, config, expected in per_cycle + [capped]:
        config_path = workdir / f"{name}.json"
        config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        report_path = workdir / f"{name}.report.json"
        kind = config["kind"]
        warmup.append(scenario_op(cli, name, kind, config_path, report_path, None, refs))
        ops.append(scenario_op(cli, name, kind, config_path, report_path, expected, refs))
    # The capped attain runs once per run, not per cycle, so that it shows
    # without taking most of the run's time.  With 17 configs per cycle and
    # c cycles the stream has 17c + 1 operations: the median sits at sorted
    # index 8.5c, mid-way through the c calls of the ninth-cheapest config
    # rather than on the edge between two configs, and the tail rank
    # 17c - 10 falls among the c calls of the costliest one (uhl).
    return Plan(ops[:-1] * cycles + ops[-1:], inp.digest(), warmup)


WORKLOADS = {
    "interior": interior,
    "calculus": calculus,
    "scenarios": scenarios,
}
