"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that input generation is deterministic for a fixed seed, that
every correctness check passes on a right output and trips on a corrupted
one, that the span collector's accounting adds up and repeats exactly,
and that BENCHMARK.json lists exactly the metrics the harness reports.
Exits 0 when every test passes.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inputs import Inputs  # noqa: E402

import ovmkit as ok  # noqa: E402


def _verdict(op, out=None, err=None):
    return op.check(out, err)


def _small_measure(seed=3, d=2, m=16):
    masses = Inputs(seed, "selftest").masses(d, m)
    return masses, ok.grid_ovm(ok.SampleSpace.uniform(m), masses)


def test_inputs_are_deterministic():
    a, b = Inputs(7, "interior"), Inputs(7, "interior")
    for gen in (a, b):
        gen.masses(3, 40, 0.25)
        gen.values(2, 30, False)
        gen.state(2)
        gen.fractions(10)
    assert a.digest() == b.digest()
    c = Inputs(8, "interior")
    c.masses(3, 40, 0.25)
    assert c.digest() != a.digest()
    for build in (workloads.calculus, workloads.scenarios):
        first, second = build(ok, 5, 1), build(ok, 5, 1)
        assert first.digest == second.digest
        assert [op.case for op in first.ops] == [op.case for op in second.ops]
    shutil.rmtree(workloads.scratch_dir())


def test_realization_check_trips():
    masses, nu = _small_measure()
    target = np.tensordot(np.full(16, 0.4), masses, axes=1)
    result = ok.attain(nu, target)
    assert checks.realization(masses, target, result) is None
    (lo, hi), *rest = result.intervals
    shifted = dataclasses.replace(result, intervals=((lo, hi + 1e-4), *rest))
    assert checks.realization(masses, target, shifted) is not None
    too_many = dataclasses.replace(
        result, intervals=tuple((k / 64, (k + 0.5) / 64) for k in range(64)), interval_count=64)
    assert checks.realization(masses, target, too_many) is not None
    assert checks.realization(masses, target * 1.001, result) is not None


CORRUPT = {
    "grid_ovm": lambda r: SimpleNamespace(cell_masses=r.cell_masses * 1.001, positive=True),
    "qrv": lambda r: SimpleNamespace(cell_values=r.cell_values + 1e-6, self_adjoint=True),
    "evaluate": lambda r: r + 1e-9 * np.eye(r.shape[0]),
    "evaluate_fractional": lambda r: r + 1e-9 * np.eye(r.shape[0]),
    "induced_measure": lambda r: SimpleNamespace(cells=r.cells + 1e-9),
    "rn_derivative": lambda r: SimpleNamespace(
        cells=tuple(None if x is None else x * 1.001 for x in r.cells)),
    "rn_consistency": lambda r: 1e-10,
    "integrate": lambda r: r * (1 + 1e-6),
    "indicator_integrate": lambda r: r + 1e-9 * np.eye(r.shape[0]),
    "integrand_fs": lambda r: SimpleNamespace(cells=r.cells * (1 + 1e-6)),
    "ess_support": lambda r: SimpleNamespace(
        cell_mask=(not r.cell_mask[0],) + tuple(r.cell_mask[1:])),
    "ess_range": lambda r: r[:-1],
    "ess_sup": lambda r: -r,
}


def test_calculus_checks_trip():
    space = ok.SampleSpace.uniform(12)
    for distinct in (True, False):
        inp = Inputs(6, "selftest")
        ops = workloads.calculus_case(ok, inp, space, 2, 12, distinct, True)
        assert {op.kind for op in ops} == set(CORRUPT)
        for op in ops:
            out = op.call()
            assert _verdict(op, out) is None, (op.case, _verdict(op, out))
            assert _verdict(op, CORRUPT[op.kind](out)) is not None, op.case
            assert _verdict(op, None, ValueError("boom")) is not None


def test_scenario_check_trips():
    report = b'{"schema": "ovm-report/1", "pass": true}\n'
    error = b'{"error": "InvalidInput: bad", "schema": "ovm-report/1"}\n'
    assert checks.scenario(0, report, 0, report) is None
    assert checks.scenario(1, error, 1, error) is None
    assert checks.scenario(0, report, 2, report) is not None
    assert checks.scenario(0, report, 0, report.replace(b"true", b"false")) is not None
    assert checks.scenario(0, error, 0, error) is not None
    assert checks.scenario(0, None, 0, None) is not None


def test_scenarios_expect_their_exit_codes():
    plan = workloads.scenarios(ok, 9, 1)
    try:
        for op in plan.warmup:
            op.check(*_run(op))
        verdicts = {op.case: op.check(*_run(op)) for op in plan.ops}
    finally:
        shutil.rmtree(workloads.scratch_dir())
    assert verdicts["paper_example_13"] is None
    assert verdicts["attain_random_povm"] is None
    assert verdicts["unknown_kind"] is None
    assert verdicts["properties_wrong_expectation"] is None


def _run(op):
    try:
        return op.call(), None
    except Exception as exc:  # the verdict judges it
        return None, exc


def _traced_counts():
    masses, nu = _small_measure(d=2, m=30)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        ok.attain(nu, masses.sum(axis=0) * 0.3)
        tracer.op_id = 1
        ok.convex_combine(nu, ok.MeasurableSet((True, False) * 15),
                          ok.MeasurableSet((False, True) * 15), 0.25)
    finally:
        tracer.uninstall()
    return tracer.summary(["attain", "convex_combine"])


def test_tracer_accounting():
    original = ok.attain
    first, second = _traced_counts(), _traced_counts()
    assert ok.attain is original and ok.lyapunov.purify.__name__ == "purify"
    assert not hasattr(ok.lyapunov.purify, "__wrapped__")
    exact = [k for k in first if k.endswith((".calls", ".iterations", ".pivots"))]
    assert all(first[k] == second[k] for k in exact)
    assert first["lyapunov.attain.calls"] == 1
    assert first["lyapunov.purify.calls"] == 2
    assert first["opcore.herm_coords.calls"] >= 1
    busy = first["lyapunov.attain.busy_s"]
    parts = first["lyapunov.attain.self_s"] + first["lyapunov.attain.children_s"]
    assert abs(busy - parts) <= 1e-9 * busy
    assert set(first) == set(tracing.metric_units())


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failed += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
