"""Run one ovmkit benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload interior --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``all`` runs each workload in a process of its own, one after the
other.  A workload's inputs come from ``--seed``.  ``--seconds``
buys whole cycles of its fixed operation stream, round(seconds / cycle
time on the reference machine) and at least one, so both commits of a
comparison run identical work.  One caller runs the operations back to
back (closed loop) and every output is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
stream without tracing, then wraps the listed ovmkit functions in spans,
sets the stream up again and runs it once more, and prints the per-layer
metrics (set-up included) and the tracing overhead.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Details (environment, input digest, tail percentile,
failures, spans) go to perfbench/out/.
"""

import os

# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = workloads.OUT

# Seconds one cycle of each workload took on the reference machine (see
# WORKLOADS.md); --seconds buys round(seconds / CYCLE_SECONDS) cycles.
CYCLE_SECONDS = {"interior": 9.8, "calculus": 5.9, "scenarios": 1.5}
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def import_ovmkit(workload: str):
    """A fresh import of ovmkit from this checkout's src/."""
    for name in [n for n in sys.modules if n == "ovmkit" or n.startswith("ovmkit.")]:
        del sys.modules[name]
    ok = importlib.import_module("ovmkit")
    if workload == "scenarios":
        importlib.import_module("ovmkit.cli")
    if SRC not in Path(ok.__file__).resolve().parents:
        raise ImportError(f"ovmkit imported from {ok.__file__}, not from {SRC}")
    return ok


def set_up(workload: str, seed: int, cycles: int, tracer=None):
    """Import, generate inputs and build the reused library objects;
    ``tracer`` is installed right after the import."""
    started = perf_counter()
    ok = import_ovmkit(workload)
    if tracer is not None:
        tracer.install()
    plan = workloads.WORKLOADS[workload](ok, seed, cycles)
    return perf_counter() - started, plan


def run_ops(ops, tracer=None):
    """Closed loop over ``ops``; returns per-op seconds and failures."""
    seconds = np.empty(len(ops))
    failures = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        started = perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failed operation, counted below
            out, err = None, exc
        seconds[i] = perf_counter() - started
        try:
            reason = op.check(out, err)
        except Exception as exc:  # a check that cannot judge the output
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append((i, op.case, reason[:300]))
    return seconds, failures


def end_to_end(seconds, failures, setup_times):
    n = seconds.size
    ranked = np.sort(seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": n / float(seconds.sum()),
        "latency_p50_ms": float(np.median(seconds)) * 1e3,
        # The highest percentile with at least TAIL_BEYOND samples above it.
        "latency_tail_ms": float(ranked[n - TAIL_BEYOND - 1]) * 1e3,
        "ok_share": (n - len(failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}
    return metrics, tail


def per_case(ops, seconds) -> dict:
    """Median and maximum milliseconds per case label, with its count."""
    by_case = {}
    for op, t in zip(ops, seconds):
        by_case.setdefault(op.case, []).append(t * 1e3)
    return {case: {"median": statistics.median(ts), "max": max(ts), "count": len(ts)}
            for case, ts in by_case.items()}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(args, cycles: int):
    """Set up, run and (with --trace 1) trace the workload; returns the
    report, the timed plan, its failures and the input digests seen."""
    setup_times, digests, plan = [], set(), None
    for _ in range(SETUP_REPEATS):
        # Drop the previous plan first, so the peak RSS holds one plan.
        plan = None
        gc.collect()
        took, plan = set_up(args.workload, args.seed, cycles)
        setup_times.append(took)
        digests.add(plan.digest)

    run_ops(plan.warmup)
    seconds, failures = run_ops(plan.ops)
    metrics, tail = end_to_end(seconds, failures, setup_times)
    report = {"metrics": metrics, "tail": tail, "cases_ms": per_case(plan.ops, seconds),
              "setup_times_s": setup_times}
    if args.trace:
        tracer = tracing.Tracer()
        try:
            _, traced_plan = set_up(args.workload, args.seed, cycles, tracer)
            digests.add(traced_plan.digest)
            tracer.active = False
            run_ops(traced_plan.warmup)
            tracer.active = True
            traced_seconds, failures = run_ops(traced_plan.ops, tracer)
        finally:
            tracer.uninstall()
        untraced, traced = float(seconds.sum()), float(traced_seconds.sum())
        layers = tracer.summary([op.kind for op in traced_plan.ops])
        layers["trace.overhead_s"] = traced - untraced
        layers["trace.overhead_share"] = (traced - untraced) / untraced
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz", [op.case for op in traced_plan.ops])
        report["layers"] = layers
    return report, plan, failures, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run(argv, check=False).returncode
            if code:
                return code
        return 0
    sys.path.insert(0, str(SRC))
    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))

    try:
        report, plan, failures, digests = measure(args, cycles)
    except ImportError as exc:
        print(f"error: cannot import ovmkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workloads.scratch_dir(), ignore_errors=True)

    metrics, tail, attempted = report["metrics"], report["tail"], len(plan.ops)
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, cycles=cycles,
        trace=args.trace, attempted=attempted, failed=len(failures),
        failures=failures[:50], inputs_sha256=sorted(digests), environment=environment(),
        loop="closed loop, one caller; waiting time does not apply",
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")

    env = report["environment"]
    print(f"# {args.workload}: seed {args.seed}, {cycles} cycle(s), {attempted} operations, "
          f"closed loop with one caller (waiting time: not applicable)")
    print(f"# python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}, BLAS threads pinned to 1")
    print(f"# inputs sha256 {' '.join(sorted(digests))}")
    for case, count in sorted(Counter(case for _, case, _ in failures).items()):
        print(f"# failed: {count} x {case}")
    if args.trace:
        units = tracing.metric_units()
        out = {name: {"value": report["layers"][name], "unit": unit}
               for name, unit in units.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    for name, entry in out.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{tail['percentile']:.1f} of {tail['samples']} samples)"
        elif name == "ok_share":
            note = f"  (failed_share {len(failures) / attempted:.4f})"
        print(f"{name:44s} {entry['value']!r:>24} {entry['unit']}{note}")
    print(json.dumps({
        "correct": len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
