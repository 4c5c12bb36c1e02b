"""Print one SHA-256 line per checked output of the library, so that two
commits can be compared with ``diff``.

    python3 tools/digests.py                  # this checkout
    python3 tools/digests.py --repo OTHER     # another checkout
    python3 tools/digests.py --drop schema --drop checks.1.value

The library and the benchmark's inputs come from the ``src/`` and
``perfbench/`` of the checkout given by ``--repo``.  Three sections run in
one process, in this order; in each, a library error is part of the output,
hashed by its type and message.

Reports: the exit code and the hash of the JSON and CSV report of each
config of the ``scenarios`` workload (``workloads.scenario_configs``) at
seeds 1 and 101, then of every subcommand at its default flags.  Each
``--drop`` removes a dotted key path (a numeric segment indexes a list)
from every report before both views are hashed, so that reports which
differ only there (a schema bump, a removed field, a round-off difference)
hash the same; a key the CSV view needs is kept there as null.

Solver: on ``models.random_povm(d, m, models.rng_from_seed(seed))`` for
each (d, m) of the ``interior`` grid and seed 1 to SOLVER_SEEDS, the same
stream then draws a target sum_k h_k M_k (h uniform in (0.01, 0.99)), two
sets and a weight in (0.05, 0.95).  Each measure yields attain's phase-1
program (every cell, scaled by ||nu(X)||) and convex_combine's (the cells
where the sets differ).  The lines hash ``_phase_one`` on every program (h,
duals, objective, steps); ``_phase_one_stack`` on each d's programs as one
stack, in the same format, so its line equals ``_phase_one``'s while the
engines agree bit for bit; and ``attain`` and ``convex_combine`` on every
measure (intervals, the bytes achieved, residual, iterations, fractional
count).  A last line gives ``_phase_one``'s step totals per d and program,
``a`` for attain's and ``c`` for convex_combine's.  Stderr gets its time
per step on the same groups, in microseconds: the median and quartiles,
over the programs that take a step, of each one's wall time (set-up
included) over its steps.  It varies from run to run; stdout does not.

Calculus: for each (d, m, distinct, nulls) case of the ``calculus`` grid
and seed 1 to CALCULUS_SEEDS, the tool's own PCG64 stream (no library
code) draws PSD cell masses summing to the identity (a quarter of them
zero with ``nulls``), Hermitian step values (one per cell with
``distinct``, else from a pool of four), two full-rank states rho and s, a
set E, fractions h and 8 sets.  Besides f it builds g, f with every value
moved by 1e-12 of its norm, and f0, f with the values on E turned into
signed zeros.  One line per public function hashes its outputs on them:
the ``grid_ovm`` and ``qrv`` builds, ``evaluate``, ``evaluate_fractional``,
``induced_measure``, ``rn_derivative``, ``rn_consistency`` on the 8 sets,
``integrate`` of f and of ``indicator`` E, ``integrand_fs``, and
``ess_support``, ``ess_range``, ``ess_sup`` and ``ess_equal`` of f, g and f0.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REPORT_SEEDS = (1, 101)
SOLVER_GRID = tuple((d, m) for d in (1, 2, 3, 4) for m in (200, 1000, 2000))
SOLVER_SEEDS = 10  # measures per grid point
# The benchmark's calculus grid: (d, m, every value distinct, with null cells).
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
CALCULUS_SEEDS = 10  # input draws per case


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def fold_bytes(sha, *arrays):
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())


# Reports ----------------------------------------------------------------


def drop(report: dict, path: str, blank: bool = False):
    """Remove a dotted key path, or with ``blank`` set its value to None; a
    numeric segment indexes a list (``checks.1.value``)."""
    *parents, last = path.split(".")
    node = report
    for key in parents:
        if isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        elif isinstance(node, dict):
            node = node.get(key)
        else:
            return
    if not isinstance(node, dict) or last not in node:
        return
    if blank:
        node[last] = None
    else:
        del node[last]


def views(cli, report: dict, paths) -> tuple[str, str]:
    """JSON and CSV text of a report with the dotted key ``paths`` dropped."""
    dropped = copy.deepcopy(report)
    for path in paths:
        drop(dropped, path)
    try:
        csv = cli.report_to_csv(dropped)
    except KeyError:
        blanked = copy.deepcopy(report)
        for path in paths:
            drop(blanked, path, blank=True)
        csv = cli.report_to_csv(blanked)
    return cli.report_to_json(dropped), csv


def scenarios(cli):
    """(name, scenario) pairs in a fixed order."""
    import inputs
    import workloads

    for seed in REPORT_SEEDS:
        per_cycle, capped = workloads.scenario_configs(inputs.Inputs(seed, "scenarios"))
        for name, config, _ in per_cycle + [capped]:
            yield f"seed{seed}/{name}", config
    parser = cli.build_parser()
    for name in cli.SCENARIOS:
        args = parser.parse_args([name.replace("_", "-")])
        yield f"default/{name}", cli._scenario_from_args(args)


def report_lines(paths):
    from ovmkit import cli

    for name, scenario in scenarios(cli):
        report, code = cli.run_scenario(scenario)
        json_text, csv_text = views(cli, report, paths)
        yield f"{name} exit={code} json={digest(json_text)} csv={digest(csv_text)}"


# Solver -----------------------------------------------------------------


def solver_cases(models):
    """(d, measure, target, e1, e2, t) for each grid point and seed."""
    for d, m in SOLVER_GRID:
        for seed in range(1, SOLVER_SEEDS + 1):
            rng = models.rng_from_seed(seed)
            nu = models.random_povm(d, m, rng)
            target = np.tensordot(rng.uniform(0.01, 0.99, m), nu.cell_masses, axes=1)
            e1, e2 = rng.random(m) < 0.5, rng.random(m) < 0.5
            yield d, nu, target, e1, e2, float(rng.uniform(0.05, 0.95))


def programs(opcore, nu, target, e1, e2, t):
    """attain's ("a") and convex_combine's ("c") phase-1 (coords, goal)
    pairs, built as those functions build them."""
    scale = nu.total_norm or 1.0
    yield "a", nu.cell_coords.T / scale, opcore.herm_coords(opcore.hermitian(target)) / scale
    h = t * e1 + (1.0 - t) * e2
    cells = np.flatnonzero((h > 0.0) & (h < 1.0))
    coords = nu.cell_coords[cells].T / scale
    yield "c", coords, coords @ h[cells]


def solved(sha, lp):
    """Fold one phase-1 result, or the error it raised, into ``sha``."""
    if isinstance(lp, Exception):
        sha.update(error_text(lp).encode())
        return
    h, duals, objective, steps = lp
    fold_bytes(sha, h, duals)
    sha.update(f"{float(objective)!r} {int(steps)}".encode())


def realized(sha, call, error):
    """Fold one AttainResult, or the ``error`` raised for it, into ``sha``."""
    try:
        r = call()
    except error as exc:
        sha.update(error_text(exc).encode())
        return
    sha.update(repr(r.intervals).encode())
    fold_bytes(sha, r.achieved)
    sha.update(f"{r.residual!r} {r.iterations} {r.fractional_count}".encode())


def quartiles(values) -> str:
    """median[q1,q3] of ``values``, or - when there are none."""
    if not values:
        return "-"
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.1f}[{q1:.1f},{q3:.1f}]"


def solver_lines():
    import ovmkit
    from ovmkit import lyapunov, models, opcore

    digests = {name: hashlib.sha256() for name in
               ("_phase_one", "_phase_one_stack", "attain", "convex_combine")}
    stacks, count = {}, 0
    kind_steps = {f"d{d}{kind}": 0 for kind in "ac" for d in (1, 2, 3, 4)}
    step_us = {key: [] for key in kind_steps}
    for d, nu, target, e1, e2, t in solver_cases(models):
        for kind, coords, goal in programs(opcore, nu, target, e1, e2, t):
            stacks.setdefault(d, []).append((coords, goal))
            try:
                started = time.perf_counter()
                lp = lyapunov._phase_one(coords, goal)
                elapsed = time.perf_counter() - started
                kind_steps[f"d{d}{kind}"] += lp[3]
                if lp[3]:
                    step_us[f"d{d}{kind}"].append(1e6 * elapsed / lp[3])
            except ovmkit.OvmError as exc:
                lp = exc
            solved(digests["_phase_one"], lp)
            count += 1
        realized(digests["attain"], lambda: lyapunov.attain(nu, target), ovmkit.OvmError)
        sets = ovmkit.MeasurableSet(tuple(e1)), ovmkit.MeasurableSet(tuple(e2))
        realized(digests["convex_combine"], lambda: lyapunov.convex_combine(nu, *sets, t),
                 ovmkit.OvmError)
    for problems in stacks.values():
        for lp in lyapunov._phase_one_stack(problems):
            solved(digests["_phase_one_stack"], lp)
    steps = sum(kind_steps.values())
    for name, sha in digests.items():
        yield f"{name} programs={count} steps={steps} sha256={sha.hexdigest()}"
    yield "_phase_one steps " + " ".join(f"{key}={n}" for key, n in kind_steps.items())
    print("_phase_one us/step median[q1,q3] "
          + " ".join(f"{key}={quartiles(us)}" for key, us in step_us.items()), file=sys.stderr)


# Calculus ---------------------------------------------------------------


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _herm(g):
    return (g + np.swapaxes(g.conj(), -1, -2)) / 2


def draw(d, m, distinct, nulls, seed):
    """(masses, values, rho, s, mask, h, sets) for one case and seed."""
    rng = np.random.Generator(np.random.PCG64([seed, d, m, distinct, nulls]))
    g = _complex(rng, (m, d, d))
    grams = g @ g.conj().transpose(0, 2, 1) + 0.01 * np.eye(d)
    if nulls:
        grams[rng.permutation(m)[: m // 4]] = 0.0
    w, v = np.linalg.eigh(grams.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    masses = _herm(inv_root @ grams @ inv_root)
    values = _herm(_complex(rng, (m if distinct else 4, d, d)))
    if not distinct:
        values = values[rng.integers(0, 4, m)]
    states = []
    for _ in range(2):
        g = _complex(rng, (d, d))
        rho = g @ g.conj().T + 0.05 * np.eye(d)
        states.append(_herm(rho / np.trace(rho).real))
    mask, h = rng.random(m) < 0.5, rng.uniform(0.01, 0.99, m)
    sets = [rng.random(m) < 0.5 for _ in range(8)]
    return masses, values, *states, mask, h, sets


def attrs(obj, *names) -> list:
    return [getattr(obj, name) for name in names]


def fold(sha, out):
    """Fold an output (array, scalar or a list or tuple of them) into ``sha``."""
    if isinstance(out, (list, tuple)):
        sha.update(f"[{len(out)}]".encode())
        for item in out:
            fold(sha, item)
    elif isinstance(out, np.ndarray):
        sha.update(f"{out.dtype.str}{out.shape}".encode())
        fold_bytes(sha, out)
    else:
        sha.update(repr(out).encode())


def calculus_lines():
    import ovmkit as ok

    digests, count = {}, 0
    for d, m, distinct, nulls in CALCULUS_CASES:
        space = ok.SampleSpace.uniform(m)
        for seed in range(1, CALCULUS_SEEDS + 1):
            masses, values, rho, s, mask, h, sample = draw(d, m, distinct, nulls, seed)
            e, sets = ok.MeasurableSet(tuple(mask)), [ok.MeasurableSet(tuple(x)) for x in sample]
            nu, f = ok.grid_ovm(space, masses), ok.qrv(space, values)
            moved = values + 1e-12 * np.abs(values).max() * _herm(np.ones((d, d)))
            zeroed = values.copy()
            zeroed[mask] *= -0.0
            g, f0 = ok.qrv(space, moved), ok.qrv(space, zeroed)
            calls = {
                "grid_ovm": lambda: attrs(nu, "masses", "norms", "massive", "positive"),
                "qrv": lambda: [attrs(x, "values", "norms", "self_adjoint", "positive")
                                for x in (f, g, f0)],
                "evaluate": lambda: ok.evaluate(nu, e),
                "evaluate_fractional": lambda: ok.evaluate_fractional(nu, ok.FractionalSet(h)),
                "induced_measure": lambda: ok.induced_measure(nu, rho).traces,
                "rn_derivative": lambda: attrs(ok.rn_derivative(nu, rho), "values", "defined"),
                "rn_consistency": lambda: ok.rn_consistency(nu, rho, sets),
                "integrate": lambda: ok.integrate(nu, f),
                "indicator_integrate": lambda: ok.integrate(nu, ok.indicator(space, d, e)),
                "integrand_fs": lambda: ok.integrand_fs(f, s, nu, rho).values,
                "ess_support": lambda: [attrs(ok.ess_support(x, nu), "cell_mask", "atom_mask")
                                        for x in (f, f0)],
                "ess_range": lambda: [ok.ess_range(f, nu), ok.ess_range(f0, nu)],
                "ess_sup": lambda: [ok.ess_sup(f, nu), ok.ess_sup(f0, nu)],
                "ess_equal": lambda: [ok.ess_equal(f, x, nu) for x in (f, g, f0)],
            }
            for name, call in calls.items():
                try:
                    out = call()
                except ok.OvmError as exc:
                    out = error_text(exc)
                fold(digests.setdefault(name, hashlib.sha256()), out)
            count += 1
    for name, sha in digests.items():
        yield f"{name} inputs={count} sha256={sha.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ to use (default: this one)")
    parser.add_argument("--drop", action="append", default=[], metavar="KEY.PATH",
                        help="report key to remove before hashing; repeatable")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.repo / "src"), str(args.repo / "perfbench")]
    for section in (report_lines(args.drop), solver_lines(), calculus_lines()):
        for line in section:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
