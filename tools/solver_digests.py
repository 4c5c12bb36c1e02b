"""Print the SHA-256 of the phase-1 solver's outputs on seeded programs, one
line per entry point, so that two commits can be compared with ``diff``.

    python3 tools/solver_digests.py                  # this checkout
    python3 tools/solver_digests.py --repo OTHER     # another checkout

For each (d, m) of the benchmark's ``interior`` grid and each seed from 1
to SEEDS, the measure is ``models.random_povm(d, m,
models.rng_from_seed(seed))``, and the same stream then gives the kinds of
inputs that workload runs: a target sum_k h_k M_k (h uniform in
(0.01, 0.99)), two random sets and a weight in (0.05, 0.95).  Each measure
yields two phase-1 programs: attain's (every cell, scaled by ||nu(X)||)
and convex_combine's (the cells where the sets differ).
The lines hash:

- ``_phase_one`` on every program: h, duals, objective and steps;
- ``_phase_one_stack`` on the programs of each d as one stack, in the
  same order and format, so its line equals ``_phase_one``'s when the
  two engines agree bit for bit;
- ``attain`` and ``convex_combine`` on every measure: intervals, the
  bytes of the value achieved, residual, iterations and fractional count.

An error is hashed by its type and message.  The library is imported from
the ``src/`` of the checkout given by ``--repo``; the tool itself reads
only names that every checkout since the lockstep stack engine has.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

GRID = tuple((d, m) for d in (1, 2, 3, 4) for m in (200, 1000, 2000))
SEEDS = 10  # measures per grid point


def cases(models):
    """(d, measure, target, e1, e2, t) for each grid point and seed."""
    for d, m in GRID:
        for seed in range(1, SEEDS + 1):
            rng = models.rng_from_seed(seed)
            nu = models.random_povm(d, m, rng)
            target = np.tensordot(rng.uniform(0.01, 0.99, m), nu.cell_masses, axes=1)
            e1, e2 = rng.random(m) < 0.5, rng.random(m) < 0.5
            yield d, nu, target, e1, e2, float(rng.uniform(0.05, 0.95))


def programs(opcore, nu, target, e1, e2, t):
    """attain's and convex_combine's phase-1 (coords, goal) pairs, built as
    those functions build them."""
    scale = nu.total_norm or 1.0
    yield nu.cell_coords.T / scale, opcore.herm_coords(opcore.hermitian(target)) / scale
    h = t * e1 + (1.0 - t) * e2
    cells = np.flatnonzero((h > 0.0) & (h < 1.0))
    coords = nu.cell_coords[cells].T / scale
    yield coords, coords @ h[cells]


def solved(sha, lp):
    """Fold one phase-1 result, or the error it raised, into ``sha``."""
    if isinstance(lp, Exception):
        sha.update(f"{type(lp).__name__}: {lp}".encode())
        return
    h, duals, objective, steps = lp
    sha.update(np.ascontiguousarray(h).tobytes())
    sha.update(np.ascontiguousarray(duals).tobytes())
    sha.update(f"{float(objective)!r} {int(steps)}".encode())


def realized(sha, call, error):
    """Fold one AttainResult, or the ``error`` raised for it, into ``sha``."""
    try:
        r = call()
    except error as exc:  # the library's error is part of the output
        sha.update(f"{type(exc).__name__}: {exc}".encode())
        return
    sha.update(repr(r.intervals).encode())
    sha.update(np.ascontiguousarray(r.achieved).tobytes())
    sha.update(f"{r.residual!r} {r.iterations} {r.fractional_count}".encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ to use (default: this one)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.repo / "src")]
    import ovmkit
    from ovmkit import lyapunov, models, opcore

    digests = {name: hashlib.sha256() for name in
               ("_phase_one", "_phase_one_stack", "attain", "convex_combine")}
    stacks, count, steps = {}, 0, 0
    for d, nu, target, e1, e2, t in cases(models):
        for coords, goal in programs(opcore, nu, target, e1, e2, t):
            stacks.setdefault(d, []).append((coords, goal))
            try:
                lp = lyapunov._phase_one(coords, goal)
                steps += lp[3]
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
    for name, sha in digests.items():
        print(f"{name} programs={count} steps={steps} sha256={sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
