"""Print the SHA-256 of the calculus functions' outputs on seeded inputs, one
line per public function, so that two commits can be compared with ``diff``.

    python3 tools/calculus_digests.py                  # this checkout
    python3 tools/calculus_digests.py --repo OTHER     # another checkout

For each (d, m, distinct, nulls) case of the benchmark's ``calculus`` grid
and each seed from 1 to SEEDS, this tool draws, from its own PCG64 stream
(no library code), the inputs that workload runs:

- PSD cell masses summing to the identity, a quarter of them zero when
  ``nulls`` is set;
- Hermitian step values, one per cell when ``distinct`` is set, otherwise
  drawn from a pool of four;
- two full-rank states rho and s, a set E, fractions h and 8 sets.

Besides f it builds g, f with every value moved by 1e-12 of its norm, and
f0, f with the values on E turned into signed zeros.  The lines hash:

- ``grid_ovm``: masses, norms, massive and the positive flag;
- ``qrv``: values, norms and the self-adjoint and positive flags;
- ``evaluate`` nu(E), ``evaluate_fractional`` of h, ``induced_measure``
  (traces), ``rn_derivative`` (values and defined), ``rn_consistency``
  on the 8 sets, ``integrate`` of f, ``indicator`` of E then
  ``integrate``, and ``integrand_fs`` of f, s and rho;
- ``ess_support``, ``ess_range`` and ``ess_sup`` of f and of f0, and
  ``ess_equal`` of (f, f), (f, g) and (f, f0).

Arrays are hashed by shape and bytes, scalars by repr, and an error by its
type and message.  The library is imported from the ``src/`` of the
checkout given by ``--repo``.
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

# The benchmark's calculus grid: (d, m, every value distinct, with null cells).
CASES = (
    (1, 200, True, False),
    (2, 200, True, False),
    (3, 150, True, True),
    (4, 64, True, True),
    (1, 1000, False, True),
    (2, 1000, False, False),
    (3, 500, False, True),
    (4, 1000, False, False),
)
SEEDS = 10  # input draws per case
NAMES = ("grid_ovm", "qrv", "evaluate", "evaluate_fractional", "induced_measure",
         "rn_derivative", "rn_consistency", "integrate", "indicator_integrate",
         "integrand_fs", "ess_support", "ess_range", "ess_sup", "ess_equal")


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
        sha.update(np.ascontiguousarray(out).tobytes())
    else:
        sha.update(repr(out).encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ to use (default: this one)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.repo / "src")]
    import ovmkit as ok

    digests = {name: hashlib.sha256() for name in NAMES}
    count = 0
    for d, m, distinct, nulls in CASES:
        space = ok.SampleSpace.uniform(m)
        for seed in range(1, SEEDS + 1):
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
                except ok.OvmError as exc:  # the library's error is part of the output
                    out = f"{type(exc).__name__}: {exc}"
                fold(digests[name], out)
            count += 1
    for name, sha in digests.items():
        print(f"{name} inputs={count} sha256={sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
