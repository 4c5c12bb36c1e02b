"""Reference models and seeded random instances.

Seeds are 64-bit unsigned integers feeding numpy's PCG64 generator; for
a fixed seed the draw sequence is bit-exact across platforms, which is
what makes scenario reports byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from . import opcore
from .errors import InvalidInput
from .ovm import OVM, SampleSpace, atomic_ovm, grid_ovm


def rng_from_seed(seed: int) -> np.random.Generator:
    """The toolkit's pseudo-random generator: PCG64."""
    return np.random.Generator(np.random.PCG64(opcore.as_int(seed, "seed", low=0)))


def lebesgue_identity(m: int, dim: int = 1, a: float = 0.0, b: float = 1.0) -> OVM:
    """nu(E) = |E| * I on [a, b) with m equal cells."""
    space = SampleSpace.uniform(m, a, b)
    eye = np.eye(opcore.as_int(dim, "dimension", low=1), dtype=np.complex128)
    masses = space.weights[:, None, None] * eye
    return grid_ovm(space, masses)


def uhl_model(m: int) -> OVM:
    """Indicator-valued measure at fixed resolution: d = m, indivisible cells.

    Cell k carries the diagonal matrix unit e_kk.  Classical integration
    against it is injective and its range is a non-convex corner set, the two
    features that make it the counterexample to unconditional convexity.
    """
    if opcore.as_int(m, "cell count") < 2:
        raise InvalidInput("need at least two cells")
    space = SampleSpace.uniform(m, divisible=False)
    masses = np.zeros((m, m, m), dtype=np.complex128)
    masses[np.arange(m), np.arange(m), np.arange(m)] = 1.0
    return grid_ovm(space, masses)


def dyadic_state(levels: int) -> opcore.State:
    """diag(1/2, 1/4, ..., 1/2^(N+1), 1/2^(N+1)): the tail deficit of the
    geometric diagonal is parked on the last (measure-null) coordinate,
    so the trace is exactly 1 and every coefficient stays a closed form."""
    levels = opcore.as_int(levels, "levels", low=0)
    diag = [0.5**n for n in range(1, levels + 2)]
    diag.append(0.5 ** (levels + 1))
    return opcore.make_state(np.diag(diag))


def harmonic_diag_model(levels: int) -> tuple[OVM, opcore.State]:
    """Truncation of the diagonal measure diag(mu, mu_1, ..., mu_N, 0) on
    the harmonic cells I_n = [1/(n+1), 1/n].

    Coordinate 0 carries Lebesgue measure restricted to the union of the
    cells, coordinate n the restriction to I_n alone, and the final
    coordinate the zero measure.  Paired with :func:`dyadic_state`, the
    induced density on I_n relative to cell width is (2^n + 1) / 2^(n+1)
    and the operator density has 2^(n+1) / (2^n + 1) in entries (0, 0)
    and (n, n).
    """
    if not 2 <= opcore.as_int(levels, "levels") <= 40:
        raise InvalidInput("levels must lie in [2, 40]")
    d = levels + 2
    # Cells left to right: I_N, ..., I_1 with I_n = [1/(n+1), 1/n].
    bp = tuple(1.0 / n for n in range(levels + 1, 0, -1))
    space = SampleSpace(bp[0], 1.0, bp)
    masses = np.zeros((levels, d, d), dtype=np.complex128)
    for cell, n in enumerate(range(levels, 0, -1)):
        w = space.weights[cell]
        masses[cell, 0, 0] = w
        masses[cell, n, n] = w
    return grid_ovm(space, masses), dyadic_state(levels)


def singular_blocks(n: int, cells_per_block: int = 4) -> list[OVM]:
    """n mutually singular nonatomic probability measures on [0, 1):
    measure i is uniform on block i of the shared grid and zero elsewhere."""
    n = opcore.as_int(n, "measure count", low=1)
    m = n * opcore.as_int(cells_per_block, "cells per block", low=1)
    space = SampleSpace.uniform(m)
    out = []
    for i in range(n):
        masses = np.zeros((m, 1, 1), dtype=np.complex128)
        lo = i * cells_per_block
        masses[lo:lo + cells_per_block, 0, 0] = 1.0 / cells_per_block
        out.append(grid_ovm(space, masses))
    return out


def overlapping_measures(n: int, m: int, rng: np.random.Generator) -> list[OVM]:
    """n scalar nonatomic measures with everywhere-positive random densities
    on one m-cell grid."""
    space = SampleSpace.uniform(m)
    out = []
    for _ in range(opcore.as_int(n, "measure count", low=1)):
        masses = rng.uniform(0.2, 1.0, m) * space.weights
        out.append(grid_ovm(space, masses[:, None, None].astype(np.complex128)))
    return out


def single_atom_measure(mass: float = 1.0, site: float = 0.5) -> OVM:
    """One point atom on [0, 1); the single cell carries no mass."""
    mass = opcore.as_real(mass, "atom mass")
    return atomic_ovm(SampleSpace.uniform(1, atom_sites=(site,)), np.full((1, 1, 1), mass))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def random_povm(dim: int, m: int, rng: np.random.Generator,
                space: SampleSpace | None = None) -> OVM:
    """Random quantum probability measure on an m-cell grid.

    Per-cell Gram matrices are jointly renormalized, S^(-1/2) G_k S^(-1/2),
    so the total mass is the identity up to round-off.
    """
    dim, m = opcore.as_int(dim, "dimension", low=1), opcore.as_int(m, "cell count", low=1)
    if space is None:
        space = SampleSpace.uniform(m)
    if space.n_cells != m:
        raise InvalidInput("cell count does not match the space")
    grams = np.empty((m, dim, dim), dtype=np.complex128)
    for k in range(m):
        x = random_complex(rng, (dim, dim))
        grams[k] = x @ x.conj().T + 0.01 * np.eye(dim)
    total = np.add.reduce(grams, axis=0)
    root = opcore.psd_sqrt(total)
    inv_root = np.linalg.inv(root)
    masses = inv_root @ grams @ inv_root
    return grid_ovm(space, masses)

