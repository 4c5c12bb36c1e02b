"""Seeded random inputs that only the tests draw: Hermitian matrices,
full-rank states and step-function values."""

import numpy as np

from ovmkit import opcore
from ovmkit.models import random_complex


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    x = random_complex(rng, (dim, dim))
    return scale * (x + x.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> opcore.State:
    """Full-rank random density operator (Gram plus a ridge)."""
    x = random_complex(rng, (dim, dim))
    rho = x @ x.conj().T + 0.1 * np.eye(dim)
    return opcore.make_state(rho / rho.trace().real)


def random_qrv_values(dim: int, count: int, rng: np.random.Generator,
                      positive: bool = False, scale: float = 1.0) -> np.ndarray:
    """Stack of random Hermitian (optionally PSD) step values."""
    out = np.empty((count, dim, dim), dtype=np.complex128)
    for k in range(count):
        x = random_complex(rng, (dim, dim))
        out[k] = scale * (x @ x.conj().T if positive else (x + x.conj().T) / 2)
    return out
