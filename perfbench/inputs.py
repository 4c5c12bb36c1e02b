"""Seeded input generation for the benchmark.

Every array a workload feeds to ovmkit comes from this module's own PCG64
stream; nothing here calls ``ovmkit.models``, so a change to the
library's models or to their draw order cannot change a workload.  Each
array handed out is also folded into a SHA-256 digest, so two commits can
be shown to have run identical inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Inputs:
    """A seeded generator that digests everything it produces."""

    def __init__(self, seed: int, stream: str):
        tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
        self.rng = np.random.Generator(np.random.PCG64([int(seed), tag]))
        self._sha = hashlib.sha256()

    def keep(self, arr):
        arr = np.ascontiguousarray(arr)
        self._sha.update(f"{arr.dtype.str}{arr.shape}".encode())
        self._sha.update(arr.tobytes())
        return arr

    def digest(self) -> str:
        return self._sha.hexdigest()

    def _complex(self, shape):
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)

    def hermitian(self, d: int, count: int | None = None) -> np.ndarray:
        """Random Hermitian matrix (or stack), exactly self-adjoint."""
        g = self._complex((d, d) if count is None else (count, d, d))
        return self.keep(_herm(g))

    def masses(self, d: int, m: int, null_share: float = 0.0) -> np.ndarray:
        """PSD cell masses summing to the identity (a POVM on m cells).

        A ``null_share`` of the cells, at least one when positive, carries
        zero mass.  The stack is exactly Hermitian, so ovmkit stores it
        unchanged.
        """
        g = self._complex((m, d, d))
        grams = g @ g.conj().transpose(0, 2, 1) + 0.01 * np.eye(d)
        if null_share > 0.0:
            null = self.rng.permutation(m)[: max(1, int(null_share * m))]
            grams[null] = 0.0
        w, v = np.linalg.eigh(grams.sum(axis=0))
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        return self.keep(_herm(inv_root @ grams @ inv_root))

    def state(self, d: int) -> np.ndarray:
        """Full-rank density matrix."""
        g = self._complex((d, d))
        rho = g @ g.conj().T + 0.05 * np.eye(d)
        return self.keep(_herm(rho / np.trace(rho).real))

    def fractions(self, m: int) -> np.ndarray:
        """h in the open cube (0, 1)^m."""
        return self.keep(self.rng.uniform(0.01, 0.99, m))

    def mask(self, m: int) -> np.ndarray:
        return self.keep(self.rng.random(m) < 0.5)

    def weight(self) -> float:
        return float(self.keep(self.rng.uniform(0.05, 0.95, 1))[0])

    def values(self, d: int, m: int, distinct: bool) -> tuple[np.ndarray, np.ndarray]:
        """Hermitian step values, one per cell, plus each cell's value label.

        ``distinct`` gives every cell its own value; otherwise values come
        from a pool of four.
        """
        if distinct:
            return self.hermitian(d, m), np.arange(m)
        pool = self.hermitian(d, 4)
        label = self.keep(self.rng.integers(0, 4, m))
        return pool[label], label


def _herm(g: np.ndarray) -> np.ndarray:
    return (g + np.swapaxes(g.conj(), -1, -2)) / 2

