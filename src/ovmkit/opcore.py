"""Dense complex linear algebra for small Hermitian matrices.

Matrices are numpy ``complex128`` arrays of shape ``(d, d)``.  Hermitian
eigendecomposition is the single primitive behind the PSD check, the PSD
square root, and the Hermitian operator norm; non-Hermitian operator norms
go through a dedicated singular-value path.

Also provides the real coordinatization of the d^2-dimensional real space
of Hermitian matrices used by the feasibility solver: an orthonormal basis
for the trace inner product, ordered as the d diagonal units followed by
the symmetric/antisymmetric pair for each i < j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, InvalidInput, NotPositive

# Relative PSD slack: accepted when min eigenvalue >= -tol * max(1, ||A||).
TOL_PSD = 1e-9
# Strict-positivity threshold for full-rank flags and derivative existence.
RANK_TOL = 1e-10
# Relative asymmetry below which a matrix is silently symmetrized.
HERM_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    return m


def hermitian_part(a) -> np.ndarray:
    """(A + A*) / 2."""
    m = as_matrix(a)
    return (m + m.conj().T) / 2


def hermitian(a, tol: float = HERM_TOL) -> np.ndarray:
    """Validate and symmetrize a Hermitian matrix.

    Asymmetry up to ``tol * ||A||_F`` is absorbed by (A + A*)/2; anything
    larger is rejected as a likely bug rather than round-off.
    """
    m = as_matrix(a)
    asym = np.linalg.norm(m - m.conj().T)
    if asym == 0.0:
        return m
    if asym > tol * np.linalg.norm(m):
        raise InvalidInput(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    return (m + m.conj().T) / 2


def is_hermitian(a, tol: float = HERM_TOL) -> bool:
    m = as_matrix(a)
    asym = np.linalg.norm(m - m.conj().T)
    return asym <= tol * max(1.0, np.linalg.norm(m))


def psd_check(a, tol: float = TOL_PSD) -> bool:
    """True iff min eigenvalue >= -tol * max(1, ||A||)."""
    if tol < 0:
        raise InvalidInput("tol must be nonnegative")
    w = np.linalg.eigvalsh(hermitian(a))
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    return bool(w.size == 0 or w[0] >= -tol * scale)


def psd_sqrt(a) -> np.ndarray:
    """PSD square root via eigendecomposition.

    Eigenvalues in [-tol, 0) are clamped to 0; a genuinely negative
    spectrum raises NotPositive.
    """
    m = hermitian(a)
    w, v = np.linalg.eigh(m)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    if w[0] < -TOL_PSD * scale:
        raise NotPositive(f"matrix has eigenvalue {w[0]:.3e}")
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def op_norm(a) -> float:
    """Operator (spectral) norm: largest singular value.

    Hermitian inputs take the eigenvalue path, everything else the
    singular-value path.
    """
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    if is_hermitian(m):
        return float(np.abs(np.linalg.eigvalsh(hermitian_part(m))).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def loewner_leq(a, b, tol: float = TOL_PSD) -> bool:
    """A <= B in the Loewner order, i.e. B - A is PSD within tol."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"dimensions {ma.shape[0]} vs {mb.shape[0]}")
    return psd_check(mb - ma, tol)


def herm_coords(a) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the orthonormal
    trace-inner-product basis (length d^2).

    Order: the d diagonal units, then for each i < j (row-major) the pair
    (e_ij + e_ji)/sqrt(2) and i(e_ij - e_ji)/sqrt(2), so that
    dot(herm_coords(A), herm_coords(B)) == tr(AB).  A (..., d, d) stack
    maps to (..., d^2), each matrix validated as :func:`hermitian` does.
    """
    m = np.asarray(a)
    m = hermitian(m) if m.ndim <= 2 else _hermitian_stack(m)
    d = m.shape[-1]
    iu, ju = _upper_pairs(d)
    off = m[..., iu, ju]
    coords = np.empty(m.shape[:-2] + (d * d,))
    coords[..., :d] = np.diagonal(m, axis1=-2, axis2=-1).real
    coords[..., d::2] = np.sqrt(2.0) * off.real
    coords[..., d + 1 :: 2] = np.sqrt(2.0) * off.imag
    return coords


def _hermitian_stack(a, tol: float = HERM_TOL) -> np.ndarray:
    """:func:`hermitian` applied to every matrix of a (..., d, d) stack."""
    m = np.asarray(a, dtype=np.complex128)
    if m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix stack has non-finite entries")
    adj = np.conj(np.swapaxes(m, -1, -2))
    if (m == adj).all():
        return m
    asym = np.linalg.norm(m - adj, axis=(-2, -1))
    if np.any(asym > tol * np.linalg.norm(m, axis=(-2, -1))):
        raise InvalidInput(f"matrix stack is not Hermitian (asymmetry {asym.max():.3e})")
    return (m + adj) / 2


@lru_cache(maxsize=64)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row-major.

    np.triu_indices costs more than the coordinatization of a small
    stack, so the pairs are built once per dimension (read-only).
    """
    iu, ju = np.triu_indices(d, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def coords_to_herm(v) -> np.ndarray:
    """Inverse of :func:`herm_coords`."""
    vec = np.asarray(v, dtype=np.float64)
    d = int(round(np.sqrt(vec.size)))
    if d * d != vec.size:
        raise InvalidInput(f"coordinate vector length {vec.size} is not a square")
    m = np.zeros((d, d), dtype=np.complex128)
    np.fill_diagonal(m, vec[:d])
    iu, ju = _upper_pairs(d)
    off = (vec[d::2] + 1j * vec[d + 1 :: 2]) / np.sqrt(2.0)
    m[iu, ju] = off
    m[ju, iu] = off.conj()
    return m


def trace_pair(rho, a) -> complex:
    """tr(rho A), summed over entry products."""
    r = as_matrix(getattr(rho, "matrix", rho))
    m = as_matrix(a)
    if r.shape != m.shape:
        raise DimMismatch(f"dimensions {r.shape[0]} vs {m.shape[0]}")
    return complex(np.einsum("ij,ji->", r, m))


@dataclass(frozen=True)
class State:
    """Density operator: PSD, unit trace.

    ``full_rank`` records whether the smallest eigenvalue clears RANK_TOL.
    """

    matrix: np.ndarray
    full_rank: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def make_state(a, trace_tol: float = 1e-12) -> State:
    """Validate a matrix as a density operator."""
    m = hermitian(a)
    w = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -TOL_PSD * scale:
        raise NotPositive(f"state has eigenvalue {w[0]:.3e}")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > trace_tol:
        raise InvalidInput(f"state trace {tr!r} is not 1")
    m = m.copy()
    m.setflags(write=False)
    return State(matrix=m, full_rank=bool(w[0] > RANK_TOL))


@dataclass(frozen=True)
class OperatorInterval:
    """Loewner interval [lower, upper]; upper - lower must be PSD."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = hermitian(self.lower)
        hi = hermitian(self.upper)
        if lo.shape != hi.shape:
            raise DimMismatch("interval endpoints have different dimensions")
        if not psd_check(hi - lo, TOL_PSD):
            raise NotPositive("upper - lower is not PSD")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, a, tol: float = TOL_PSD) -> bool:
        return loewner_leq(self.lower, a, tol) and loewner_leq(a, self.upper, tol)


def matrix_to_json(a) -> dict:
    """Encode as {"dim": d, "re": [[...]], "im": [[...]]}."""
    m = as_matrix(a)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"dim", "re", "im"} <= set(obj):
        raise InvalidInput("matrix JSON must have keys dim, re, im")
    d = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    if re.shape != (d, d) or im.shape != (d, d):
        raise InvalidInput(f"matrix JSON arrays must be {d}x{d}")
    return as_matrix(re + 1j * im)
