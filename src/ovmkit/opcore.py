"""Dense complex linear algebra for small Hermitian matrices.

Matrices are numpy ``complex128`` arrays of shape ``(d, d)``; a stack is
an array of shape ``(..., d, d)``.  Each rule is written once, in stack
form, as batched numpy calls: the Hermitian test and symmetrization
(:func:`hermitian_flags`, :func:`hermitian_stack`), the PSD verdict
(:func:`psd_flags`) and the PSD square root (:func:`psd_roots`).  These,
:func:`as_stack` and :func:`herm_coords` take stacks (a single matrix is
a stack too).  Everything else takes one ``(d, d)`` matrix and rejects
any other shape with InvalidInput; :func:`hermitian`,
:func:`is_hermitian`, :func:`psd_check`, :func:`psd_sqrt` and
:func:`make_state` apply the stack rules to it.  Hermitian
eigendecomposition is the single primitive behind the PSD check, the PSD
square root, and the Hermitian operator norm; non-Hermitian operator
norms go through a dedicated singular-value path.

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

# Relative PSD slack: accepted when min eigenvalue >= -TOL_PSD * max(1, ||A||).
TOL_PSD = 1e-9
# Strict-positivity threshold for full-rank flags and derivative existence.
RANK_TOL = 1e-10
# Asymmetry ||A - A*||_F, relative to max(1, ||A||_F), below which a
# matrix is silently symmetrized.
HERM_TOL = 1e-12


def as_array(a, dtype) -> np.ndarray:
    """``a`` as a ``dtype`` array, ``a`` itself when it already is one.
    Non-numeric (strings too: never parsed), ragged or out-of-range input
    raises InvalidInput, not numpy's ValueError, TypeError or OverflowError."""
    try:
        raw = np.asarray(a)
        if raw.dtype.kind in "USO" and any(isinstance(x, (str, bytes)) for x in raw.flat):
            raise InvalidInput("expected a numeric array, not strings")
        return np.asarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"expected a numeric array: {exc}") from None


def as_stack(a) -> np.ndarray:
    """Coerce to a (..., d, d) stack of complex matrices with finite entries."""
    m = as_array(a, np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """:func:`as_stack` for one (d, d) matrix."""
    m = as_array(a, np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    return as_stack(m)


def as_int(value, what: str, low: int | None = None) -> int:
    """``value`` as an int, checked rather than coerced: Python and numpy
    integers from ``low`` up pass; anything else, bools and integral floats
    included, raises InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidInput(f"{what} must be at least {low}, got {value}")
    return int(value)


def as_real(value, what: str) -> float:
    """``value`` as a float, checked rather than coerced: Python and numpy
    integers and floats pass; anything else, bools included, raises InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"{what} must be a real number, got {value!r}")
    return float(value)


def as_reals(values, what: str) -> np.ndarray:
    """``values`` as a float array: a numeric (integer or float) ndarray is
    checked by its dtype alone, any other sequence by each distinct entry
    type once with :func:`as_real`, so strings and bools raise InvalidInput."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            values = tuple(values)
        except TypeError:
            raise InvalidInput(f"{what}s must be a sequence, got {values!r}") from None
        for kind in set(map(type, values)):
            as_real(next(x for x in values if type(x) is kind), what)
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise InvalidInput(f"{what} out of the float range") from None


def readonly(a, dtype) -> np.ndarray:
    """A non-writeable copy of ``a`` as a ``dtype`` array (:func:`as_array`)."""
    out = as_array(a, dtype).copy()
    out.setflags(write=False)
    return out


def _asymmetry(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a finite stack: ||A - A*||_F <= HERM_TOL * max(1, ||A||_F),
    and ||A - A*||_F.  The norms are taken of (A - A*) / 2^k and A / 2^k,
    2^k at most the largest entry modulus, so their squares cannot
    overflow; the scale is a power of two, so the verdict is the unscaled
    formula's."""
    diff = m - np.conj(np.swapaxes(m, -1, -2))
    scale = np.ldexp(1.0, np.frexp(np.abs(m).max(axis=(-2, -1), initial=0.0))[1] - 1)
    asym = np.linalg.norm(diff / scale[..., None, None], axis=(-2, -1))
    size = np.linalg.norm(m / scale[..., None, None], axis=(-2, -1))
    return asym <= HERM_TOL * np.maximum(1.0 / scale, size), asym * scale


def hermitian_stack(a) -> np.ndarray:
    """Validate and symmetrize a (..., d, d) stack.

    Asymmetry ||A - A*||_F up to ``HERM_TOL * max(1, ||A||_F)`` is absorbed by
    (A + A*)/2; anything larger is rejected as a likely bug rather than
    round-off, naming the first such matrix.  An exactly Hermitian stack
    is returned as given.
    """
    m = as_stack(a)
    adj = np.conj(np.swapaxes(m, -1, -2))
    if (m == adj).all():
        return m
    ok, asym = _asymmetry(m)
    if not ok.all():
        raise InvalidInput(f"matrix is not Hermitian (asymmetry {asym[~ok][0]:.3e})")
    return (m + adj) / 2


def hermitian_flags(a) -> np.ndarray:
    """Per matrix of a (..., d, d) stack: does :func:`hermitian_stack` accept it?"""
    return _asymmetry(as_stack(a))[0]


def _psd_ok(w: np.ndarray) -> np.ndarray:
    """Per ascending spectrum w (..., d): min w >= -TOL_PSD * max(1, max |w|)."""
    scale = np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))
    return (w >= -TOL_PSD * scale[..., None]).all(axis=-1)


def psd_flags(a) -> np.ndarray:
    """Per matrix of a (..., d, d) stack validated by :func:`hermitian_stack`:
    is it PSD within TOL_PSD, min eigenvalue >= -TOL_PSD * max(1, ||A||)?"""
    return _psd_ok(np.linalg.eigvalsh(hermitian_stack(a)))


def psd_roots(a) -> np.ndarray:
    """PSD square roots of a (..., d, d) stack validated by
    :func:`hermitian_stack`, from one batched eigendecomposition.

    Eigenvalues within the PSD tolerance below 0 are clamped to 0; a
    genuinely negative spectrum raises NotPositive, naming the first.
    """
    w, v = np.linalg.eigh(hermitian_stack(a))
    bad = ~_psd_ok(w)
    if bad.any():
        raise NotPositive(f"matrix has eigenvalue {w[bad][0, 0]:.3e}")
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return (root + np.conj(np.swapaxes(root, -1, -2))) / 2


def hermitian(a) -> np.ndarray:
    """:func:`hermitian_stack` of one (d, d) matrix."""
    return hermitian_stack(as_matrix(a))


def is_hermitian(a) -> bool:
    """:func:`hermitian_flags` of one (d, d) matrix."""
    return bool(hermitian_flags(as_matrix(a)))


def psd_check(a) -> bool:
    """:func:`psd_flags` of one (d, d) matrix."""
    return bool(psd_flags(as_matrix(a)))


def psd_sqrt(a) -> np.ndarray:
    """:func:`psd_roots` of one (d, d) matrix."""
    return psd_roots(as_matrix(a))


def op_norm(a) -> float:
    """Operator (spectral) norm: largest singular value.

    Inputs :func:`hermitian_stack` accepts take the eigenvalue path on the
    matrix it returns, everything else the singular-value path.
    """
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    adj = m.conj().T
    if not (m == adj).all():
        if not _asymmetry(m)[0]:
            return float(np.linalg.svd(m, compute_uv=False)[0])
        m = (m + adj) / 2
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def loewner_leq(a, b) -> bool:
    """A <= B in the Loewner order, i.e. B - A is PSD within TOL_PSD."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"dimensions {ma.shape[0]} vs {mb.shape[0]}")
    return psd_check(mb - ma)


def herm_coords(a) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the orthonormal
    trace-inner-product basis (length d^2).

    Order: the d diagonal units, then for each i < j (row-major) the pair
    (e_ij + e_ji)/sqrt(2) and i(e_ij - e_ji)/sqrt(2), so that
    dot(herm_coords(A), herm_coords(B)) == tr(AB).  A (..., d, d) stack
    maps to (..., d^2), validated by :func:`hermitian_stack`.
    """
    m = hermitian_stack(a)
    d = m.shape[-1]
    iu, ju = _upper_pairs(d)
    off = m[..., iu, ju]
    coords = np.empty(m.shape[:-2] + (d * d,))
    coords[..., :d] = np.diagonal(m, axis1=-2, axis2=-1).real
    coords[..., d::2] = np.sqrt(2.0) * off.real
    coords[..., d + 1 :: 2] = np.sqrt(2.0) * off.imag
    return coords


@lru_cache(maxsize=64)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row-major.

    np.triu_indices costs more than the coordinatization of a small
    stack, so the pairs are built once per dimension (read-only).
    """
    return tuple(readonly(x, np.intp) for x in np.triu_indices(d, k=1))


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


def make_state(a) -> State:
    """Validate a matrix as a density operator: PSD within TOL_PSD and of
    trace 1 within 1e-12."""
    m = hermitian(a)
    w = np.linalg.eigvalsh(m)
    if not _psd_ok(w):
        raise NotPositive(f"state has eigenvalue {w[0]:.3e}")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > 1e-12:
        raise InvalidInput(f"state trace {tr!r} is not 1")
    return State(matrix=readonly(m, np.complex128), full_rank=bool(w[0] > RANK_TOL))


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
        if not psd_check(hi - lo):
            raise NotPositive("upper - lower is not PSD")
        object.__setattr__(self, "lower", readonly(lo, np.complex128))
        object.__setattr__(self, "upper", readonly(hi, np.complex128))

    def contains(self, a) -> bool:
        return loewner_leq(self.lower, a) and loewner_leq(a, self.upper)


def matrix_to_json(a) -> dict:
    """Encode as {"dim": d, "re": [[...]], "im": [[...]]}."""
    m = as_matrix(a)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    """Decode :func:`matrix_to_json`'s form: "re" and "im" are d x d lists
    of real numbers (:func:`as_reals`: strings and bools raise InvalidInput)."""
    if not isinstance(obj, dict) or not {"dim", "re", "im"} <= set(obj):
        raise InvalidInput("matrix JSON must have keys dim, re, im")
    d = as_int(obj["dim"], "matrix JSON dim", low=1)
    rows = [row for part in (obj["re"], obj["im"]) if isinstance(part, list) and len(part) == d
            for row in part]
    if len(rows) != 2 * d or not all(isinstance(row, list) and len(row) == d for row in rows):
        raise InvalidInput(f"matrix JSON arrays must be {d}x{d} lists")
    re, im = as_reals([x for row in rows for x in row], "matrix JSON entry").reshape(2, d, d)
    return as_matrix(re + 1j * im)
