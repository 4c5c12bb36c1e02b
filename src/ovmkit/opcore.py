"""Dense complex linear algebra for small Hermitian matrices.

Matrices are numpy ``complex128`` arrays of shape ``(d, d)``; a stack is
an array of shape ``(..., d, d)``.  Each rule is written once, in stack
form, as batched numpy calls: the Hermitian test and symmetrization
(:func:`hermitian_flags`, :func:`hermitian_stack`; one private test with
an exact-equality fast path), the operator norm (:func:`op_norms`), the
PSD verdict (:func:`psd_flags`) and the PSD square root (:func:`psd_roots`).
The square root has one rule, one private eigh that gives a validated
stack's eigenvalues and roots: psd_roots judges the eigenvalues, and an
OVM, judged at build, keeps the roots for its integrals.
These, :func:`as_stack` and :func:`herm_coords` take stacks (a single matrix
is a stack too).  Everything else takes one ``(d, d)`` matrix and rejects any
other shape with InvalidInput; :func:`hermitian`, :func:`is_hermitian`,
:func:`op_norm`, :func:`psd_check`, :func:`psd_sqrt` and :func:`make_state`
apply the stack rules to it.  Hermitian eigendecomposition gives the PSD
check, the PSD square root and the norm of a matrix the Hermitian test
accepts (max |eigenvalue|); any other takes its largest singular value.
No other module decomposes a matrix.  The value classes validate a stack
with one private pass, one Hermitian test and one decomposition of each
matrix (an OVM) or one decomposition of each distinct value (a
QuantumRandomVariable, whose step values often repeat), which gives their
PSD flag and their norms (OVM.norms, QuantumRandomVariable.norms) bit for
bit as op_norms would; the stack's readers take its coordinates by
herm_coords' private map, untested again.

Also provides the real coordinatization of the d^2-dimensional real space
of Hermitian matrices used by the feasibility solver: an orthonormal basis
for the trace inner product, ordered as the d diagonal units followed by
the symmetric/antisymmetric pair for each i < j.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, InvalidInput, NotPositive, SizeLimit
from .jsonkeys import Key, read_keys

# Every tolerance of the library, named once: value, then what it is relative to
# and what it decides.  Other modules import the names they read.  A tolerance
# that judges a matrix or a measure is relative to that object's own norm, with
# no floor, so a verdict on c nu is the verdict on nu.
HERM_TOL = 1e-12  # of ||A||_F: asymmetry ||A - A*||_F absorbed by symmetrizing
TOL_PSD = 1e-9  # of ||A||: eigenvalue below 0 that still counts as PSD
RANK_TOL = 1e-10  # absolute (State.full_rank), of ||M_k|| (rn_exists): strictly positive
UNIT_TOL = 1e-12  # absolute: |tr rho - 1| of a state, ||nu(X) - I|| of a probability
MASS_TOL = 1e-12  # of ||nu(X)||, summed |traces|, ess_sup f: an item or value is null
WIDTH_TOL = 1e-12  # of max(1, b - a), in the space's units: cell widths that sum to b - a
SNAP_TOL = 1e-12  # absolute: a fraction this far past 0 or 1 (or inside) sits on it
SPECTRAL_TOL = 1e-9  # of ||nu(X)||^2: defect of nu(E n F) = nu(E) nu(F)
DEDUP_TOL = 1e-10  # of ess_sup f (the larger of two, ess_equal): two values are equal
NORM_SLACK = 1e-6  # relative: round-off of operator norms in ess_range's window
KERNEL_RCOND = 1e-10  # of the largest singular value: the kernel SVD's rank cut
KERNEL_TOL = 1e-10  # of ||nu(X)||: ||sum c_k M_k|| of a kernel witness
SIGN_TOL = 1e-12  # of the peak entry, 1: first entry that signs a canonical null vector
SIMPLEX_TOL = 1e-12  # of ||nu(X)||: artificial sum attained, least gain, ratio tie width
PIVOT_TOL = 1e-9  # of ||nu(X)||: least basis-column entry a ratio test divides by
DISTINCT_TOL = 1e-12  # of ||nu(X)||: two set values a convexity trial tells apart
CERT_TOL = 1e-6  # of ||nu(X)||: residual at which a convexity trial fails

# Every size limit of the library, named once: the most one call may allocate
# or loop over, checked by within_limit before the call starts.  Each sits far
# above any case the tests, digests and benchmark run.
PROGRAM_ENTRIES = 2**26  # float64 entries of the phase-1 columns one solve holds (512 MiB)
CERT_TRIALS = 10**6  # trials of one convexity certificate
ENUMERATION_ITEMS = 22  # items whose 2^count sets brute_force_range lists
STACK_ENTRIES = 2**25  # complex entries of a (k, d, d) stack made from a bare d (512 MiB)


def within_limit(size: int, limit: int, what: str) -> None:
    """Raise SizeLimit, naming ``what``, its ``size`` and the ``limit``, when
    ``size`` exceeds it.  Callers pass the table entry read at call time."""
    if size > limit:
        raise SizeLimit(f"{what}: {size} exceeds the limit of {limit}")


def within_stack_limit(count: int, dim: int) -> None:
    """Check a (count, dim, dim) complex stack before it is allocated: one
    whose bytes no array can index raises InvalidInput, one of more than
    STACK_ENTRIES entries SizeLimit (:func:`within_limit`)."""
    entries = count * dim * dim
    if 16 * entries > sys.maxsize:  # complex128 bytes past numpy's index range
        raise InvalidInput(f"dimension {dim} too large for a ({count}, dim, dim) stack")
    within_limit(entries, STACK_ENTRIES, "stack entries")


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
    _require_finite(m)
    return m


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")


def as_matrix(a) -> np.ndarray:
    """:func:`as_stack` for one (d, d) matrix."""
    m = as_array(a, np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m)
    return m


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
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InvalidInput(f"{what} out of the float range") from None


def as_reals(values, what: str) -> np.ndarray:
    """``values`` as a float array: a numeric (integer or float) ndarray is
    checked by its dtype alone, any other sequence by each distinct entry
    type once with :func:`as_real`, in order of first appearance, so strings
    and bools raise InvalidInput that names the first bad entry."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            values = tuple(values)
        except TypeError:
            raise InvalidInput(f"{what}s must be a sequence, got {values!r}") from None
        for kind in dict.fromkeys(map(type, values)):
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


def _pow2_scales(m: np.ndarray) -> np.ndarray:
    """Per matrix of a (..., r, c) stack, the power of two 2^k at most its
    largest entry modulus, or 2^-1022 if that is larger: A / 2^k has entries
    below 2, 1 / 2^k is finite, and A / 2^k is the same array for A and for
    A times any power of two (subnormal entries aside)."""
    exponent = np.frexp(np.abs(m).max(axis=(-2, -1), initial=0.0))[1]
    return np.ldexp(1.0, np.maximum(exponent - 1, -1022))


def _hermitian_test(m: np.ndarray):
    """Per matrix of a finite stack: ||A - A*||_F <= HERM_TOL * ||A||_F,
    ||A - A*||_F and (A + A*)/2; an exactly Hermitian stack takes no norm:
    (True, 0.0, m).  The norms are taken of (A - A*) / 2^k and A / 2^k, 2^k
    from :func:`_pow2_scales`, so their squares cannot overflow, and the
    verdict is the unscaled formula's, and that of A times any power of
    two.  The mean is taken as A/2 + A*/2, which cannot overflow either; a
    matrix with every entry below 2^-1021, where halving may round off a
    subnormal's last bit, takes (A + A*)/2 instead, which keeps its exactly
    Hermitian entries."""
    adj = m.swapaxes(-1, -2).conj()
    if (m == adj).all():
        return True, 0.0, m
    scale = _pow2_scales(m)
    asym = np.linalg.norm((m - adj) / scale[..., None, None], axis=(-2, -1))
    size = np.linalg.norm(m / scale[..., None, None], axis=(-2, -1))
    sym = m / 2 + adj / 2
    tiny = scale < 2.0**-1021
    if tiny.any():
        sym[tiny] = (m[tiny] + adj[tiny]) / 2
    return asym <= HERM_TOL * size, asym * scale, sym


def hermitian_stack(a) -> np.ndarray:
    """Validate and symmetrize a (..., d, d) stack.

    Asymmetry ||A - A*||_F up to ``HERM_TOL * ||A||_F`` is absorbed by
    (A + A*)/2; anything larger is rejected as a likely bug rather than
    round-off, naming the first such matrix.  An exactly Hermitian stack
    is returned as given.
    """
    return _symmetrized(as_stack(a))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """:func:`hermitian_stack` of a finite stack, taken as given."""
    ok, asym, sym = _hermitian_test(m)
    if ok is not True and not ok.all():
        raise InvalidInput(f"matrix is not Hermitian (asymmetry {asym[~ok][0]:.3e})")
    return sym


def hermitian_flags(a) -> np.ndarray:
    """Per matrix of a (..., d, d) stack: does :func:`hermitian_stack` accept it?"""
    m = as_stack(a)
    return np.full(m.shape[:-2], _hermitian_test(m)[0])


def op_norms(a) -> np.ndarray:
    """Operator norms of a (..., d, d) stack: max |eigenvalue| of the matrix
    :func:`hermitian_stack` returns where it accepts, else the largest singular value."""
    return _spectrum(as_stack(a))[2]


def _spectrum(m: np.ndarray):
    """One Hermitian test of the finite stack m and one decomposition of
    each matrix: (sym, w, norms).  sym is what :func:`hermitian_stack`
    returns and w its eigenvalues, both None unless the test accepts every
    matrix; norms are as :func:`op_norms` says."""
    ok, _, sym = _hermitian_test(m)
    if ok is True or ok.all():
        return sym, *_eigen_norms(sym)
    norms = np.empty(ok.shape)
    norms[~ok] = _decompose(m[~ok], "svd", compute_uv=False)[:, 0]
    if ok.any():
        norms[ok] = np.abs(_decompose(sym[ok])).max(axis=-1)
    return None, None, norms


def _step_verdicts(m: np.ndarray) -> tuple[bool, bool, np.ndarray]:
    """(self-adjoint, PSD, norms) of the finite C-ordered (k, d, d) stack m
    of a step function's values, from one decomposition of each distinct value.

    A stack of k >= 128 matrices with d >= 2 and two neighbours equal bit
    for bit (-0.0 and 0.0 differ) runs :func:`_spectrum` on its distinct
    values, keyed by their bytes, and scatters the norms back.  Any other
    takes the whole stack: at d = 1, below 128 matrices (an indicator's 0
    and I decompose in under 1 us each) or with no repeat, the sort costs
    about what it saves or more.  Equal matrices give equal LAPACK values,
    and _decompose's rescale is decided over the same set of values, so
    the verdicts and norms are the whole stack's bit for bit."""
    k, d = len(m), m.shape[-1]
    inverse = None
    if d >= 2 and k >= 128:
        bits = m.view(np.int64).reshape(k, -1)
        same = bits[1:, 0] == bits[:-1, 0]  # first entries first: 5.8 -> 1.8 us at (200, 2, 2)
        if same.any() and (bits[1:][same] == bits[:-1][same]).all(axis=1).any():
            # np.unique's first occurrences and inverse, at under half its
            # cost on void keys: a stable sort of the byte keys, then groups.
            keys = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
            order = keys.argsort(kind="stable")
            ranked = bits[order]
            first = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
            inverse = np.empty(k, np.intp)
            inverse[order] = np.cumsum(first) - 1
            m = m[order[first]]
    sym, w, norms = _spectrum(m)
    positive = sym is not None and bool(_psd_ok(w, norms).all())
    return sym is not None, positive, norms if inverse is None else norms[inverse]


def _decompose(m: np.ndarray, routine: str = "eigvalsh", **kwargs):
    """np.linalg's ``routine`` (eigvalsh, eigh, or svd for singular values) of
    the stack m, the values of 2^k A being those of A times 2^k, bit for bit.
    That holds wherever LAPACK does not rescale a matrix, which it does, by
    a factor that is not a power of two, when the largest entry lies outside
    about [2^-458, 2^458].  Values that are 0 or of binary exponent within
    +-400 (a matrix's largest value is within a factor d of its largest
    entry) show that it rescaled none; otherwise each matrix is decomposed
    again over its :func:`_pow2_scales`, which LAPACK never rescales, and
    its values are scaled back."""
    out = getattr(np.linalg, routine)(m, **kwargs)
    if (np.abs(np.frexp(out[0] if isinstance(out, tuple) else out)[1]) < 400).all():
        return out
    scale = _pow2_scales(m)[..., None]
    out = getattr(np.linalg, routine)(m / scale[..., None], **kwargs)
    with np.errstate(over="ignore"):  # values past the float range are inf, as LAPACK's are
        return (out[0] * scale, out[1]) if isinstance(out, tuple) else out * scale


def _kernel_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(singular values, V^T) of the (r, c) matrix m over its :func:`_pow2_scales`,
    left so divided: finite for every finite m, for a cut relative to the largest."""
    return tuple(np.linalg.svd(m / _pow2_scales(m), full_matrices=False)[1:])


def _eigen_norms(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, norms) of a stack that :func:`hermitian_stack` returned,
    from one decomposition: the norms are :func:`op_norms` bit for bit."""
    w = _decompose(sym)
    return w, np.abs(w).max(axis=-1, initial=0.0)


def _psd_ok(w: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Per ascending spectrum w (..., d): min w >= -TOL_PSD * max |w|;
    ``norms`` is max |w| where the caller has it already."""
    if norms is None:
        norms = np.abs(w).max(axis=-1, initial=0.0)
    return (w >= -TOL_PSD * norms[..., None]).all(axis=-1)


def psd_flags(a) -> np.ndarray:
    """Per matrix of a (..., d, d) stack validated by :func:`hermitian_stack`:
    is it PSD within TOL_PSD, min eigenvalue >= -TOL_PSD * ||A||?"""
    return _psd_ok(_decompose(hermitian_stack(a)))


def psd_roots(a) -> np.ndarray:
    """PSD square roots of a (..., d, d) stack validated by
    :func:`hermitian_stack`, from one batched eigendecomposition.

    Eigenvalues within the PSD tolerance below 0 are clamped to 0; a
    genuinely negative spectrum raises NotPositive, naming the first.
    """
    w, roots = _spectral_roots(hermitian_stack(a))
    bad = ~_psd_ok(w)
    if bad.any():
        raise NotPositive(f"matrix has eigenvalue {w[bad][0, 0]:.3e}")
    return roots


def _spectral_roots(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, PSD roots) of a stack that :func:`hermitian_stack`
    returned, from one eigh; eigenvalues below 0 are clamped to 0 in the
    roots, whatever the PSD verdict."""
    w, v = _decompose(sym, "eigh")
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return w, (root + np.conj(np.swapaxes(root, -1, -2))) / 2


def hermitian(a) -> np.ndarray:
    """:func:`hermitian_stack` of one (d, d) matrix."""
    return _symmetrized(as_matrix(a))


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
    """:func:`op_norms` of one (d, d) matrix."""
    return float(_spectrum(as_matrix(a))[2])


def loewner_leq(a, b) -> bool:
    """A <= B in the Loewner order: A and B each pass :func:`hermitian_stack`
    and B - A is PSD within TOL_PSD of max(||A||, ||B||).  The scale is that of
    the operands, not of B - A, whose round-off is theirs."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"dimensions {ma.shape[0]} vs {mb.shape[0]}")
    pair = hermitian_stack(np.stack([ma, mb]))
    scale = np.abs(_decompose(pair)).max(initial=0.0)
    return bool(_psd_ok(_decompose(pair[1] - pair[0]), scale))


def herm_coords(a) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the orthonormal
    trace-inner-product basis (length d^2).

    Order: the d diagonal units, then for each i < j (row-major) the pair
    (e_ij + e_ji)/sqrt(2) and i(e_ij - e_ji)/sqrt(2), so that
    dot(herm_coords(A), herm_coords(B)) == tr(AB).  A (..., d, d) stack
    maps to (..., d^2), validated by :func:`hermitian_stack`.
    """
    return _herm_coords(hermitian_stack(a))


def _herm_coords(m: np.ndarray) -> np.ndarray:
    """:func:`herm_coords` of a stack that :func:`hermitian_stack` returned."""
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
    """Inverse of :func:`herm_coords` for a 1-d real vector
    (:func:`as_reals`); anything else raises InvalidInput."""
    vec = as_reals(v, "Hermitian coordinate")
    if vec.ndim != 1:
        raise InvalidInput(f"expected a coordinate vector, got shape {vec.shape}")
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
    trace 1 within UNIT_TOL."""
    m = hermitian(a)
    w = _decompose(m)
    if not _psd_ok(w):
        raise NotPositive(f"state has eigenvalue {w[0]:.3e}")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > UNIT_TOL:
        raise InvalidInput(f"state trace {tr!r} is not 1")
    return State(matrix=readonly(m, np.complex128), full_rank=bool(w[0] > RANK_TOL))


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
    return matrix_stacks_from_json([obj])[0][0]


_MATRIX_KEYS = dict.fromkeys(("dim", "re", "im"),
                             Key(required="matrix JSON must have keys dim, re, im"))


def matrix_stacks_from_json(*lists) -> list:
    """Each list of :func:`matrix_from_json` forms as one (k, d, d) stack,
    None for an empty list: each item's structure is checked, then one
    :func:`as_reals` and one finiteness test take the list's entries, item
    by item, "re" then "im", row by row.  The first fault raises as
    matrix_from_json on each item in turn, then np.stack on each list,
    would: mixed dims in a list raise ValueError once every list is read."""
    checked = []
    for objs in lists:
        items, dims, rows = list(objs), [], []
        try:
            for obj in items:
                p = read_keys(obj, _MATRIX_KEYS, "matrix JSON")
                d = as_int(p["dim"], "matrix JSON dim", low=1)
                re, im = p["re"], p["im"]
                if not (isinstance(re, list) and isinstance(im, list) and len(re) == len(im) == d
                        and all(isinstance(row, list) and len(row) == d for row in re + im)):
                    raise InvalidInput(f"matrix JSON arrays must be {d}x{d} lists")
                dims.append(d)
                rows += re + im
            values = as_reals([x for row in rows for x in row], "matrix JSON entry")
            _require_finite(values)
        except InvalidInput:
            # Each item before the one whose structure failed, or every
            # item, alone: the first at fault raises.
            for obj in items[: len(dims)] if len(items) > 1 else ():
                matrix_from_json(obj)
            raise
        checked.append((dims, values))
    if any(len(set(dims)) > 1 for dims, _ in checked):
        raise ValueError("all input arrays must have the same shape")
    stacks = []
    for dims, values in checked:
        d = max(dims, default=0)
        stack = np.empty((len(dims), d, d), np.complex128)
        stack.real, stack.imag = values.reshape(len(dims), 2, d, d).swapaxes(0, 1)
        stacks.append(stack if dims else None)  # each part keeps its signed zeros
    return stacks
