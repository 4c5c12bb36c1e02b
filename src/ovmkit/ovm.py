"""Operator-valued measures at finite resolution.

A sample space is a real interval [a, b) split into m contiguous cells plus
n atom sites: m + n items, cells first.  A measure, step function or
induced measure holds one (m + n, ...) stack over them and a set holds
read-only cell and atom vectors, so a set is one m + n selector
(SampleSpace.selector) and each operation is one pass.

A grid-density measure gives each cell a Hermitian mass matrix, with the
density constant on the cell, so a sub-interval of fraction t carries
exactly t times the cell mass.  That makes nonatomicity, and the Lyapunov
construction downstream, exact at finite resolution.  Cells may be flagged
indivisible, which models atoms that happen to be intervals; point atoms
are never divisible.  An item is null when its mass norm is at most
MASS_TOL * ||nu(X)|| (OVM.massive), so c * nu has the null items of nu for
every c > 0; every null test (atoms, the solver, essential range and
support, derivatives, absolute continuity) reads that one rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import opcore
from .errors import (
    DimMismatch,
    InvalidInput,
    ShapeMismatch,
    SpaceMismatch,
)
from .jsonkeys import Key, Type, read_keys, tag
from .opcore import MASS_TOL, SNAP_TOL, SPECTRAL_TOL, UNIT_TOL, WIDTH_TOL


def _index(k, count: int, what: str) -> int:
    """``k`` (opcore.as_int) as an index into ``count`` items, else InvalidInput."""
    if not 0 <= opcore.as_int(k, what) < count:
        raise InvalidInput(f"{what} {k} out of range")
    return int(k)


def _flags(values, what: str) -> np.ndarray:
    """``values`` as a read-only 1-d bool vector, checked rather than
    coerced: numpy infers bool only when every entry is a Python or numpy
    bool, so any other entry raises InvalidInput.  Empty input passes."""
    try:
        out = np.array(values)
    except ValueError:  # ragged
        raise InvalidInput(f"{what} must be a sequence of bools, got {values!r}") from None
    if out.ndim != 1 or (out.dtype != bool and out.size):
        raise InvalidInput(f"{what} must be a 1-d sequence of bools, got {values!r}")
    out = out.astype(bool, copy=False)
    out.setflags(write=False)
    return out


def item_views(stack: str) -> tuple[property, property]:
    """Properties giving the cells part and the atoms part of the m + n item
    stack held in attribute ``stack``, as read-only views of it."""
    return (property(lambda self: getattr(self, stack)[: self.space.n_cells]),
            property(lambda self: getattr(self, stack)[self.space.n_cells :]))


@dataclass(frozen=True)
class SampleSpace:
    """Interval [a, b) with ordered cells and optional point atoms."""

    a: float
    b: float
    breakpoints: tuple[float, ...]
    atom_sites: tuple[float, ...] = ()
    divisible: tuple[bool, ...] = ()

    def __post_init__(self):
        bp, sites = tuple(self.breakpoints), tuple(self.atom_sites)
        reals = opcore.as_reals((self.a, self.b) + bp + sites, "sample space coordinate")
        if not np.isfinite(reals).all():
            raise InvalidInput("sample space coordinates must be finite")
        a, b = reals[:2].tolist()
        bp, sites = tuple(reals[2 : 2 + len(bp)].tolist()), tuple(reals[2 + len(bp) :].tolist())
        if not a < b:
            raise InvalidInput("need a < b")
        if len(bp) < 2 or bp[0] != a or bp[-1] != b:
            raise InvalidInput("breakpoints must run from a to b")
        if any(x >= y for x, y in zip(bp, bp[1:])):
            raise InvalidInput("breakpoints must be strictly increasing")
        widths = [y - x for x, y in zip(bp, bp[1:])]
        # b - a is in the sample space's units, not a measure's scale: floored at 1.
        if abs(sum(widths) - (b - a)) > WIDTH_TOL * max(1.0, b - a):
            raise InvalidInput("cell widths do not sum to b - a")
        if len(set(sites)) != len(sites):
            raise InvalidInput("atom sites must be pairwise distinct")
        if any(not (a <= s <= b) for s in sites):
            raise InvalidInput("atom sites must lie in [a, b]")
        div = tuple(_flags(self.divisible, "divisible flags").tolist())
        if not div:
            div = (True,) * (len(bp) - 1)
        if len(div) != len(bp) - 1:
            raise InvalidInput("divisible flags must match the cell count")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "atom_sites", sites)
        object.__setattr__(self, "divisible", div)

    @classmethod
    def uniform(cls, m: int, a: float = 0.0, b: float = 1.0,
                atom_sites=(), divisible: bool = True) -> "SampleSpace":
        """m equal cells on [a, b)."""
        m = opcore.as_int(m, "cell count", low=1)
        a, b = opcore.as_real(a, "interval start"), opcore.as_real(b, "interval end")
        bp = tuple(a + (b - a) * k / m for k in range(m + 1))
        return cls(a, b, bp, tuple(atom_sites), (divisible,) * m)

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def n_atoms(self) -> int:
        return len(self.atom_sites)

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.diff(self._edges)
        w.setflags(write=False)
        return w

    @cached_property
    def _edges(self) -> np.ndarray:
        """The breakpoints as a read-only array."""
        return opcore.readonly(self.breakpoints, np.float64)

    @cached_property
    def _indivisible(self) -> np.ndarray:
        """Per cell: is it indivisible?  Read-only."""
        return opcore.readonly(np.logical_not(self.divisible), bool)

    def item_stack(self, values, dtype, what: str, matrices: bool = False) -> np.ndarray:
        """``values`` as a read-only ``dtype`` copy with one entry per item,
        cells first: shape (m + n,), or (m + n, d, d) with ``matrices``.
        Any other shape raises ShapeMismatch, and d = 0 InvalidInput."""
        out = opcore.readonly(values, dtype)
        count = self.n_cells + self.n_atoms
        want = (count, *out.shape[-1:] * 2) if matrices else (count,)
        if out.shape != want:
            raise ShapeMismatch(f"{what} must have shape {want} for {self.n_cells} cells "
                                f"and {self.n_atoms} atoms, got {out.shape}")
        if matrices and not out.shape[-1]:
            raise InvalidInput(f"{what} must be matrices of dimension at least 1")
        return out

    def selector(self, e: "MeasurableSet | FractionalSet") -> np.ndarray:
        """The m + n selector of a set: cell mask or fractions, then atom
        mask; InvalidInput for a non-set, ShapeMismatch for another layout."""
        if not isinstance(e, (MeasurableSet, FractionalSet)):
            raise InvalidInput(f"expected a MeasurableSet or FractionalSet, got {e!r}")
        cells = e.cell_fractions if isinstance(e, FractionalSet) else e.cell_mask
        if len(cells) != self.n_cells or len(e.atom_mask) != self.n_atoms:
            raise ShapeMismatch("set does not match the sample space")
        return np.concatenate((cells, e.atom_mask))

    def mask(self, e: "MeasurableSet") -> np.ndarray:
        """The m + n bool selector of a MeasurableSet; InvalidInput for a
        FractionalSet or a non-set, ShapeMismatch for another layout."""
        if isinstance(e, FractionalSet):
            raise InvalidInput("expected a MeasurableSet, got a FractionalSet")
        return self.selector(e)


def _same_vectors(self, other) -> bool:
    """Sets are equal when they are of one type and hold equal vectors."""
    return type(other) is type(self) and all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class MeasurableSet:
    """Selection of whole cells and atoms (the indicator chi_E) as read-only
    bool vectors.  Sets compare by value and are unhashable."""

    cell_mask: np.ndarray
    atom_mask: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "cell_mask", _flags(self.cell_mask, "cell mask"))
        object.__setattr__(self, "atom_mask", _flags(self.atom_mask, "atom mask"))

    __eq__ = _same_vectors

    @classmethod
    def empty(cls, space: SampleSpace) -> "MeasurableSet":
        return cls(np.zeros(space.n_cells, bool), np.zeros(space.n_atoms, bool))

    @classmethod
    def full(cls, space: SampleSpace) -> "MeasurableSet":
        return cls(np.ones(space.n_cells, bool), np.ones(space.n_atoms, bool))

    @classmethod
    def from_indices(cls, space: SampleSpace, cells=(), atoms=()) -> "MeasurableSet":
        cm, am = np.zeros(space.n_cells, bool), np.zeros(space.n_atoms, bool)
        for k in cells:
            cm[_index(k, space.n_cells, "cell index")] = True
        for k in atoms:
            am[_index(k, space.n_atoms, "atom index")] = True
        return cls(cm, am)

    def _combine(self, other: "MeasurableSet", op) -> "MeasurableSet":
        """``op`` of the masks of two sets on one layout."""
        if (len(self.cell_mask) != len(other.cell_mask)
                or len(self.atom_mask) != len(other.atom_mask)):
            raise ShapeMismatch("sets have masks of different lengths")
        return MeasurableSet(op(self.cell_mask, other.cell_mask),
                             op(self.atom_mask, other.atom_mask))

    def intersection(self, other: "MeasurableSet") -> "MeasurableSet":
        return self._combine(other, np.logical_and)

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        return self._combine(other, np.logical_or)


@dataclass(frozen=True, eq=False)
class FractionalSet:
    """[0, 1]-relaxation of a measurable set: read-only cell fractions
    (floats) and atom mask (bools; atoms are indivisible).

    Fractions are real numbers (opcore.as_reals); outside [0, 1] by at most
    SNAP_TOL they are clamped, and NaN and infinite ones rejected.
    """

    cell_fractions: np.ndarray
    atom_mask: np.ndarray = ()

    def __post_init__(self):
        fr = opcore.as_reals(self.cell_fractions, "cell fraction")
        if fr.ndim != 1:
            raise InvalidInput(f"cell fractions must be 1-d, got shape {fr.shape}")
        outside = ~((fr >= -SNAP_TOL) & (fr <= 1.0 + SNAP_TOL))  # NaN included
        if outside.any():
            raise InvalidInput(f"cell fraction {float(fr[outside][0])!r} outside [0, 1]")
        clamped = np.where(fr > 0.0, np.minimum(fr, 1.0), 0.0)  # -0.0 becomes 0.0
        clamped.setflags(write=False)
        object.__setattr__(self, "cell_fractions", clamped)
        object.__setattr__(self, "atom_mask", _flags(self.atom_mask, "atom mask"))

    __eq__ = _same_vectors


@dataclass(frozen=True, eq=False)
class InducedMeasure:
    """Scalar measure E -> tr(rho nu(E)): the read-only m + n item traces
    ``traces``, with ``cells`` and ``atoms`` views of it.  ``massive`` is
    OVM.massive's rule with |trace| and the summed |traces|."""

    space: SampleSpace
    traces: np.ndarray

    def __post_init__(self):
        traces = self.space.item_stack(self.traces, np.float64, "traces")
        object.__setattr__(self, "traces", traces)

    cells, atoms = item_views("traces")

    @property
    def total(self) -> float:
        return float(self.traces.sum())

    def of(self, e: MeasurableSet) -> float:
        return float(self.traces[self.space.mask(e)].sum())

    @cached_property
    def massive(self) -> np.ndarray:
        """Per item: is |trace| above MASS_TOL times the summed |traces|?"""
        size = np.abs(self.traces)
        return opcore.readonly(size > MASS_TOL * size.sum(), bool)


class EntryMeasure(NamedTuple):
    """Per-cell and per-atom masses of one matrix entry of an OVM."""

    cells: np.ndarray
    atoms: np.ndarray


@dataclass(frozen=True, eq=False)
class OVM:
    """Operator-valued measure at finite resolution.

    ``masses`` is one (m + n, d, d) stack, validated once and kept
    read-only: nu of cell k (density M_k / w_k on it) for k < m, then nu of
    each atom.  ``dim``, ``positive`` and ``norms`` are derived from it, and
    ``cell_masses`` and ``atom_masses`` are views of it.  ``norms``, the
    read-only operator norms of the m + n masses (max |eigenvalue|),
    comes from the eigenvalues that the validation computes for
    ``positive``: opcore.op_norms of the masses bit for bit, without a
    second decomposition.  ``coords`` and ``massive`` are cached over all
    m + n items on first use, and so are the masses' PSD roots, on the
    first integral.  A direct sum, and only a direct sum, keeps its
    components: OVMs over its space whose block join is its masses, bit for
    bit; masses None stand for that join, built here once.
    """

    space: SampleSpace
    masses: np.ndarray = field(repr=False)
    variant: str
    components: tuple["OVM", ...] = ()
    dim: int = field(init=False)
    positive: bool = field(init=False)
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.variant not in ("grid", "atomic", "mixed", "direct_sum"):
            raise InvalidInput(f"unknown variant {self.variant!r}")
        components = tuple(_as_list(self.components, "direct sum components", "OVMs"))
        if bool(components) != (self.variant == "direct_sum"):
            raise InvalidInput("a direct_sum OVM needs components, and no other variant takes any")
        if not all(isinstance(o, OVM) for o in components):
            raise InvalidInput("direct sum components must be OVMs")
        if any(o.space != self.space for o in components):
            raise SpaceMismatch("direct sum components must share one sample space")
        join = _block_join(components) if components else None
        masses = self.space.item_stack(join if self.masses is None else self.masses,
                                       np.complex128, "masses", matrices=True)
        sym = opcore.hermitian_stack(masses)  # new if symmetrized
        if join is not None and self.masses is not None and join.tobytes() != sym.tobytes():
            raise InvalidInput("direct_sum masses must be the block join of its components")
        w, norms = opcore._eigen_norms(sym)
        sym.setflags(write=False)
        norms.setflags(write=False)
        object.__setattr__(self, "masses", sym)
        object.__setattr__(self, "dim", sym.shape[-1])
        object.__setattr__(self, "positive", bool(opcore._psd_ok(w, norms).all()))
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "components", components)

    cell_masses, atom_masses = item_views("masses")

    def total_mass(self) -> np.ndarray:
        """nu(X)."""
        return sum_items(self.masses)

    @cached_property
    def coords(self) -> np.ndarray:
        """herm_coords of the masses, shape (m + n, d^2), read-only: row k
        is item k's mass in the orthonormal trace-inner-product basis."""
        coords = opcore._herm_coords(self.masses)
        coords.setflags(write=False)
        return coords

    @cached_property
    def cell_coords(self) -> np.ndarray:
        """The first m rows of ``coords``: the cell masses."""
        return self.coords[: self.space.n_cells]

    @cached_property
    def total_norm(self) -> float:
        """||nu(X)||, the operator norm of the total mass."""
        return opcore.op_norm(self.total_mass())

    @cached_property
    def massive(self) -> np.ndarray:
        """Per item: is its mass norm above MASS_TOL * ||nu(X)||?  The rest
        are null: they change no value of the measure beyond round-off."""
        return opcore.readonly(self.norms > MASS_TOL * self.total_norm, bool)

    @cached_property
    def _roots(self) -> np.ndarray:
        """PSD roots M_k^(1/2) of the m + n masses, read-only, from the one
        eigh that opcore.psd_roots of the masses takes; the integrals read
        them and the PSD verdict ``positive``, judged at build."""
        roots = opcore._spectral_roots(self.masses)[1]
        roots.setflags(write=False)
        return roots


def _zero_masses(count: int, dim: int) -> np.ndarray:
    """The (count, dim, dim) zero stack, sized first (opcore.within_stack_limit)."""
    opcore.within_stack_limit(count, dim)
    return np.zeros((count, dim, dim), dtype=np.complex128)


def join_items(space: SampleSpace, cells, atoms, dim: int | None = None) -> np.ndarray:
    """The m + n stack of the cell and atom matrices, cells first, for the
    factories that take them apart; None stands for zeros.  The dimension
    is ``dim``, else that of the first half given; a half of any shape but
    (its item count, dim, dim) raises ShapeMismatch, and no dimension at all
    (both halves None) InvalidInput."""
    _check_space(space)
    if cells is None and atoms is None and dim is None:
        raise InvalidInput("need cell or atom matrices to give the dimension")
    halves = [(None if x is None else opcore.as_array(x, np.complex128), count)
              for x, count in ((cells, space.n_cells), (atoms, space.n_atoms))]
    for x, count in halves:
        if x is None:
            continue
        dim = x.shape[-1] if dim is None and x.ndim == 3 else dim
        if x.shape != (count, dim, dim):
            raise ShapeMismatch(f"matrices must have shape {(count, dim, dim)} for "
                                f"{space.n_cells} cells and {space.n_atoms} atoms, "
                                f"got {x.shape}")
    return np.concatenate([_zero_masses(count, dim) if x is None else x for x, count in halves])


def grid_ovm(space: SampleSpace, cell_masses, atom_masses=None) -> OVM:
    """Grid-density OVM; pass atom masses as well for the mixed variant."""
    masses = join_items(space, cell_masses, atom_masses)
    return OVM(space, masses, "grid" if atom_masses is None else "mixed")


def atomic_ovm(space: SampleSpace, atom_masses) -> OVM:
    return OVM(space, join_items(space, None, atom_masses), "atomic")


def sum_items(stack: np.ndarray) -> np.ndarray:
    """The sum of a (k, d, d) stack, added in item order into zeros: one
    sequential np.add.accumulate pass (np.sum and np.add.reduce add
    pairwise), so each entry sees the same float additions however the
    matrices sit in blocks, which keeps direct sums and entrywise
    reconstructions exact."""
    out = np.zeros(stack.shape[1:], dtype=np.complex128)
    if len(stack):
        out += np.add.accumulate(stack, axis=0)[-1]
    return out


# Complex entries that a stacked product or masked sum of _set_values
# holds at once; it bounds those temporaries whatever the item count (a
# row summed by sum_items holds its own items, as evaluate does).
_CHUNK_ENTRIES = 1 << 14
# Item count from which _set_values sums each 0/1 row with sum_items, one
# call per row, instead of one masked sum over every item of a block of
# rows: the masked sum pays per item, selected or not, and a row of this
# many items pays more there than its own call costs.
_GATHER_ITEMS = 256


def _as_list(items, what: str, of: str = "MeasurableSets") -> list:
    """``items`` as a list; InvalidInput when it is not a sequence."""
    try:
        return list(items)
    except TypeError:
        raise InvalidInput(f"{what} must be a sequence of {of}, got {items!r}") from None


def _set_masks(space: SampleSpace, sets: list) -> np.ndarray:
    """The (s, m + n) bool selectors of the MeasurableSets ``sets`` (SampleSpace.mask)."""
    return np.array([space.mask(e) for e in sets], bool).reshape(
        len(sets), space.n_cells + space.n_atoms)


def _set_values(stack: np.ndarray, weights) -> np.ndarray:
    """The value of each row of the (s, k) selector stack ``weights`` over
    the (k, d, d) item stack ``stack``, shape (s, d, d).

    A 0/1 row has evaluate's bits, sum_items of its selected items added
    in item order:
    - from _GATHER_ITEMS items on, one sum_items call per row, on the
      (k, d, d) items as evaluate sums them;
    - below that, a block of rows at a time: one np.add.reduce over an
      (items, rows x d^2 + 1) copy of the masses, with zeros for the items
      a row leaves out.  Adding zeros changes no bit once the sum is added
      into zeros, as sum_items does, and the spare zero column keeps the
      items the outer loop for a single 1 x 1 row.
    numpy would sum an inner reduction axis pairwise, in another order.

    Any other row is tensordot's product: one (1, k) @ (k, d^2) matmul per
    row of a stacked call (a 2-d product of the rows adds in another
    order), or for k = d = 1 the complex product np.dot writes out for two
    1 x 1 operands.  The blocks of rows and the products hold about
    _CHUNK_ENTRIES complex entries at once, whatever the item count; a
    sum_items call holds one row's selected items and their partial sums,
    O(k d^2) entries, as evaluate does.
    """
    weights = np.asarray(weights)
    count, d = len(stack), stack.shape[-1]
    flat = stack.reshape(count, d * d)
    out = np.empty((len(weights), d * d), dtype=np.complex128)
    if weights.dtype == bool:
        whole, picks = np.ones(len(weights), dtype=bool), weights
    else:
        whole = ((weights == 1.0) | (weights == 0.0)).all(axis=1)
        picks = weights[whole] == 1.0
    rows = np.flatnonzero(whole)
    if count >= _GATHER_ITEMS:
        for row, pick in zip(rows, picks):
            out[row] = sum_items(stack[pick]).ravel()
    else:
        step = max(1, _CHUNK_ENTRIES // (count * d * d))
        for lo in range(0, rows.size, step):
            part, pick = rows[lo : lo + step], picks[lo : lo + step]
            items = np.zeros((count, part.size * d * d + 1), dtype=np.complex128)
            np.copyto(items[:, :-1].reshape(count, part.size, d * d), flat[:, None, :],
                      where=pick.T[:, :, None])
            out[part] = (0.0 + np.add.reduce(items, axis=0)[:-1]).reshape(part.size, d * d)
    rows = np.flatnonzero(~whole)
    if count == d == 1:  # tensordot's product of two 1 x 1 operands, which skips BLAS
        w, x = weights[rows, 0], flat[0, 0]
        out.real[rows, 0] = w * x.real - 0.0 * x.imag
        out.imag[rows, 0] = w * x.imag + 0.0 * x.real
        rows = rows[:0]
    step = max(1, _CHUNK_ENTRIES // count)
    for lo in range(0, rows.size, step):
        part = rows[lo : lo + step]
        out[part] = (weights[part, None, :] @ flat)[:, 0]
    return out.reshape(len(weights), d, d)


def evaluate(nu: OVM, e: MeasurableSet) -> np.ndarray:
    """nu(E): sum of the selected masses; InvalidInput for a FractionalSet
    (evaluate_fractional sums those)."""
    _check_measure(nu)
    return sum_items(nu.masses[nu.space.mask(e)])


def evaluate_fractional(nu: OVM, h: FractionalSet) -> np.ndarray:
    """sum_k h_k M_k over the cells plus the selected atom masses, by _set_values:
    a 0/1-valued h has :func:`evaluate`'s bits for its set, not merely its value."""
    _check_measure(nu)
    return _set_values(nu.masses, nu.space.selector(h)[None])[0]


def induced_measure(nu: OVM, rho) -> InducedMeasure:
    """nu_rho: per-item traces tr(rho M) of a rho that hermitian_stack accepts, as given.
    rho is parsed once: its shape, its finiteness, its dim, then the Hermitian test."""
    _check_measure(nu)
    r = opcore.as_matrix(getattr(rho, "matrix", rho))
    if r.shape[0] != nu.dim:
        raise DimMismatch(f"state dim {r.shape[0]} vs measure dim {nu.dim}")
    opcore._symmetrized(r)
    traces = np.einsum("ij,kji->k", r, nu.masses).real
    return InducedMeasure(nu.space, traces)


def entry_measure(nu: OVM, i: int, j: int) -> EntryMeasure:
    """The complex scalar measure of matrix entry (i, j)."""
    _check_measure(nu)
    i, j = _index(i, nu.dim, "entry row"), _index(j, nu.dim, "entry column")
    entries = opcore.readonly(nu.masses[:, i, j], np.complex128)
    return EntryMeasure(entries[: nu.space.n_cells], entries[nu.space.n_cells :])


def _check_measure(nu) -> None:
    """InvalidInput unless ``nu`` is an OVM."""
    if not isinstance(nu, OVM):
        raise InvalidInput(f"expected an OVM, got {type(nu).__name__}")


def _check_space(space) -> None:
    """InvalidInput unless ``space`` is a SampleSpace."""
    if not isinstance(space, SampleSpace):
        raise InvalidInput(f"expected a SampleSpace, got {type(space).__name__}")


def atoms(nu: OVM) -> list[tuple[float, np.ndarray]]:
    """Atom sites carrying non-null mass (OVM.massive), as (site, mass) pairs."""
    _check_measure(nu)
    massive = nu.massive[nu.space.n_cells :]
    return [(site, mass)
            for site, mass, live in zip(nu.space.atom_sites, nu.atom_masses, massive) if live]


def is_nonatomic(nu: OVM) -> bool:
    """No massive atom sites, and every massive cell is divisible."""
    return not atoms(nu) and not (nu.space._indivisible & nu.massive[: nu.space.n_cells]).any()


@dataclass(frozen=True)
class PropertyReport:
    """Axiom check results; spectrality is sampled, not proven.  Every OVM
    is bounded and self-adjoint by construction, so neither is a flag."""

    positive: bool
    spectral: bool
    probability: bool


def check_ovm_properties(nu: OVM, sample_sets: list[MeasurableSet]) -> PropertyReport:
    """Check the OVM axioms on the given sample algebra.

    Spectrality, nu(E n F) = nu(E) nu(F), is tested on all ordered pairs
    from ``sample_sets``, one row of pairs at a time.  The values nu(E)
    come from one _set_values call, with evaluate's bits; for each E, the
    values nu(E n F) of every F come from one product of intersection
    selectors with the mass stack, and their defects take one op_norms
    call; the check stops at the first row with a defect above ``tol``.
    For s sets it holds O(s (m + n) + s d^2) numbers, never s^2 matrices.
    A True flag is a non-falsification, not a certificate.
    """
    _check_measure(nu)
    # No set value exceeds the summed mass norms, so no defect
    # nu(E n F) - nu(E) nu(F) reaches 2 reach^2; the guard keeps twice that finite,
    # and tol too, as ||nu(X)|| <= reach.
    reach = float(nu.norms.sum())
    if not np.isfinite(4.0 * reach * reach):
        raise InvalidInput(f"masses too large: products of set values near {reach:.3e}^2 "
                           "overflow float64")
    tol = SPECTRAL_TOL * nu.total_norm * nu.total_norm
    sample_sets = _as_list(sample_sets, "sample sets")
    picks = _set_masks(nu.space, sample_sets)
    count, d = len(picks), nu.dim
    flat = nu.masses.reshape(len(nu.masses), d * d)
    values = _set_values(nu.masses, picks)
    spectral = all(
        opcore.op_norms(((picks & row).astype(float) @ flat).reshape(count, d, d) - value @ values)
        .max() <= tol for row, value in zip(picks, values))
    probability = opcore.op_norm(nu.total_mass() - np.eye(nu.dim)) <= UNIT_TOL
    return PropertyReport(positive=nu.positive, spectral=spectral, probability=probability)


def abs_continuous(nu1, nu2) -> bool:
    """nu1 << nu2 on the cell/atom algebra: no cell or atom is massive in
    nu1 and null in nu2, which suffices for nonnegative cellwise measures.
    Either argument may be an OVM or an induced measure over the same space.
    """
    for nu in (nu1, nu2):
        if not isinstance(nu, (OVM, InducedMeasure)):
            raise InvalidInput(f"expected an OVM or InducedMeasure, got {type(nu).__name__}")
    if nu1.space != nu2.space:
        raise SpaceMismatch("measures live over different sample spaces")
    return not np.any(nu1.massive & ~nu2.massive)


def direct_sum(*ovms: OVM) -> OVM:
    """Block-diagonal join of OVMs over one sample space."""
    if len(ovms) == 1 and isinstance(ovms[0], (list, tuple)):
        ovms = tuple(ovms[0])
    if not ovms:
        raise InvalidInput("need at least one component")
    if not isinstance(ovms[0], OVM):
        raise InvalidInput("direct sum components must be OVMs")
    return OVM(ovms[0].space, None, "direct_sum", components=ovms)


def _block_join(ovms) -> np.ndarray:
    """The block-diagonal stack of the masses of OVMs over one space, in order."""
    offsets = np.cumsum([0] + [o.dim for o in ovms])
    masses = _zero_masses(len(ovms[0].masses), offsets[-1])
    for o, lo in zip(ovms, offsets):
        masses[:, lo : lo + o.dim, lo : lo + o.dim] = o.masses
    return masses


# The key table of each JSON object below (jsonkeys.read_keys): an OVM has one
# per variant, a direct sum carrying its components and the others their masses.
_LIST = Key(Type("a list", lambda value: isinstance(value, list)), ())
_BOUNDS = "space JSON must carry a, b and breakpoints"
_SPACE_KEYS = {"a": Key(required=_BOUNDS), "b": Key(required=_BOUNDS),
               "breakpoints": Key(_LIST.type, required=_BOUNDS),
               "atoms": _LIST, "divisible": _LIST}
_OVM_KEYS = {"space": Key(required="OVM JSON must carry a space"),
             "dim": Key(required="OVM JSON must carry a dim"),
             "variant": Key(default="grid")}
_MASSES_KEYS = {**_OVM_KEYS, "cell_masses": _LIST, "atom_masses": _LIST}
_SUM_KEYS = {**_OVM_KEYS, "components": _LIST}
_SET_KEYS = {"cells": _LIST, "atoms": _LIST}  # from_indices checks each index


def space_to_json(space: SampleSpace) -> dict:
    return {
        "a": space.a,
        "b": space.b,
        "breakpoints": list(space.breakpoints),
        "atoms": list(space.atom_sites),
        "divisible": list(space.divisible),
    }


def space_from_json(obj) -> SampleSpace:
    p = read_keys(obj, _SPACE_KEYS, "space JSON")
    return SampleSpace(p["a"], p["b"], p["breakpoints"], p["atoms"], p["divisible"])


def ovm_to_json(nu: OVM) -> dict:
    _check_measure(nu)
    out = {
        "space": space_to_json(nu.space),
        "dim": nu.dim,
        "variant": nu.variant,
    }
    if nu.variant == "direct_sum":
        out["components"] = [ovm_to_json(o) for o in nu.components]
    else:
        out["cell_masses"] = [opcore.matrix_to_json(x) for x in nu.cell_masses]
        out["atom_masses"] = [opcore.matrix_to_json(x) for x in nu.atom_masses]
    return out


def ovm_from_json(obj) -> OVM:
    """Decode :func:`ovm_to_json`'s form.  A direct sum's own space and dim
    must be its components' space and the sum of their dims."""
    direct = tag(obj, "variant", "OVM JSON") == "direct_sum"
    p = read_keys(obj, _SUM_KEYS if direct else _MASSES_KEYS,
                  "direct_sum OVM JSON" if direct else "OVM JSON")
    space = space_from_json(p["space"])
    d = opcore.as_int(p["dim"], "OVM JSON dim", low=1)
    if direct:
        nu = direct_sum(*[ovm_from_json(c) for c in p["components"]])
        if nu.space != space:
            raise SpaceMismatch("direct_sum OVM JSON space is not its components' space")
        if nu.dim != d:
            raise DimMismatch(f"direct_sum OVM JSON dim {d} is not {nu.dim}, the sum of its "
                              "components' dims")
        return nu
    try:
        cell, atom = opcore.matrix_stacks_from_json(p["cell_masses"], p["atom_masses"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed OVM JSON: {exc}") from exc
    return OVM(space, join_items(space, cell, atom, d), p["variant"])


def set_to_json(e: MeasurableSet) -> dict:
    if not isinstance(e, MeasurableSet):
        raise InvalidInput(f"expected a MeasurableSet, got {type(e).__name__}")
    return {"cells": np.flatnonzero(e.cell_mask).tolist(),
            "atoms": np.flatnonzero(e.atom_mask).tolist()}


def set_from_json(space: SampleSpace, obj) -> MeasurableSet:
    _check_space(space)
    p = read_keys(obj, _SET_KEYS, "set JSON")
    return MeasurableSet.from_indices(space, p["cells"], p["atoms"])
