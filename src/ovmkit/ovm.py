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

# An item is null when its mass is at most this times the whole measure's
# (OVM.massive, InducedMeasure.massive).
MASS_TOL = 1e-12


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
        if abs(sum(widths) - (b - a)) > 1e-12 * max(1.0, b - a):
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
        w = np.diff(np.asarray(self.breakpoints))
        w.setflags(write=False)
        return w

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
        """The m + n selector of a set: its cell mask (bools) or fractions
        (floats), then its atom mask; ShapeMismatch if its layout differs."""
        cells = e.cell_fractions if isinstance(e, FractionalSet) else e.cell_mask
        if len(cells) != self.n_cells or len(e.atom_mask) != self.n_atoms:
            raise ShapeMismatch("set does not match the sample space")
        return np.concatenate((cells, e.atom_mask))


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
    1e-12 they are clamped, and NaN and infinite ones rejected.
    """

    cell_fractions: np.ndarray
    atom_mask: np.ndarray = ()

    def __post_init__(self):
        fr = opcore.as_reals(self.cell_fractions, "cell fraction")
        if fr.ndim != 1:
            raise InvalidInput(f"cell fractions must be 1-d, got shape {fr.shape}")
        outside = ~((fr >= -1e-12) & (fr <= 1.0 + 1e-12))  # NaN included
        if outside.any():
            raise InvalidInput(f"cell fraction {float(fr[outside][0])!r} outside [0, 1]")
        clamped = np.where(fr > 0.0, np.minimum(fr, 1.0), 0.0)  # -0.0 becomes 0.0
        clamped.setflags(write=False)
        object.__setattr__(self, "cell_fractions", clamped)
        object.__setattr__(self, "atom_mask", _flags(self.atom_mask, "atom mask"))

    __eq__ = _same_vectors

    @classmethod
    def from_measurable(cls, e: MeasurableSet) -> "FractionalSet":
        return cls(e.cell_mask.astype(float), e.atom_mask)


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
        return float(self.traces[self.space.selector(e)].sum())

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
    each atom.  ``dim`` and ``positive`` are derived from it, and
    ``cell_masses`` and ``atom_masses`` are views of it.  ``norms``,
    ``coords`` and ``massive`` are cached over all m + n items.  Direct
    sums keep their components as well as the block-diagonal masses.
    """

    space: SampleSpace
    masses: np.ndarray = field(repr=False)
    variant: str
    components: tuple["OVM", ...] = ()
    dim: int = field(init=False)
    positive: bool = field(init=False)

    def __post_init__(self):
        masses = self.space.item_stack(self.masses, np.complex128, "masses", matrices=True)
        if self.variant not in ("grid", "atomic", "mixed", "direct_sum"):
            raise InvalidInput(f"unknown variant {self.variant!r}")
        masses = opcore.hermitian_stack(masses)  # a new array if symmetrized
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "dim", masses.shape[-1])
        object.__setattr__(self, "positive", bool(opcore.psd_flags(masses).all()))
        object.__setattr__(self, "components", tuple(self.components))

    cell_masses, atom_masses = item_views("masses")

    def total_mass(self) -> np.ndarray:
        """nu(X)."""
        return sum_items(self.masses)

    @cached_property
    def coords(self) -> np.ndarray:
        """herm_coords of the masses, shape (m + n, d^2), read-only: row k
        is item k's mass in the orthonormal trace-inner-product basis."""
        coords = opcore.herm_coords(self.masses)
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
    def norms(self) -> np.ndarray:
        """Operator norms of the m + n masses, read-only."""
        norms = np.abs(np.linalg.eigvalsh(self.masses)).max(axis=-1, initial=0.0)
        return opcore.readonly(norms, np.float64)

    @cached_property
    def massive(self) -> np.ndarray:
        """Per item: is its mass norm above MASS_TOL * ||nu(X)||?  The rest
        are null: they change no value of the measure beyond round-off."""
        return opcore.readonly(self.norms > MASS_TOL * self.total_norm, bool)


def _zero_masses(count: int, dim: int) -> np.ndarray:
    return np.zeros((count, dim, dim), dtype=np.complex128)


def join_items(space: SampleSpace, cells, atoms, dim: int | None = None) -> np.ndarray:
    """The m + n stack of the cell and atom matrices, cells first, for the
    factories that take them apart; None stands for zeros.  The dimension
    is ``dim``, else that of the first half given; a half of any shape but
    (its item count, dim, dim) raises ShapeMismatch."""
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


def evaluate(nu: OVM, e: MeasurableSet) -> np.ndarray:
    """nu(E): sum of the selected masses."""
    return sum_items(nu.masses[nu.space.selector(e)])


def evaluate_fractional(nu: OVM, h: FractionalSet) -> np.ndarray:
    """sum_k h_k M_k over the cells plus the selected atom masses.

    A 0/1-valued h is summed as :func:`evaluate` sums its set, so agreement
    with the set function is exact, not merely within round-off.
    """
    weights = nu.space.selector(h)
    chosen = weights == 1.0
    if (chosen | (weights == 0.0)).all():
        return sum_items(nu.masses[chosen])
    return np.tensordot(weights, nu.masses, axes=1)


def induced_measure(nu: OVM, rho) -> InducedMeasure:
    """nu_rho: per-cell/per-atom traces tr(rho M)."""
    r = opcore.as_matrix(getattr(rho, "matrix", rho))
    if r.shape[0] != nu.dim:
        raise DimMismatch(f"state dim {r.shape[0]} vs measure dim {nu.dim}")
    traces = np.einsum("ij,kji->k", r, nu.masses).real
    return InducedMeasure(nu.space, traces)


def entry_measure(nu: OVM, i: int, j: int) -> EntryMeasure:
    """The complex scalar measure of matrix entry (i, j)."""
    i, j = _index(i, nu.dim, "entry row"), _index(j, nu.dim, "entry column")
    entries = opcore.readonly(nu.masses[:, i, j], np.complex128)
    return EntryMeasure(entries[: nu.space.n_cells], entries[nu.space.n_cells :])


def atoms(nu: OVM) -> list[tuple[float, np.ndarray]]:
    """Atom sites carrying non-null mass (OVM.massive), as (site, mass) pairs."""
    massive = nu.massive[nu.space.n_cells :]
    return [(site, mass)
            for site, mass, live in zip(nu.space.atom_sites, nu.atom_masses, massive) if live]


def is_nonatomic(nu: OVM) -> bool:
    """No massive atom sites, and every massive cell is divisible."""
    cells = nu.massive[: nu.space.n_cells]
    return not atoms(nu) and bool(np.all(np.asarray(nu.space.divisible) | ~cells))


@dataclass(frozen=True)
class PropertyReport:
    """Axiom check results; spectrality is sampled, not proven.  Every OVM
    is bounded and self-adjoint by construction, so neither is a flag."""

    positive: bool
    spectral: bool
    probability: bool


def check_ovm_properties(nu: OVM, sample_sets: list[MeasurableSet]) -> PropertyReport:
    """Check the OVM axioms on the given sample algebra.

    Spectrality is tested on all ordered pairs from ``sample_sets``; a
    True flag is a non-falsification, not a certificate.
    """
    tol = 1e-9 * max(1.0, nu.total_norm) * max(1.0, nu.total_norm)
    # No set value exceeds the summed mass norms; a product of two values,
    # less a third, with its adjoint added, stays below 4 reach^2.
    reach = float(nu.norms.sum())
    if not np.isfinite(4.0 * reach * reach):
        raise InvalidInput(f"masses too large: products of set values near {reach:.3e}^2 "
                           "overflow float64")
    values = [evaluate(nu, e) for e in sample_sets]
    spectral = all(opcore.op_norm(evaluate(nu, e1.intersection(e2)) - v1 @ v2) <= tol
                   for e1, v1 in zip(sample_sets, values) for e2, v2 in zip(sample_sets, values))
    probability = opcore.op_norm(nu.total_mass() - np.eye(nu.dim)) <= 1e-12
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
    space = ovms[0].space
    if any(o.space != space for o in ovms):
        raise SpaceMismatch("direct sum components must share one sample space")
    dims = [o.dim for o in ovms]
    d = sum(dims)
    offsets = np.cumsum([0] + dims)
    masses = _zero_masses(space.n_cells + space.n_atoms, d)
    for o, lo in zip(ovms, offsets):
        masses[:, lo : lo + o.dim, lo : lo + o.dim] = o.masses
    return OVM(space, masses, "direct_sum", components=tuple(ovms))


def space_to_json(space: SampleSpace) -> dict:
    return {
        "a": space.a,
        "b": space.b,
        "breakpoints": list(space.breakpoints),
        "atoms": list(space.atom_sites),
        "divisible": list(space.divisible),
    }


def space_from_json(obj) -> SampleSpace:
    if not isinstance(obj, dict) or not {"a", "b", "breakpoints"} <= obj.keys():
        raise InvalidInput("space JSON must carry a, b and breakpoints")
    try:
        return SampleSpace(
            a=obj["a"],
            b=obj["b"],
            breakpoints=tuple(obj["breakpoints"]),
            atom_sites=tuple(obj.get("atoms", ())),
            divisible=tuple(obj.get("divisible", ())),
        )
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed space JSON: {exc}") from exc


def ovm_to_json(nu: OVM) -> dict:
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
    if not isinstance(obj, dict) or "space" not in obj:
        raise InvalidInput("OVM JSON must carry a space")
    space = space_from_json(obj["space"])
    variant = obj.get("variant", "grid")
    if variant == "direct_sum":
        comps = obj.get("components", [])
        if not isinstance(comps, list):
            raise InvalidInput("OVM JSON components must be a list")
        return direct_sum(*[ovm_from_json(c) for c in comps])
    if "dim" not in obj:
        raise InvalidInput("OVM JSON must carry a dim")
    try:
        d = opcore.as_int(obj["dim"], "OVM JSON dim", low=1)
        cm, am = ([opcore.matrix_from_json(x) for x in obj.get(key, [])]
                  for key in ("cell_masses", "atom_masses"))
        cell, atom = (np.stack(x) if x else None for x in (cm, am))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed OVM JSON: {exc}") from exc
    return OVM(space, join_items(space, cell, atom, d), variant)


def set_to_json(e: MeasurableSet) -> dict:
    return {"cells": np.flatnonzero(e.cell_mask).tolist(),
            "atoms": np.flatnonzero(e.atom_mask).tolist()}


def set_from_json(space: SampleSpace, obj) -> MeasurableSet:
    if not isinstance(obj, dict):
        raise InvalidInput("set JSON must be an object")
    cells, atoms = obj.get("cells", []), obj.get("atoms", [])
    if not all(isinstance(x, list) and all(isinstance(k, int) for k in x) for x in (cells, atoms)):
        raise InvalidInput("set JSON cells and atoms must be lists of indices")
    return MeasurableSet.from_indices(space, cells, atoms)
