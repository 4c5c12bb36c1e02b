"""Operator-valued measures at finite resolution.

A sample space is a real interval [a, b) split into contiguous cells plus
a finite list of atom sites.  A grid-density measure assigns each cell a
Hermitian mass matrix, with the density constant on the cell, so a
sub-interval of fraction t carries exactly t times the cell mass.  That
convention makes nonatomicity, and the Lyapunov construction downstream,
exact at finite resolution rather than approximate.

Cells may be flagged indivisible, which models atoms that happen to be
intervals (every proper sub-mass is forbidden); point atoms carry their
own mass matrices and are never divisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# Below this operator norm a mass is treated as zero (null cell/atom).
MASS_TOL = 1e-12


@dataclass(frozen=True)
class SampleSpace:
    """Interval [a, b) with ordered cells and optional point atoms."""

    a: float
    b: float
    breakpoints: tuple[float, ...]
    atom_sites: tuple[float, ...] = ()
    divisible: tuple[bool, ...] = ()

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        bp = tuple(float(x) for x in self.breakpoints)
        if not a < b:
            raise InvalidInput("need a < b")
        if len(bp) < 2 or bp[0] != a or bp[-1] != b:
            raise InvalidInput("breakpoints must run from a to b")
        if any(x >= y for x, y in zip(bp, bp[1:])):
            raise InvalidInput("breakpoints must be strictly increasing")
        widths = [y - x for x, y in zip(bp, bp[1:])]
        if abs(sum(widths) - (b - a)) > 1e-12 * max(1.0, b - a):
            raise InvalidInput("cell widths do not sum to b - a")
        sites = tuple(float(s) for s in self.atom_sites)
        if len(set(sites)) != len(sites):
            raise InvalidInput("atom sites must be pairwise distinct")
        if any(not (a <= s <= b) for s in sites):
            raise InvalidInput("atom sites must lie in [a, b]")
        div = tuple(bool(f) for f in self.divisible)
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

    def cell_bounds(self, k: int) -> tuple[float, float]:
        return self.breakpoints[k], self.breakpoints[k + 1]


@dataclass(frozen=True)
class MeasurableSet:
    """Selection of whole cells and atoms (the indicator chi_E)."""

    cell_mask: tuple[bool, ...]
    atom_mask: tuple[bool, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cell_mask", tuple(bool(x) for x in self.cell_mask))
        object.__setattr__(self, "atom_mask", tuple(bool(x) for x in self.atom_mask))

    @classmethod
    def empty(cls, space: SampleSpace) -> "MeasurableSet":
        return cls((False,) * space.n_cells, (False,) * space.n_atoms)

    @classmethod
    def full(cls, space: SampleSpace) -> "MeasurableSet":
        return cls((True,) * space.n_cells, (True,) * space.n_atoms)

    @classmethod
    def from_indices(cls, space: SampleSpace, cells=(), atoms=()) -> "MeasurableSet":
        cm = [False] * space.n_cells
        am = [False] * space.n_atoms
        for k in cells:
            if not 0 <= opcore.as_int(k, "cell index") < space.n_cells:
                raise InvalidInput(f"cell index {k} out of range")
            cm[k] = True
        for k in atoms:
            if not 0 <= opcore.as_int(k, "atom index") < space.n_atoms:
                raise InvalidInput(f"atom index {k} out of range")
            am[k] = True
        return cls(tuple(cm), tuple(am))

    def cells(self) -> np.ndarray:
        return np.asarray(self.cell_mask, dtype=bool)

    def atoms(self) -> np.ndarray:
        return np.asarray(self.atom_mask, dtype=bool)

    def complement(self) -> "MeasurableSet":
        return MeasurableSet(tuple(not x for x in self.cell_mask),
                             tuple(not x for x in self.atom_mask))

    def _pairs(self, other: "MeasurableSet"):
        """Cell and atom mask pairs of two sets on one layout."""
        if (len(self.cell_mask) != len(other.cell_mask)
                or len(self.atom_mask) != len(other.atom_mask)):
            raise ShapeMismatch("sets have masks of different lengths")
        return zip(self.cell_mask, other.cell_mask), zip(self.atom_mask, other.atom_mask)

    def intersection(self, other: "MeasurableSet") -> "MeasurableSet":
        cells, atoms = self._pairs(other)
        return MeasurableSet(tuple(x and y for x, y in cells), tuple(x and y for x, y in atoms))

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        cells, atoms = self._pairs(other)
        return MeasurableSet(tuple(x or y for x, y in cells), tuple(x or y for x, y in atoms))

    def is_disjoint(self, other: "MeasurableSet") -> bool:
        cells, atoms = self._pairs(other)
        return not (any(x and y for x, y in cells) or any(x and y for x, y in atoms))

    def cell_indices(self) -> tuple[int, ...]:
        return tuple(k for k, x in enumerate(self.cell_mask) if x)

    def atom_indices(self) -> tuple[int, ...]:
        return tuple(k for k, x in enumerate(self.atom_mask) if x)


@dataclass(frozen=True)
class FractionalSet:
    """[0, 1]-relaxation of a measurable set.

    Cell coordinates are real fractions; atoms are indivisible and stay
    boolean.  Fractions outside [0, 1] by at most 1e-12 are clamped; NaN
    and infinite fractions are rejected.
    """

    cell_fractions: tuple[float, ...]
    atom_mask: tuple[bool, ...] = ()

    def __post_init__(self):
        fr = []
        for h in self.cell_fractions:
            h = float(h)
            if not -1e-12 <= h <= 1.0 + 1e-12:
                raise InvalidInput(f"cell fraction {h!r} outside [0, 1]")
            fr.append(min(1.0, max(0.0, h)))
        object.__setattr__(self, "cell_fractions", tuple(fr))
        object.__setattr__(self, "atom_mask", tuple(bool(x) for x in self.atom_mask))

    @classmethod
    def from_measurable(cls, e: MeasurableSet) -> "FractionalSet":
        return cls(tuple(1.0 if x else 0.0 for x in e.cell_mask), e.atom_mask)

    def fractions(self) -> np.ndarray:
        return np.asarray(self.cell_fractions)

    def atoms(self) -> np.ndarray:
        return np.asarray(self.atom_mask, dtype=bool)

    def is_indicator(self) -> bool:
        return all(h in (0.0, 1.0) for h in self.cell_fractions)

    def to_measurable(self) -> MeasurableSet:
        if not self.is_indicator():
            raise InvalidInput("fractional set is not 0/1-valued")
        return MeasurableSet(tuple(h == 1.0 for h in self.cell_fractions), self.atom_mask)


@dataclass(frozen=True, eq=False)
class InducedMeasure:
    """Scalar measure E -> tr(rho nu(E)) at cell/atom resolution."""

    space: SampleSpace
    cells: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cells", opcore.readonly(self.cells, np.float64))
        object.__setattr__(self, "atoms", opcore.readonly(self.atoms, np.float64))

    @property
    def total(self) -> float:
        return float(self.cells.sum() + self.atoms.sum())

    def of(self, e: MeasurableSet) -> float:
        _check_masks(self.space, e)
        return float(self.cells[e.cells()].sum() + self.atoms[e.atoms()].sum())


class EntryMeasure(NamedTuple):
    """Per-cell and per-atom masses of one matrix entry of an OVM."""

    cells: np.ndarray
    atoms: np.ndarray


@dataclass(frozen=True, eq=False)
class OVM:
    """Operator-valued measure at finite resolution.

    ``cell_masses`` has shape (m, d, d): entry k is nu(cell_k).  The
    density on cell k is the constant M_k / w_k.  ``atom_masses`` has
    shape (n_atoms, d, d).  Direct sums keep their components and also
    materialize block-diagonal masses so every operation stays uniform.
    """

    space: SampleSpace
    dim: int
    cell_masses: np.ndarray
    atom_masses: np.ndarray
    variant: str
    positive: bool = field(default=False)
    components: tuple["OVM", ...] = ()

    def __post_init__(self):
        d = opcore.as_int(self.dim, "dimension", low=1)
        m = self.space.n_cells
        n = self.space.n_atoms
        cm = np.asarray(self.cell_masses, dtype=np.complex128)
        am = np.asarray(self.atom_masses, dtype=np.complex128)
        if cm.shape != (m, d, d):
            raise ShapeMismatch(f"cell masses must have shape {(m, d, d)}, got {cm.shape}")
        if am.shape != (n, d, d):
            raise ShapeMismatch(f"atom masses must have shape {(n, d, d)}, got {am.shape}")
        if self.variant not in ("grid", "atomic", "mixed", "direct_sum"):
            raise InvalidInput(f"unknown variant {self.variant!r}")
        cm = opcore.readonly(opcore.hermitian_stack(cm), np.complex128)
        am = opcore.readonly(opcore.hermitian_stack(am), np.complex128)
        pos = opcore.psd_flags(cm).all() and opcore.psd_flags(am).all()
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "cell_masses", cm)
        object.__setattr__(self, "atom_masses", am)
        object.__setattr__(self, "positive", bool(pos))
        object.__setattr__(self, "components", tuple(self.components))

    def total_mass(self) -> np.ndarray:
        """nu(X)."""
        out = _sum_selected(self.cell_masses, range(self.space.n_cells), self.dim)
        out += _sum_selected(self.atom_masses, range(self.space.n_atoms), self.dim)
        return out

    @cached_property
    def cell_coords(self) -> np.ndarray:
        """herm_coords of the cell masses, shape (m, d^2), read-only: row k
        is M_k in the orthonormal trace-inner-product basis."""
        coords = opcore.herm_coords(self.cell_masses)
        coords.setflags(write=False)
        return coords

    @cached_property
    def total_norm(self) -> float:
        """||nu(X)||, the operator norm of the total mass."""
        return opcore.op_norm(self.total_mass())

    @cached_property
    def _norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Operator norms of the cell masses and of the atom masses."""
        return tuple(opcore.readonly(np.abs(np.linalg.eigvalsh(s)).max(axis=-1, initial=0.0),
                                     np.float64) for s in (self.cell_masses, self.atom_masses))

    def cell_norms(self) -> np.ndarray:
        return self._norms[0]

    def atom_norms(self) -> np.ndarray:
        return self._norms[1]


def _zero_masses(count: int, dim: int) -> np.ndarray:
    return np.zeros((count, dim, dim), dtype=np.complex128)


def grid_ovm(space: SampleSpace, cell_masses, atom_masses=None) -> OVM:
    """Grid-density OVM; pass atom masses as well for the mixed variant."""
    cm = np.asarray(cell_masses, dtype=np.complex128)
    d = cm.shape[-1]
    if atom_masses is None:
        return OVM(space, d, cm, _zero_masses(space.n_atoms, d), "grid")
    return OVM(space, d, cm, np.asarray(atom_masses, dtype=np.complex128), "mixed")


def atomic_ovm(space: SampleSpace, atom_masses) -> OVM:
    am = np.asarray(atom_masses, dtype=np.complex128)
    d = am.shape[-1]
    return OVM(space, d, _zero_masses(space.n_cells, d), am, "atomic")


def _check_masks(space: SampleSpace, e: MeasurableSet):
    if len(e.cell_mask) != space.n_cells or len(e.atom_mask) != space.n_atoms:
        raise ShapeMismatch("set masks do not match the sample space")


def _sum_selected(stack: np.ndarray, indices, dim: int) -> np.ndarray:
    # Sequential accumulation in index order: each matrix entry sees the
    # same float additions no matter how the matrices are embedded in
    # blocks, which keeps direct sums and entrywise reconstructions exact.
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in indices:
        out += stack[k]
    return out


def evaluate(nu: OVM, e: MeasurableSet) -> np.ndarray:
    """nu(E): sum of selected cell and atom masses."""
    _check_masks(nu.space, e)
    out = _sum_selected(nu.cell_masses, np.flatnonzero(e.cells()), nu.dim)
    out += _sum_selected(nu.atom_masses, np.flatnonzero(e.atoms()), nu.dim)
    return out


def evaluate_fractional(nu: OVM, h: FractionalSet) -> np.ndarray:
    """sum_k h_k M_k plus the selected atom masses.

    Routes 0/1-valued inputs through :func:`evaluate` so agreement with
    the set function is exact, not merely within round-off.
    """
    if len(h.cell_fractions) != nu.space.n_cells or len(h.atom_mask) != nu.space.n_atoms:
        raise ShapeMismatch("fractional set does not match the sample space")
    if h.is_indicator():
        return evaluate(nu, h.to_measurable())
    out = np.tensordot(h.fractions(), nu.cell_masses, axes=1)
    am = h.atoms()
    if am.any():
        out += np.add.reduce(nu.atom_masses[am], axis=0)
    return out


def induced_measure(nu: OVM, rho) -> InducedMeasure:
    """nu_rho: per-cell/per-atom traces tr(rho M)."""
    r = opcore.as_matrix(getattr(rho, "matrix", rho))
    if r.shape[0] != nu.dim:
        raise DimMismatch(f"state dim {r.shape[0]} vs measure dim {nu.dim}")
    cells = np.einsum("ij,kji->k", r, nu.cell_masses).real
    atoms = np.einsum("ij,kji->k", r, nu.atom_masses).real
    return InducedMeasure(nu.space, cells, atoms)


def entry_measure(nu: OVM, i: int, j: int) -> EntryMeasure:
    """The complex scalar measure of matrix entry (i, j)."""
    if not (0 <= i < nu.dim and 0 <= j < nu.dim):
        raise InvalidInput(f"entry ({i}, {j}) out of range for dim {nu.dim}")
    return EntryMeasure(opcore.readonly(nu.cell_masses[:, i, j], np.complex128),
                        opcore.readonly(nu.atom_masses[:, i, j], np.complex128))


def atoms(nu: OVM) -> list[tuple[float, np.ndarray]]:
    """Atom sites carrying nonzero mass, as (site, mass matrix) pairs."""
    norms = nu.atom_norms()
    return [(site, mass)
            for site, mass, norm in zip(nu.space.atom_sites, nu.atom_masses, norms)
            if norm > MASS_TOL]


def is_nonatomic(nu: OVM) -> bool:
    """No massive atom sites, and every cell of nonzero mass is divisible."""
    if atoms(nu):
        return False
    norms = nu.cell_norms()
    return all(norm <= MASS_TOL or div
               for norm, div in zip(norms, nu.space.divisible))


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
    spectral = True
    tol = 1e-9 * max(1.0, nu.total_norm) * max(1.0, nu.total_norm)
    # No set value exceeds the summed mass norms; a product of two values,
    # less a third, with its adjoint added, stays below 4 reach^2.
    reach = float(nu.cell_norms().sum() + nu.atom_norms().sum())
    if not np.isfinite(4.0 * reach * reach):
        raise InvalidInput(f"masses too large: products of set values near {reach:.3e}^2 "
                           "overflow float64")
    values = [evaluate(nu, e) for e in sample_sets]
    for e1, v1 in zip(sample_sets, values):
        for e2, v2 in zip(sample_sets, values):
            lhs = evaluate(nu, e1.intersection(e2))
            if opcore.op_norm(lhs - v1 @ v2) > tol:
                spectral = False
                break
        if not spectral:
            break
    probability = opcore.op_norm(nu.total_mass() - np.eye(nu.dim)) <= 1e-12
    return PropertyReport(positive=nu.positive, spectral=spectral, probability=probability)


def _mass_magnitudes(obj) -> tuple[SampleSpace, np.ndarray, np.ndarray]:
    if isinstance(obj, OVM):
        return obj.space, obj.cell_norms(), obj.atom_norms()
    if isinstance(obj, InducedMeasure):
        return obj.space, np.abs(obj.cells), np.abs(obj.atoms)
    raise InvalidInput(f"expected an OVM or InducedMeasure, got {type(obj).__name__}")


def abs_continuous(nu1, nu2) -> bool:
    """nu1 << nu2 on the cell/atom algebra.

    Every cell or atom where nu2 vanishes must carry zero nu1 mass; this
    suffices for nonnegative cellwise measures.  Either argument may be
    an OVM or an induced measure over the same space.
    """
    s1, c1, a1 = _mass_magnitudes(nu1)
    s2, c2, a2 = _mass_magnitudes(nu2)
    if s1 != s2:
        raise SpaceMismatch("measures live over different sample spaces")
    cell_ok = np.all(c1[c2 <= MASS_TOL] <= MASS_TOL)
    atom_ok = np.all(a1[a2 <= MASS_TOL] <= MASS_TOL)
    return bool(cell_ok and atom_ok)


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
    cm = _zero_masses(space.n_cells, d)
    am = _zero_masses(space.n_atoms, d)
    for o, lo in zip(ovms, offsets):
        hi = lo + o.dim
        cm[:, lo:hi, lo:hi] = o.cell_masses
        am[:, lo:hi, lo:hi] = o.atom_masses
    return OVM(space, d, cm, am, "direct_sum", components=tuple(ovms))


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
            a=float(obj["a"]),
            b=float(obj["b"]),
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
        cm = [opcore.matrix_from_json(x) for x in obj.get("cell_masses", [])]
        am = [opcore.matrix_from_json(x) for x in obj.get("atom_masses", [])]
        cell = np.stack(cm) if cm else _zero_masses(space.n_cells, d)
        atom = np.stack(am) if am else _zero_masses(space.n_atoms, d)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed OVM JSON: {exc}") from exc
    return OVM(space, d, cell, atom, variant)


def set_to_json(e: MeasurableSet) -> dict:
    return {"cells": list(e.cell_indices()), "atoms": list(e.atom_indices())}


def set_from_json(space: SampleSpace, obj) -> MeasurableSet:
    if not isinstance(obj, dict):
        raise InvalidInput("set JSON must be an object")
    cells, atoms = obj.get("cells", []), obj.get("atoms", [])
    if not all(isinstance(x, list) and all(isinstance(k, int) for k in x) for x in (cells, atoms)):
        raise InvalidInput("set JSON cells and atoms must be lists of indices")
    return MeasurableSet.from_indices(space, cells, atoms)
