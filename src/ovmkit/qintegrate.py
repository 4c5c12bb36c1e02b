"""Quantum random variables as matrix-valued step functions, and their
integration against a positive operator-valued measure.

The integral of f against nu contributes M_k^(1/2) F_k M_k^(1/2) per cell:
on a cell where the operator density is M_k / tr(rho M_k) and the induced
mass is tr(rho M_k), the defining identity tr(s * integral) = integral of
f_s against nu_rho forces exactly that conjugation, independent of rho.

Essential support, range, and supremum are computed up to nu-null cells,
with operator-norm balls as the neighborhood system; for step functions
these notions are exact, and tolerances only absorb round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import (
    DimMismatch,
    InvalidInput,
    NotSelfAdjoint,
    NumericalFailure,
    ShapeMismatch,
    Unsupported,
)
from .ovm import MASS_TOL, OVM, FractionalSet, MeasurableSet, SampleSpace
from .rnderiv import rn_derivative

# Operator-norm gap under which two step values are considered equal.
DEDUP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumRandomVariable:
    """Matrix-valued step function: one value per cell plus atom values."""

    space: SampleSpace
    dim: int
    cell_values: np.ndarray
    atom_values: np.ndarray
    self_adjoint: bool = field(default=False)
    positive: bool = field(default=False)

    def __post_init__(self):
        d = int(self.dim)
        cv = np.asarray(self.cell_values, dtype=np.complex128)
        av = np.asarray(self.atom_values, dtype=np.complex128)
        if cv.shape != (self.space.n_cells, d, d):
            raise ShapeMismatch(f"cell values must have shape {(self.space.n_cells, d, d)}")
        if av.shape != (self.space.n_atoms, d, d):
            raise ShapeMismatch(f"atom values must have shape {(self.space.n_atoms, d, d)}")
        if not (np.all(np.isfinite(cv)) and np.all(np.isfinite(av))):
            raise InvalidInput("step values must be finite")
        cv = cv.copy()
        av = av.copy()
        cv.setflags(write=False)
        av.setflags(write=False)
        herm = all(opcore.is_hermitian(x) for x in cv) and all(opcore.is_hermitian(x) for x in av)
        pos = herm and all(opcore.psd_check(x) for x in cv) and all(opcore.psd_check(x) for x in av)
        object.__setattr__(self, "cell_values", cv)
        object.__setattr__(self, "atom_values", av)
        object.__setattr__(self, "self_adjoint", herm)
        object.__setattr__(self, "positive", pos)

    def __add__(self, other):
        _check_same(self, other)
        return QuantumRandomVariable(self.space, self.dim,
                                     self.cell_values + other.cell_values,
                                     self.atom_values + other.atom_values)

    def __sub__(self, other):
        _check_same(self, other)
        return QuantumRandomVariable(self.space, self.dim,
                                     self.cell_values - other.cell_values,
                                     self.atom_values - other.atom_values)

    def __rmul__(self, scalar):
        return QuantumRandomVariable(self.space, self.dim,
                                     scalar * self.cell_values,
                                     scalar * self.atom_values)


@dataclass(frozen=True, eq=False)
class ScalarStepFunction:
    """Complex-valued step function on the same cell layout."""

    space: SampleSpace
    cells: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=np.complex128).copy()
        a = np.asarray(self.atoms, dtype=np.complex128).copy()
        c.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "cells", c)
        object.__setattr__(self, "atoms", a)


def _check_same(f: QuantumRandomVariable, g: QuantumRandomVariable):
    if f.space != g.space or f.dim != g.dim:
        raise ShapeMismatch("step functions live on different layouts")


def qrv(space: SampleSpace, cell_values, atom_values=None, dim=None) -> QuantumRandomVariable:
    cv = np.asarray(cell_values, dtype=np.complex128)
    d = dim if dim is not None else cv.shape[-1]
    if atom_values is None:
        atom_values = np.zeros((space.n_atoms, d, d), dtype=np.complex128)
    return QuantumRandomVariable(space, d, cv, np.asarray(atom_values, dtype=np.complex128))


def constant_qrv(space: SampleSpace, value) -> QuantumRandomVariable:
    v = opcore.as_matrix(value)
    d = v.shape[0]
    cv = np.broadcast_to(v, (space.n_cells, d, d)).copy()
    av = np.broadcast_to(v, (space.n_atoms, d, d)).copy()
    return QuantumRandomVariable(space, d, cv, av)


def indicator(space: SampleSpace, dim: int, e: MeasurableSet) -> QuantumRandomVariable:
    """chi_E * I: the identity on E, zero elsewhere."""
    if len(e.cell_mask) != space.n_cells or len(e.atom_mask) != space.n_atoms:
        raise ShapeMismatch("set masks do not match the sample space")
    eye = np.eye(dim, dtype=np.complex128)
    cv = np.zeros((space.n_cells, dim, dim), dtype=np.complex128)
    av = np.zeros((space.n_atoms, dim, dim), dtype=np.complex128)
    cv[e.cells()] = eye
    av[e.atoms()] = eye
    return QuantumRandomVariable(space, dim, cv, av)


def scalar_lift(space: SampleSpace, dim: int, cell_scalars, atom_scalars=None) -> QuantumRandomVariable:
    """Scalars h_k lifted to h_k * I, e.g. elements of the fractional cube."""
    h = np.asarray(cell_scalars, dtype=np.complex128)
    a = (np.zeros(space.n_atoms, dtype=np.complex128) if atom_scalars is None
         else np.asarray(atom_scalars, dtype=np.complex128))
    eye = np.eye(dim, dtype=np.complex128)
    return QuantumRandomVariable(space, dim,
                                 h[:, None, None] * eye,
                                 a[:, None, None] * eye)


def from_fractional(space: SampleSpace, dim: int, h: FractionalSet) -> QuantumRandomVariable:
    return scalar_lift(space, dim, h.fractions(), h.atoms().astype(float))


def _split_psd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise spectral positive/negative parts of a Hermitian stack."""
    if stack.shape[0] == 0:
        return stack.copy(), stack.copy()
    w, v = np.linalg.eigh(stack)
    vh = v.conj().transpose(0, 2, 1)
    plus = (v * np.maximum(w, 0.0)[:, None, :]) @ vh
    minus = (v * np.maximum(-w, 0.0)[:, None, :]) @ vh
    return plus, minus


def pos_neg_parts(f: QuantumRandomVariable):
    """f = f_plus - f_minus with both parts PSD and f_plus f_minus = 0 cellwise."""
    if not f.self_adjoint:
        raise NotSelfAdjoint("positive/negative parts need a self-adjoint step function")
    cp, cm = _split_psd(f.cell_values)
    ap, am = _split_psd(f.atom_values)
    return (QuantumRandomVariable(f.space, f.dim, cp, ap),
            QuantumRandomVariable(f.space, f.dim, cm, am))


def real_imag_parts(f: QuantumRandomVariable):
    """Cellwise Hermitian decomposition f = Re f + i Im f."""
    def herm(stack):
        return (stack + stack.conj().transpose(0, 2, 1)) / 2

    def skew(stack):
        return (stack - stack.conj().transpose(0, 2, 1)) / (2j)

    return (QuantumRandomVariable(f.space, f.dim, herm(f.cell_values), herm(f.atom_values)),
            QuantumRandomVariable(f.space, f.dim, skew(f.cell_values), skew(f.atom_values)))


def _sqrt_stack(stack: np.ndarray) -> np.ndarray:
    """PSD square roots of a stack of (near-)PSD Hermitian matrices."""
    if stack.shape[0] == 0:
        return stack.copy()
    w, v = np.linalg.eigh(stack)
    roots = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return (roots + roots.conj().transpose(0, 2, 1)) / 2


def integrate(nu: OVM, f: QuantumRandomVariable) -> np.ndarray:
    """Quantum expected value: sum_k M_k^(1/2) F_k M_k^(1/2) plus atoms.

    Hermitian (and PSD) output for self-adjoint (positive) f.  The
    four-part split through positive/negative and real/imaginary parts
    agrees with this direct path; the split stays available as a
    cross-check, not a code path.
    """
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    if f.dim != nu.dim:
        raise DimMismatch(f"value dim {f.dim} vs measure dim {nu.dim}")
    if not nu.positive:
        raise Unsupported("integration is defined against positive OVMs")
    out = np.zeros((nu.dim, nu.dim), dtype=np.complex128)
    for masses, values in ((nu.cell_masses, f.cell_values), (nu.atom_masses, f.atom_values)):
        if masses.shape[0] == 0:
            continue
        roots = _sqrt_stack(masses)
        out += np.add.reduce(roots @ values @ roots, axis=0)
    if f.self_adjoint:
        out = (out + out.conj().T) / 2
    return out


def integrand_fs(f: QuantumRandomVariable, s, nu: OVM, rho) -> ScalarStepFunction:
    """The scalar integrand f_s: cellwise tr(s R_k^(1/2) F_k R_k^(1/2)).

    Cells where the derivative is undefined (null cells) contribute 0.
    """
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    s_mat = opcore.as_matrix(getattr(s, "matrix", s))
    if s_mat.shape[0] != nu.dim:
        raise DimMismatch(f"state dim {s_mat.shape[0]} vs measure dim {nu.dim}")
    dens = rn_derivative(nu, rho)

    def values(density_slots, step_values):
        out = np.zeros(len(density_slots), dtype=np.complex128)
        defined = [k for k, r in enumerate(density_slots) if r is not None]
        if defined:
            roots = _sqrt_stack(np.stack([density_slots[k] for k in defined]))
            conj = roots @ step_values[defined] @ roots
            out[defined] = np.einsum("ij,kji->k", s_mat, conj)
        return out

    return ScalarStepFunction(
        nu.space,
        values(dens.cells, f.cell_values),
        values(dens.atoms, f.atom_values),
    )


def _value_norms(stack: np.ndarray) -> np.ndarray:
    if stack.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def ess_support(f: QuantumRandomVariable, nu: OVM) -> MeasurableSet:
    """Cells and atoms where f is nonzero modulo nu-null sets."""
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    cell_live = (_value_norms(f.cell_values) > MASS_TOL) & (nu.cell_norms() > MASS_TOL)
    atom_live = (_value_norms(f.atom_values) > MASS_TOL) & (nu.atom_norms() > MASS_TOL)
    return MeasurableSet(tuple(bool(x) for x in cell_live), tuple(bool(x) for x in atom_live))


def ess_range(f: QuantumRandomVariable, nu: OVM) -> list[np.ndarray]:
    """Distinct values attained on nonzero-mass cells/atoms.

    Exact for step functions: a value attained on positive mass has every
    neighborhood of nonzero measure, and no other operator does.
    Deduplicated under operator-norm distance DEDUP_TOL, first occurrence
    kept, cells before atoms.
    """
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    out: list[np.ndarray] = []
    for live_values in (
        f.cell_values[nu.cell_norms() > MASS_TOL],
        f.atom_values[nu.atom_norms() > MASS_TOL],
    ):
        for value in live_values:
            if all(opcore.op_norm(value - seen) > DEDUP_TOL for seen in out):
                out.append(value.copy())
    return out


def ess_sup(f: QuantumRandomVariable, nu: OVM) -> float:
    """sup of operator norms over the essential range (0 if a.e. zero).

    Also evaluated through the threshold formulation
    inf{M >= 0 : nu({||f|| > M}) = 0}; the two must agree.
    """
    values = ess_range(f, nu)
    by_range = max((opcore.op_norm(v) for v in values), default=0.0)
    live_norms = np.concatenate([
        _value_norms(f.cell_values)[nu.cell_norms() > MASS_TOL],
        _value_norms(f.atom_values)[nu.atom_norms() > MASS_TOL],
    ])
    by_threshold = float(live_norms.max()) if live_norms.size else 0.0
    if abs(by_range - by_threshold) > 1e-10 * max(1.0, by_threshold):
        raise NumericalFailure("essential supremum formulations disagree")
    return by_threshold


def ess_equal(f: QuantumRandomVariable, g: QuantumRandomVariable, nu: OVM) -> bool:
    """Equality in the L-infinity quotient: ess_sup(f - g) below tolerance."""
    gap = ess_sup(f - g, nu)
    return gap <= 1e-10 * max(1.0, ess_sup(f, nu), ess_sup(g, nu))


def qrv_to_json(f: QuantumRandomVariable) -> dict:
    return {
        "cells": [opcore.matrix_to_json(x) for x in f.cell_values],
        "atoms": [opcore.matrix_to_json(x) for x in f.atom_values],
    }


def qrv_from_json(space: SampleSpace, obj) -> QuantumRandomVariable:
    if not isinstance(obj, dict) or "cells" not in obj:
        raise InvalidInput("step function JSON must carry cells")
    cells = [opcore.matrix_from_json(x) for x in obj["cells"]]
    atoms = [opcore.matrix_from_json(x) for x in obj.get("atoms", [])]
    d = cells[0].shape[0] if cells else (atoms[0].shape[0] if atoms else 1)
    cv = np.stack(cells) if cells else np.zeros((0, d, d), dtype=np.complex128)
    av = np.stack(atoms) if atoms else np.zeros((space.n_atoms, d, d), dtype=np.complex128)
    return QuantumRandomVariable(space, d, cv, av)


def scalar_to_json(f: ScalarStepFunction) -> dict:
    scale = max(1.0, float(np.abs(f.cells).max()) if f.cells.size else 0.0)
    if (np.abs(f.cells.imag).max(initial=0.0) > 1e-12 * scale
            or np.abs(f.atoms.imag).max(initial=0.0) > 1e-12 * scale):
        raise Unsupported("scalar step JSON carries real values only")
    return {"cells": f.cells.real.tolist(), "atoms": f.atoms.real.tolist()}
