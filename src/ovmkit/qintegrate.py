"""Quantum random variables as matrix-valued step functions, and their
integration against a positive operator-valued measure.

The integral of f against nu contributes M_k^(1/2) F_k M_k^(1/2) per cell:
on a cell where the operator density is M_k / tr(rho M_k) and the induced
mass is tr(rho M_k), the defining identity tr(s * integral) = integral of
f_s against nu_rho forces exactly that conjugation, independent of rho.

Essential support, range, and supremum are computed up to nu-null cells
(OVM.massive), with operator-norm balls as the neighborhood system; for
step functions these notions are exact, and tolerances only absorb
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import (
    DimMismatch,
    NotSelfAdjoint,
    NumericalFailure,
    ShapeMismatch,
    Unsupported,
)
from .ovm import MASS_TOL, OVM, MeasurableSet, SampleSpace, item_views, join_items
from .rnderiv import rn_derivative

# Operator-norm gap under which two step values are considered equal.
DEDUP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumRandomVariable:
    """Matrix-valued step function: one (m + n, d, d) stack ``values``, the
    cell values then the atom values, validated once and kept read-only.
    ``dim``, ``self_adjoint`` and ``positive`` are derived from it, and
    ``cell_values`` and ``atom_values`` are views of it."""

    space: SampleSpace
    values: np.ndarray = field(repr=False)
    dim: int = field(init=False)
    self_adjoint: bool = field(init=False)
    positive: bool = field(init=False)

    def __post_init__(self):
        values = self.space.item_stack(self.values, np.complex128, "values", matrices=True)
        herm = bool(opcore.hermitian_flags(values).all())
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dim", values.shape[-1])
        object.__setattr__(self, "self_adjoint", herm)
        object.__setattr__(self, "positive", bool(herm and opcore.psd_flags(values).all()))

    cell_values, atom_values = item_views("values")

    def __add__(self, other):
        _check_same(self, other)
        return QuantumRandomVariable(self.space, self.values + other.values)

    def __sub__(self, other):
        _check_same(self, other)
        return QuantumRandomVariable(self.space, self.values - other.values)

    def __rmul__(self, scalar):
        return QuantumRandomVariable(self.space, scalar * self.values)


@dataclass(frozen=True, eq=False)
class ScalarStepFunction:
    """Complex-valued step function on the same layout: one read-only m + n
    stack ``values``, cells first, with ``cells`` and ``atoms`` views of it."""

    space: SampleSpace
    values: np.ndarray

    def __post_init__(self):
        values = self.space.item_stack(self.values, np.complex128, "values")
        object.__setattr__(self, "values", values)

    cells, atoms = item_views("values")


def _check_same(f: QuantumRandomVariable, g: QuantumRandomVariable):
    if f.space != g.space or f.dim != g.dim:
        raise ShapeMismatch("step functions live on different layouts")


def qrv(space: SampleSpace, cell_values, atom_values=None) -> QuantumRandomVariable:
    """The step function with these cell values and atom values (zero if None)."""
    return QuantumRandomVariable(space, join_items(space, cell_values, atom_values))


def indicator(space: SampleSpace, dim: int, e: MeasurableSet) -> QuantumRandomVariable:
    """chi_E * I: the identity on E, zero elsewhere."""
    dim = opcore.as_int(dim, "dimension", low=1)
    values = np.zeros((space.n_cells + space.n_atoms, dim, dim), dtype=np.complex128)
    values[space.selector(e)] = np.eye(dim)
    return QuantumRandomVariable(space, values)


def _split_psd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise spectral positive/negative parts of a Hermitian stack."""
    w, v = np.linalg.eigh(stack)
    vh = v.conj().transpose(0, 2, 1)
    plus = (v * np.maximum(w, 0.0)[:, None, :]) @ vh
    minus = (v * np.maximum(-w, 0.0)[:, None, :]) @ vh
    return plus, minus


def pos_neg_parts(f: QuantumRandomVariable):
    """f = f_plus - f_minus with both parts PSD and f_plus f_minus = 0 cellwise."""
    if not f.self_adjoint:
        raise NotSelfAdjoint("positive/negative parts need a self-adjoint step function")
    plus, minus = _split_psd(f.values)
    return QuantumRandomVariable(f.space, plus), QuantumRandomVariable(f.space, minus)


def real_imag_parts(f: QuantumRandomVariable):
    """Cellwise Hermitian decomposition f = Re f + i Im f."""
    def herm(stack):
        return (stack + stack.conj().transpose(0, 2, 1)) / 2

    def skew(stack):
        return (stack - stack.conj().transpose(0, 2, 1)) / (2j)

    return (QuantumRandomVariable(f.space, herm(f.values)),
            QuantumRandomVariable(f.space, skew(f.values)))


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
    roots = opcore.psd_roots(nu.masses)
    out = np.zeros((nu.dim, nu.dim), dtype=np.complex128)
    out += np.add.reduce(roots @ f.values @ roots, axis=0)  # into zeros: no entry reads -0.0
    if f.self_adjoint:
        out = (out + out.conj().T) / 2
    return out


def integrand_fs(f: QuantumRandomVariable, s, nu: OVM, rho) -> ScalarStepFunction:
    """The scalar integrand f_s: cellwise tr(s R_k^(1/2) F_k R_k^(1/2)).

    Items where the derivative is undefined (null items) contribute 0.
    """
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    if f.dim != nu.dim:
        raise DimMismatch(f"value dim {f.dim} vs measure dim {nu.dim}")
    s_mat = opcore.as_matrix(getattr(s, "matrix", s))
    if s_mat.shape[0] != nu.dim:
        raise DimMismatch(f"state dim {s_mat.shape[0]} vs measure dim {nu.dim}")
    dens = rn_derivative(nu, rho)
    defined = dens.defined
    roots = opcore.psd_roots(dens.values[defined])
    out = np.zeros(len(defined), dtype=np.complex128)
    out[defined] = np.einsum("ij,kji->k", s_mat, roots @ f.values[defined] @ roots)
    return ScalarStepFunction(nu.space, out)


def _value_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def ess_support(f: QuantumRandomVariable, nu: OVM) -> MeasurableSet:
    """Cells and atoms where f is nonzero modulo nu-null sets."""
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    # The MASS_TOL test is on the value F_k of f, not on nu, whose null
    # items are those OVM.massive marks False.
    live = (_value_norms(f.values) > MASS_TOL) & nu.massive
    return MeasurableSet(live[: nu.space.n_cells], live[nu.space.n_cells :])


def ess_range(f: QuantumRandomVariable, nu: OVM) -> list[np.ndarray]:
    """Distinct values attained on nonzero-mass cells/atoms.

    Exact for step functions: a value attained on positive mass has every
    neighborhood of nonzero measure, and no other operator does.
    Deduplicated under operator-norm distance DEDUP_TOL, first occurrence
    kept, cells before atoms.
    """
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    live = f.values[nu.massive]
    kept: list[int] = []
    for i, value in enumerate(live):
        if not kept or _value_norms(value - live[kept]).min() > DEDUP_TOL:
            kept.append(i)
    return list(live[kept])


def ess_sup(f: QuantumRandomVariable, nu: OVM) -> float:
    """sup of operator norms over the essential range (0 if a.e. zero).

    Also evaluated through the threshold formulation
    inf{M >= 0 : nu({||f|| > M}) = 0}; the two must agree.
    """
    values = ess_range(f, nu)
    by_range = max((opcore.op_norm(v) for v in values), default=0.0)
    live_norms = _value_norms(f.values)[nu.massive]
    by_threshold = float(live_norms.max()) if live_norms.size else 0.0
    if abs(by_range - by_threshold) > 1e-10 * max(1.0, by_threshold):
        raise NumericalFailure("essential supremum formulations disagree")
    return by_threshold


def ess_equal(f: QuantumRandomVariable, g: QuantumRandomVariable, nu: OVM) -> bool:
    """Equality in the L-infinity quotient: ess_sup(f - g) below tolerance."""
    gap = ess_sup(f - g, nu)
    return gap <= 1e-10 * max(1.0, ess_sup(f, nu), ess_sup(g, nu))
