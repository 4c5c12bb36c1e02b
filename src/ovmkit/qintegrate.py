"""Quantum random variables as matrix-valued step functions, and their
integration against a positive operator-valued measure.

The integral of f against nu contributes M_k^(1/2) F_k M_k^(1/2) per cell:
on a cell where the operator density is M_k / tr(rho M_k) and the induced
mass is tr(rho M_k), the defining identity tr(s * integral) = integral of
f_s against nu_rho forces exactly that conjugation, independent of rho.

Essential support, range, and supremum are computed up to nu-null cells
(OVM.massive), with operator-norm balls as the neighborhood system; for
step functions these notions are exact, and tolerances only absorb
round-off, each relative to one scale, ess_sup f, as OVM.massive is to
||nu(X)||: the verdicts on c f are those on f for every c > 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import DerivativeDoesNotExist, DimMismatch, InvalidInput, ShapeMismatch, Unsupported
from .opcore import DEDUP_TOL, MASS_TOL, NORM_SLACK
from .ovm import (OVM, MeasurableSet, SampleSpace, _check_space, _zero_masses, item_views,
                  join_items)
from .rnderiv import _reference


@dataclass(frozen=True, eq=False)
class QuantumRandomVariable:
    """Matrix-valued step function: one (m + n, d, d) stack ``values``, the
    cell values then the atom values, validated once and kept read-only.
    ``dim``, ``self_adjoint`` and ``positive`` are derived from it, and
    ``cell_values`` and ``atom_values`` are views of it.  ``norms``, the
    read-only operator norms of the m + n values (opcore.op_norms, bit for
    bit, as OVM.norms), comes from the validation's one decomposition of
    each distinct value (opcore._step_verdicts)."""

    space: SampleSpace
    values: np.ndarray = field(repr=False)
    dim: int = field(init=False)
    self_adjoint: bool = field(init=False)
    positive: bool = field(init=False)
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = self.space.item_stack(self.values, np.complex128, "values", matrices=True)
        self_adjoint, positive, norms = opcore._step_verdicts(opcore.as_stack(values))
        norms.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dim", values.shape[-1])
        object.__setattr__(self, "self_adjoint", self_adjoint)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "norms", norms)

    cell_values, atom_values = item_views("values")

    def __add__(self, other):
        _check_same(self, other)
        return QuantumRandomVariable(self.space, self.values + other.values)

    def __sub__(self, other):
        _check_same(self, other)
        return QuantumRandomVariable(self.space, self.values - other.values)

    def __mul__(self, scalar):
        if isinstance(scalar, bool) or not isinstance(scalar, numbers.Number):
            raise InvalidInput(f"a step function scales by a number, not {scalar!r}")
        return QuantumRandomVariable(self.space, scalar * self.values)

    __rmul__ = __mul__


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
    if not isinstance(g, QuantumRandomVariable):
        raise InvalidInput(f"expected a QuantumRandomVariable, got {g!r}")
    if f.space != g.space or f.dim != g.dim:
        raise ShapeMismatch("step functions live on different layouts")


def _check_pair(f: QuantumRandomVariable, nu: OVM):
    if not (isinstance(f, QuantumRandomVariable) and isinstance(nu, OVM)):
        raise InvalidInput("expected a QuantumRandomVariable and an OVM")
    if f.space != nu.space:
        raise ShapeMismatch("step function and measure live on different spaces")
    if f.dim != nu.dim:
        raise DimMismatch(f"value dim {f.dim} vs measure dim {nu.dim}")


def qrv(space: SampleSpace, cell_values, atom_values=None) -> QuantumRandomVariable:
    """The step function with these cell values and atom values (zero if None)."""
    return QuantumRandomVariable(space, join_items(space, cell_values, atom_values))


def indicator(space: SampleSpace, dim: int, e: MeasurableSet) -> QuantumRandomVariable:
    """chi_E * I: the identity on E, zero elsewhere.  The (m + n, dim, dim)
    stack is sized before it is allocated (opcore.within_stack_limit)."""
    _check_space(space)
    dim = opcore.as_int(dim, "dimension", low=1)
    values = _zero_masses(space.n_cells + space.n_atoms, dim)
    values[space.mask(e)] = np.eye(dim)
    return QuantumRandomVariable(space, values)


def integrate(nu: OVM, f: QuantumRandomVariable) -> np.ndarray:
    """Quantum expected value: sum_k M_k^(1/2) F_k M_k^(1/2) plus atoms.

    Hermitian (and PSD) output for self-adjoint (positive) f.  The measure's
    PSD verdict is the one taken at its build (OVM.positive), and the roots
    its kept ones.  The tests check it against the four-part split through
    positive/negative and real/imaginary parts.
    """
    _check_pair(f, nu)
    if not nu.positive:
        raise Unsupported("integration is defined against positive OVMs")
    roots = nu._roots
    out = np.zeros((nu.dim, nu.dim), dtype=np.complex128)
    out += np.add.reduce(roots @ f.values @ roots, axis=0)  # into zeros: no entry reads -0.0
    if f.self_adjoint:
        out = (out + out.conj().T) / 2
    return out


def integrand_fs(f: QuantumRandomVariable, s, nu: OVM, rho) -> ScalarStepFunction:
    """The scalar integrand f_s: cellwise tr(s R_k^(1/2) F_k R_k^(1/2)).

    Null items contribute 0, and its errors are rn_derivative's.  With
    t_k = tr(rho M_k) > 0 the density R_k = M_k / t_k has the root
    M_k^(1/2) / sqrt(t_k), so f_s(k) = tr(s M_k^(1/2) F_k M_k^(1/2)) / t_k,
    read from the measure's kept roots.
    """
    _check_pair(f, nu)
    s_mat = opcore.as_matrix(getattr(s, "matrix", s))
    if s_mat.shape[0] != nu.dim:
        raise DimMismatch(f"state dim {s_mat.shape[0]} vs measure dim {nu.dim}")
    ind, failures = _reference(nu, rho)
    if failures:
        raise DerivativeDoesNotExist(failures)
    defined = nu.massive
    traces = ind.traces[defined]
    roots = nu._roots[defined]
    out = np.zeros(len(defined), dtype=np.complex128)
    out[defined] = np.einsum("ij,kji->k", s_mat, roots @ f.values[defined] @ roots) / traces
    return ScalarStepFunction(nu.space, out)


def _sup_norm(f: QuantumRandomVariable, nu: OVM) -> float:
    # ess_sup f, the scale of every essential tolerance; the others read it here,
    # not through ess_sup, so that a wrapped ess_sup counts only callers' requests.
    _check_pair(f, nu)
    return float(f.norms[nu.massive].max(initial=0.0))


def ess_support(f: QuantumRandomVariable, nu: OVM) -> MeasurableSet:
    """Cells and atoms where f is nonzero modulo nu-null sets."""
    # The MASS_TOL test is on the value F_k of f against ess_sup f, not on
    # nu, whose null items are those OVM.massive marks False.
    cut = MASS_TOL * _sup_norm(f, nu)
    live = (f.norms > cut) & nu.massive
    return MeasurableSet(live[: nu.space.n_cells], live[nu.space.n_cells :])


def _first_copies(flat: np.ndarray) -> np.ndarray:
    """Ascending first index of each distinct finite row: + 0.0 reads -0.0 as 0.0, so
    equal rows are equal void keys, and return_index's stable sort keeps the lowest."""
    keys = (flat + 0.0).view(np.dtype((np.void, flat.itemsize * flat.shape[1])))
    return np.sort(np.unique(keys, return_index=True)[1])


def ess_range(f: QuantumRandomVariable, nu: OVM) -> list[np.ndarray]:
    """Distinct values attained on nonzero-mass cells/atoms.

    Exact for step functions: a value attained on positive mass has every
    neighborhood of nonzero measure, and no other operator does.
    Deduplicated under operator-norm distance tol = DEDUP_TOL ess_sup(f), cells
    before atoms: a live value is kept when it lies farther than tol from every
    value kept before it.  The output equals that greedy first-occurrence dedup
    bit for bit, but only pairs within sqrt(d) tol along one fixed projection get
    an operator norm: O(m log m) for m values, and O(m^2) at worst, when many
    values share one projection but differ elsewhere.  Exact copies go first,
    by one sort of a byte key per value (_first_copies): 0.3 ms at d = 4, m = 1000.
    """
    tol = DEDUP_TOL * _sup_norm(f, nu)
    live = f.values[nu.massive]
    flat = live.reshape(len(live), f.dim**2)
    # A copy of a kept value is within 0 of it, a copy of a dropped one within
    # tol of the kept value that dropped it: the greedy drops both.
    first = _first_copies(flat)
    coords = flat[first].view(np.float64)
    u = np.sin(np.arange(1.0, coords.shape[1] + 1.0))  # any fixed direction will do
    proj = coords @ u / np.linalg.norm(u)
    # ||A - B||_op <= tol gives |<u, A - B>| <= ||A - B||_F <= sqrt(d) tol.
    # Rounding: n eps |u|.|x| <= n^1.5 eps M per projection (n coordinates, the largest
    # M), eps (|p| + reach) at the window's end; 1 + NORM_SLACK holds the norms' few eps.
    slack = 4 * u.size**1.5 * np.finfo(float).eps * np.abs(coords).max(initial=0.0)
    reach = np.sqrt(f.dim) * tol * (1 + NORM_SLACK) + slack
    order = np.argsort(proj)
    width = np.searchsorted(proj[order], proj[order] + reach, side="right")
    width -= np.arange(1, len(order) + 1)  # partners after each sorted position
    lo = np.repeat(np.arange(len(order)), width)
    hi = lo + 1 + np.arange(len(lo)) - np.repeat(np.cumsum(width) - width, width)
    earlier, later = np.minimum(order[lo], order[hi]), np.maximum(order[lo], order[hi])
    # later - earlier is the greedy's own difference, normed alone: the greedy's bits.
    close = opcore.op_norms(live[first[later]] - live[first[earlier]]) <= tol
    dropped = np.zeros(len(first), dtype=bool)
    for i, j in sorted(zip(later[close].tolist(), earlier[close].tolist())):
        dropped[i] |= not dropped[j]  # j < i is final: its own pairs came first
    return list(live[first[~dropped]])


def ess_sup(f: QuantumRandomVariable, nu: OVM) -> float:
    """ess sup f = inf{M >= 0 : nu(||f|| > M) = 0}, the paper's essential
    bound: for a step function, the largest operator norm over the massive
    items (0 if f is zero almost everywhere)."""
    return _sup_norm(f, nu)


def ess_equal(f: QuantumRandomVariable, g: QuantumRandomVariable, nu: OVM) -> bool:
    """Equality in the L^inf quotient: ess_sup(f - g) <= DEDUP_TOL max(ess_sup f, ess_sup g)."""
    scale = _sup_norm(f, nu)  # checks f before f - g is formed
    return _sup_norm(f - g, nu) <= DEDUP_TOL * max(scale, _sup_norm(g, nu))
