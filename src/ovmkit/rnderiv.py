"""Radon-Nikodym derivatives of a POVM with respect to its induced measures.

At step resolution the derivative is the cellwise operator density
R_k = M_k / tr(rho M_k), defined exactly on the cells and atoms that are
not nu-null (OVM.massive).  Null ones stay undefined (None): null sets
carry no information under the L-infinity quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import DerivativeDoesNotExist, NotPositive
from .ovm import OVM, InducedMeasure, MeasurableSet, evaluate, induced_measure


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Cellwise operator density with its reference induced measure.

    ``cells[k]`` / ``atoms[k]`` is None exactly where nu is null
    (OVM.massive).
    """

    space: object
    dim: int
    cells: tuple
    atoms: tuple
    reference: InducedMeasure


def _reference(nu: OVM, rho) -> tuple[InducedMeasure, tuple[tuple[str, int], ...]]:
    """The induced measure nu_rho and the failures of rn_exists read off it."""
    if not nu.positive:
        raise NotPositive("derivative is defined for positive OVMs")
    ind = induced_measure(nu, rho)
    m = nu.space.n_cells
    blocked = np.flatnonzero(nu.massive & (ind.traces <= opcore.RANK_TOL * nu.norms))
    return ind, tuple(("cell", int(k)) if k < m else ("atom", int(k - m)) for k in blocked)


def rn_exists(nu: OVM, rho) -> tuple[bool, tuple[tuple[str, int], ...]]:
    """Whether the derivative exists, plus the failing cells/atoms.

    A cell or atom of nonzero mass whose induced trace falls below
    RANK_TOL times its norm blocks existence.  Always true for full-rank
    states in finite dimension.
    """
    failures = _reference(nu, rho)[1]
    return not failures, failures


def rn_derivative(nu: OVM, rho) -> StepDensity:
    """dnu/dnu_rho as a step density.

    Cellwise R_k = M_k / tr(rho M_k), which is entrywise the classical
    derivative of each entry measure; tr(rho R_k) = 1 on every defined
    cell.
    """
    ind, failures = _reference(nu, rho)
    if failures:
        raise DerivativeDoesNotExist(failures)
    defined = nu.massive
    rs = iter(opcore.readonly(nu.masses[defined] / ind.traces[defined, None, None], np.complex128))
    slots = tuple(next(rs) if k else None for k in defined)
    m = nu.space.n_cells
    return StepDensity(space=nu.space, dim=nu.dim, cells=slots[:m], atoms=slots[m:],
                       reference=ind)


def rn_consistency(nu: OVM, rho, sets: list[MeasurableSet]) -> float:
    """Max residual of the reconstruction nu_ij(E) = sum_E R_ij * nu_rho.

    Checked entrywise over every sampled set; propagates
    DerivativeDoesNotExist.
    """
    dens = rn_derivative(nu, rho)
    slots = dens.cells + dens.atoms
    traces = dens.reference.traces
    worst = 0.0
    for e in sets:
        lhs = evaluate(nu, e)
        rhs = np.zeros_like(lhs)
        for k in np.flatnonzero(nu.space.selector(e)):
            if slots[k] is not None:
                rhs += slots[k] * traces[k]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
