"""Radon-Nikodym derivatives of a POVM with respect to its induced measures.

At step resolution the derivative is the cellwise operator density
R_k = M_k / tr(rho M_k), defined exactly on cells and atoms of nonzero
induced mass.  Cells the induced measure does not see stay undefined
(None): null sets carry no information under the L-infinity quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import DerivativeDoesNotExist, NotPositive
from .ovm import MASS_TOL, OVM, InducedMeasure, MeasurableSet, evaluate, induced_measure


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Cellwise operator density with its reference induced measure.

    ``cells[k]`` / ``atoms[k]`` is None exactly where the reference
    measure vanishes.
    """

    space: object
    dim: int
    cells: tuple
    atoms: tuple
    reference: InducedMeasure

    def defined_cells(self) -> tuple[int, ...]:
        return tuple(k for k, r in enumerate(self.cells) if r is not None)


def _reference(nu: OVM, rho) -> tuple[InducedMeasure, tuple[tuple[str, int], ...]]:
    """The induced measure nu_rho and the failures of rn_exists read off it."""
    if not nu.positive:
        raise NotPositive("derivative is defined for positive OVMs")
    ind = induced_measure(nu, rho)
    failures = tuple(
        (kind, int(k))
        for kind, norms, traces in (("cell", nu.cell_norms(), ind.cells),
                                    ("atom", nu.atom_norms(), ind.atoms))
        for k in np.flatnonzero((norms > MASS_TOL) & (traces <= opcore.RANK_TOL * norms)))
    return ind, failures


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

    def density(masses, norms, traces):
        defined = (traces > MASS_TOL) | (norms > MASS_TOL)
        rs = iter(opcore.readonly(masses[defined] / traces[defined, None, None], np.complex128))
        return tuple(next(rs) if k else None for k in defined)

    return StepDensity(
        space=nu.space,
        dim=nu.dim,
        cells=density(nu.cell_masses, nu.cell_norms(), ind.cells),
        atoms=density(nu.atom_masses, nu.atom_norms(), ind.atoms),
        reference=ind,
    )


def rn_consistency(nu: OVM, rho, sets: list[MeasurableSet]) -> float:
    """Max residual of the reconstruction nu_ij(E) = sum_E R_ij * nu_rho.

    Checked entrywise over every sampled set; propagates
    DerivativeDoesNotExist.
    """
    dens = rn_derivative(nu, rho)
    ind = dens.reference
    worst = 0.0
    for e in sets:
        lhs = evaluate(nu, e)
        rhs = np.zeros_like(lhs)
        for k in np.flatnonzero(e.cells()):
            if dens.cells[k] is not None:
                rhs += dens.cells[k] * ind.cells[k]
        for k in np.flatnonzero(e.atoms()):
            if dens.atoms[k] is not None:
                rhs += dens.atoms[k] * ind.atoms[k]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
