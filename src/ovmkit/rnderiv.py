"""Radon-Nikodym derivatives of a POVM with respect to its induced measures.

At step resolution the derivative is the cellwise operator density
R_k = M_k / tr(rho M_k), defined exactly on the cells and atoms that are
not nu-null (OVM.massive) and held as one m + n stack that is zero on the
others: null sets carry no information under the L-infinity quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import opcore
from .errors import DerivativeDoesNotExist, NotPositive
from .ovm import (OVM, InducedMeasure, MeasurableSet, SampleSpace, _as_list, _check_measure,
                  _set_masks, _set_values, induced_measure)


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Cellwise operator density with its reference induced measure.

    ``values`` is one read-only (m + n, d, d) stack over the reference's
    space, cells first, zero exactly where the density is undefined; a
    defined R_k has tr(rho R_k) = 1, so ``defined`` marks the nonzero
    items.  ``cells`` and ``atoms`` are tuples of the items with None
    where the density is undefined.
    """

    reference: InducedMeasure
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = self.space.item_stack(self.values, np.complex128, "values", matrices=True)
        object.__setattr__(self, "values", values)

    @property
    def space(self) -> SampleSpace:
        return self.reference.space

    @cached_property
    def defined(self) -> np.ndarray:
        """Per item: is the density defined (nonzero) there?  Read-only."""
        return opcore.readonly(self.values.any(axis=(-2, -1)), bool)

    @cached_property
    def _slots(self) -> tuple:
        return tuple(r if live else None for r, live in zip(self.values, self.defined))

    @property
    def cells(self) -> tuple:
        return self._slots[: self.space.n_cells]

    @property
    def atoms(self) -> tuple:
        return self._slots[self.space.n_cells :]


def _reference(nu: OVM, rho) -> tuple[InducedMeasure, tuple[tuple[str, int], ...]]:
    """The induced measure nu_rho and the failures of rn_exists read off it."""
    _check_measure(nu)
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
    derivative of each entry measure, on the massive items (OVM.massive)
    and zero on the rest; tr(rho R_k) = 1 on every defined item.
    """
    ind, failures = _reference(nu, rho)
    if failures:
        raise DerivativeDoesNotExist(failures)
    values = np.zeros_like(nu.masses)
    np.divide(nu.masses, ind.traces[:, None, None], out=values, where=nu.massive[:, None, None])
    return StepDensity(ind, values)


def rn_consistency(nu: OVM, rho, sets: list[MeasurableSet]) -> float:
    """Max residual of the reconstruction nu_ij(E) = sum_E R_ij * nu_rho.

    Checked entrywise over every sampled set, both sides of every set from
    one stacked evaluation each; propagates DerivativeDoesNotExist, and
    raises InvalidInput when ``sets`` is not a sequence of MeasurableSets.
    """
    dens = rn_derivative(nu, rho)
    pieces = dens.values * dens.reference.traces[:, None, None]
    picks = _set_masks(nu.space, _as_list(sets, "sets"))
    lhs = _set_values(nu.masses, picks)
    rhs = _set_values(pieces, picks & dens.defined)
    return float(np.abs(lhs - rhs).max(initial=0.0))
