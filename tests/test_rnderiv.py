"""Operator densities with respect to induced measures."""

import numpy as np
import pytest

from helpers import random_state, signed_zero_masses, sum_in_item_order, trace_pair
from ovmkit import errors, opcore
from ovmkit.models import (
    harmonic_diag_model,
    lebesgue_identity,
    random_povm,
    rng_from_seed,
)
from ovmkit.ovm import (
    MeasurableSet,
    SampleSpace,
    direct_sum,
    entry_measure,
    grid_ovm,
    induced_measure,
)
from ovmkit.rnderiv import StepDensity, rn_consistency, rn_derivative, rn_exists


def density_to_json(dens: StepDensity) -> dict:
    return {
        "cells": [None if r is None else opcore.matrix_to_json(r) for r in dens.cells],
        "atoms": [None if r is None else opcore.matrix_to_json(r) for r in dens.atoms],
    }


RNG = rng_from_seed(515253)


def all_cell_sets(space):
    m = space.n_cells
    return [MeasurableSet(tuple(bool(idx >> k & 1) for k in range(m)),
                          (False,) * space.n_atoms)
            for idx in range(1 << m)]


class TestDerivative:
    def test_harmonic_model_level_one(self):
        # Cell [1/2, 1]: density entries (1,1) and (0,0) both 4/3.
        nu, rho = harmonic_diag_model(8)
        dens = rn_derivative(nu, rho)
        last = nu.space.n_cells - 1
        r = dens.cells[last]
        assert r[1, 1].real == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert r[0, 0].real == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_lebesgue_identity_gives_identity(self):
        nu = lebesgue_identity(6, 2)
        dens = rn_derivative(nu, np.eye(2) / 2)
        for r in dens.cells:
            assert np.allclose(r, np.eye(2), atol=1e-14)

    def test_orthogonal_state_fails(self):
        masses = np.zeros((4, 2, 2), dtype=complex)
        masses[:, 1, 1] = 0.25
        nu = grid_ovm(SampleSpace.uniform(4), masses)
        with pytest.raises(errors.DerivativeDoesNotExist) as err:
            rn_derivative(nu, np.diag([1.0, 0.0]))
        assert ("cell", 0) in err.value.failures

    def test_zero_mass_cells_undefined(self):
        masses = np.zeros((3, 1, 1), dtype=complex)
        masses[0, 0, 0] = 1.0
        nu = grid_ovm(SampleSpace.uniform(3), masses)
        dens = rn_derivative(nu, np.eye(1))
        assert dens.cells[0] is not None
        assert dens.cells[1] is None and dens.cells[2] is None

    def test_density_is_one_stack(self):
        # One read-only m + n stack, zero exactly on the null items; defined
        # is nu.massive, and cells and atoms show None exactly there.
        space = SampleSpace.uniform(9, atom_sites=(0.25, 0.75))
        masses = signed_zero_masses(2, 11, RNG)
        masses[[2, 9]] = 0.0
        nu = grid_ovm(space, masses[:9], masses[9:])
        dens = rn_derivative(nu, random_state(2, RNG))
        assert not dens.values.flags.writeable and not dens.defined.flags.writeable
        assert dens.values.shape == (11, 2, 2) and dens.space == space
        assert np.array_equal(dens.defined, nu.massive)
        assert nu.massive.tolist() == [k not in (2, 9, 10) for k in range(11)]
        assert not dens.values[~nu.massive].any()
        slots = dens.cells + dens.atoms
        assert len(dens.cells) == 9 and len(dens.atoms) == 2
        for k, live in enumerate(nu.massive):
            assert (slots[k] is None) != live
            if live:
                assert np.array_equal(slots[k], dens.values[k])
        with pytest.raises(errors.ShapeMismatch):
            StepDensity(dens.reference, dens.values[:10])


class TestAtomDensity:
    def test_atom_normalization(self):
        # Two cells, then two massive atoms around a null one: each defined
        # density has tr(rho R) = 1, and only the null atom is undefined.
        space = SampleSpace.uniform(2, atom_sites=(0.25, 0.5, 0.75))
        masses = np.zeros((5, 2, 2), dtype=complex)
        masses[:, 0, 0] = [0.125, 0.25, 0.375, 0.0, 0.25]
        masses[:, 1, 1] = [0.25, 0.125, 0.5, 0.0, 0.125]
        nu = grid_ovm(space, masses[:2], atom_masses=masses[2:])
        rho = np.diag([0.75, 0.25])
        dens = rn_derivative(nu, rho)
        traces = masses[:, 0, 0].real * 0.75 + masses[:, 1, 1].real * 0.25
        assert dens.reference.cells.tolist() == pytest.approx(traces[:2])
        assert dens.reference.atoms.tolist() == pytest.approx(traces[2:])
        slots = dens.cells + dens.atoms
        assert len(dens.cells) == 2 and len(dens.atoms) == 3 and dens.atoms[1] is None
        for k in (0, 1, 2, 4):
            assert np.allclose(slots[k], masses[k] / traces[k], atol=1e-15)
            assert trace_pair(rho, slots[k]).real == pytest.approx(1.0)
        sets = [MeasurableSet((x, not x), (True, y, not y))
                for x in (False, True) for y in (False, True)]
        assert rn_consistency(nu, rho, sets) <= 1e-15

    def test_orthogonal_atom_listed(self):
        space = SampleSpace.uniform(1, atom_sites=(0.5,))
        cells = np.zeros((1, 2, 2), dtype=complex)
        cells[0, 0, 0] = 1.0
        atom = np.zeros((1, 2, 2), dtype=complex)
        atom[0, 1, 1] = 1.0
        nu = grid_ovm(space, cells, atom_masses=atom)
        ok, failures = rn_exists(nu, np.diag([1.0, 0.0]))
        assert not ok and failures == (("atom", 0),)


class TestExists:
    def test_full_rank_always_exists(self):
        nu = random_povm(3, 12, RNG)
        rho = random_state(3, RNG)
        ok, failures = rn_exists(nu, rho)
        assert ok and failures == ()

    def test_rank_deficient_lists_cells(self):
        masses = np.zeros((2, 2, 2), dtype=complex)
        masses[:, 1, 1] = 0.5
        nu = grid_ovm(SampleSpace.uniform(2), masses)
        ok, failures = rn_exists(nu, np.diag([1.0, 0.0]))
        assert not ok
        assert failures == (("cell", 0), ("cell", 1))

    def test_zero_measure_vacuous(self):
        nu = grid_ovm(SampleSpace.uniform(2), np.zeros((2, 1, 1), dtype=complex))
        ok, failures = rn_exists(nu, np.eye(1))
        assert ok and failures == ()


class TestNormalizationAndReweighting:
    def test_unit_trace_per_cell(self):
        nu = random_povm(3, 16, RNG)
        rho = random_state(3, RNG)
        dens = rn_derivative(nu, rho)
        for r in dens.cells:
            if r is not None:
                assert trace_pair(rho.matrix, r).real == pytest.approx(1.0, abs=1e-12)
                assert opcore.psd_check(r)

    def test_reweighting_identity(self):
        nu = random_povm(2, 12, RNG)
        rho = random_state(2, RNG)
        dens = rn_derivative(nu, rho)
        ind = dens.reference
        for k, r in enumerate(dens.cells):
            if r is None:
                continue
            back = r * ind.cells[k]
            scale = max(1.0, opcore.op_norm(nu.cell_masses[k]))
            assert opcore.op_norm(back - nu.cell_masses[k]) <= 1e-14 * scale

    def test_two_states_scale_relation(self):
        nu = random_povm(2, 10, RNG)
        rho1, rho2 = random_state(2, RNG), random_state(2, RNG)
        d1 = rn_derivative(nu, rho1)
        d2 = rn_derivative(nu, rho2)
        for k in (k for k, r in enumerate(d1.cells) if r is not None):
            ratio = d1.reference.cells[k] / d2.reference.cells[k]
            assert np.allclose(d2.cells[k], d1.cells[k] * ratio, atol=1e-12)


class TestConsistency:
    def test_cell_algebra_identity(self):
        nu = random_povm(2, 8, RNG)
        rho = random_state(2, RNG)
        resid = rn_consistency(nu, rho, all_cell_sets(nu.space))
        assert resid <= 1e-12 * opcore.op_norm(nu.total_mass())

    def test_empty_set_contributes_nothing(self):
        nu = random_povm(2, 8, RNG)
        rho = random_state(2, RNG)
        assert rn_consistency(nu, rho, [MeasurableSet.empty(nu.space)]) == 0.0

    def test_random_instance_direct_summation_oracle(self):
        # Independently recompute both sides of the entrywise identity
        # by direct sums over entry measures and induced masses.
        nu = random_povm(3, 32, RNG)
        rho = random_state(3, RNG)
        sets = [MeasurableSet(tuple(bool(b) for b in RNG.integers(0, 2, 32)))
                for _ in range(20)]
        dens = rn_derivative(nu, rho)
        ind = induced_measure(nu, rho)
        worst = 0.0
        for e in sets:
            chosen = list(np.flatnonzero(nu.space.selector(e)))
            for i in range(3):
                for j in range(3):
                    lhs = entry_measure(nu, i, j).cells[chosen].sum()
                    rhs = sum(dens.cells[k][i, j] * ind.cells[k] for k in chosen)
                    worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-11
        assert rn_consistency(nu, rho, sets) <= 1e-11

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_reconstruction_adds_items_in_order(self, d):
        # The same items in the same order as adding R_k tr(rho M_k) one at a
        # time into zeros, over the defined items of each set, -0.0 entries
        # and a direct sum included: the residual has the same bits.
        rng = rng_from_seed(1710 + d)
        m = 12
        space = SampleSpace.uniform(m, atom_sites=(0.2, 0.5, 0.8))
        masses = signed_zero_masses(d, m + 3, rng)
        nu = grid_ovm(space, masses[:m], masses[m:])
        sets = [MeasurableSet(tuple(rng.integers(0, 2, m) == 1), tuple(rng.integers(0, 2, 3) == 1))
                for _ in range(40)] + [MeasurableSet.full(space)]
        for measure in (nu, direct_sum(nu, nu)):
            rho = random_state(measure.dim, rng)
            dens = rn_derivative(measure, rho)
            pieces = np.array([r * t for r, t in zip(dens.values, dens.reference.traces)])
            worst = 0.0
            for e in sets:
                chosen = space.selector(e)
                lhs = sum_in_item_order(measure.masses, chosen)
                rhs = sum_in_item_order(pieces, chosen & dens.defined)
                worst = max(worst, float(np.abs(lhs - rhs).max()))
            assert rn_consistency(measure, rho, sets) == worst

    def test_propagates_nonexistence(self):
        masses = np.zeros((2, 2, 2), dtype=complex)
        masses[:, 1, 1] = 0.5
        nu = grid_ovm(SampleSpace.uniform(2), masses)
        with pytest.raises(errors.DerivativeDoesNotExist):
            rn_consistency(nu, np.diag([1.0, 0.0]), all_cell_sets(nu.space))


class TestJson:
    def test_nulls_for_undefined_cells(self):
        masses = np.zeros((2, 1, 1), dtype=complex)
        masses[0, 0, 0] = 0.5
        nu = grid_ovm(SampleSpace.uniform(2), masses)
        dens = rn_derivative(nu, np.eye(1))
        obj = density_to_json(dens)
        assert obj["cells"][1] is None
        # R = M / tr(rho M) = 0.5 / 0.5 on the massive cell.
        assert obj["cells"][0]["re"] == [[1.0]]
