"""Measure representations: evaluation, induced/entry measures, axioms."""

import dataclasses

import numpy as np
import pytest

from ovmkit import errors, opcore, ovm
from ovmkit.models import (
    harmonic_diag_model,
    lebesgue_identity,
    random_povm,
    random_state,
    rng_from_seed,
    single_atom_measure,
    singular_blocks,
    uhl_model,
)
from ovmkit.lyapunov import kernel_witness
from ovmkit.ovm import (
    FractionalSet,
    MeasurableSet,
    SampleSpace,
    abs_continuous,
    atomic_ovm,
    atoms,
    check_ovm_properties,
    direct_sum,
    entry_measure,
    evaluate,
    evaluate_fractional,
    grid_ovm,
    induced_measure,
    is_nonatomic,
)

RNG = rng_from_seed(414243)


def scalar_grid(masses, **kw):
    masses = np.asarray(masses, dtype=complex)[:, None, None]
    return grid_ovm(SampleSpace.uniform(len(masses), **kw), masses)


def random_set(space, rng):
    return MeasurableSet(
        tuple(bool(b) for b in rng.integers(0, 2, space.n_cells)),
        tuple(bool(b) for b in rng.integers(0, 2, space.n_atoms)),
    )


class TestSampleSpace:
    def test_uniform(self):
        space = SampleSpace.uniform(4)
        assert space.n_cells == 4
        assert np.allclose(space.weights, 0.25)
        assert space.cell_bounds(1) == (0.25, 0.5)

    def test_bad_breakpoints(self):
        with pytest.raises(errors.InvalidInput):
            SampleSpace(0.0, 1.0, (0.0, 0.6, 0.4, 1.0))

    def test_duplicate_atoms(self):
        with pytest.raises(errors.InvalidInput):
            SampleSpace.uniform(2, atom_sites=(0.5, 0.5))


INTEGER_ARGUMENTS = {
    "kernel_witness support": lambda k: kernel_witness(random_povm(2, 6, RNG), [k, 1]),
    "OVM dim": lambda k: ovm.OVM(SampleSpace.uniform(2), k, np.zeros((2, 2, 2)),
                                 np.zeros((0, 2, 2)), "grid"),
    "OVM JSON dim": lambda k: ovm.ovm_from_json(
        {"space": ovm.space_to_json(SampleSpace.uniform(2)), "dim": k}),
    "from_indices cells": lambda k: MeasurableSet.from_indices(SampleSpace.uniform(3), cells=[k]),
    "uniform cell count": lambda k: SampleSpace.uniform(k),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_checked_not_coerced(call):
    # numpy integers pass; a fractional or boolean value is an error, not
    # a truncated index, dimension or count.
    call(np.int64(2))
    for bad in (0.5, 1.5, 2.5, True):
        with pytest.raises(errors.InvalidInput):
            call(bad)


MASKS = {
    "MeasurableSet cell_mask": lambda mask: MeasurableSet(mask),
    "MeasurableSet atom_mask": lambda mask: MeasurableSet((), mask),
    "FractionalSet atom_mask": lambda mask: FractionalSet((), mask),
    "SampleSpace divisible": lambda mask: SampleSpace(0.0, 1.0, (0.0, 0.5, 1.0), divisible=mask),
}


@pytest.mark.parametrize("build", MASKS.values(), ids=MASKS.keys())
def test_mask_entries_checked_not_coerced(build):
    # Python and numpy bools pass; any other entry is an error, not a
    # truthiness test: (0.5, "no") would select both cells.
    assert build((True, np.bool_(False))) is not None
    assert build(np.array([False, True])) is not None
    for bad in ((0.5, "no"), (True, 1), (np.int64(0), False), (None, True), "ab", 2):
        with pytest.raises(errors.InvalidInput):
            build(bad)


class TestEvaluate:
    def test_empty_set(self):
        nu = lebesgue_identity(4, 2)
        assert np.array_equal(evaluate(nu, MeasurableSet.empty(nu.space)), np.zeros((2, 2)))

    def test_full_set_is_total_mass(self):
        nu = random_povm(3, 8, RNG)
        full = evaluate(nu, MeasurableSet.full(nu.space))
        assert np.array_equal(full, nu.total_mass())

    def test_weighted_indicator_model(self):
        # Width-weighted diagonal units: selecting cells 0 and 2 of three
        # gives diag(w0, 0, w2).
        nu = uhl_model(3, normalized=False)
        e = MeasurableSet.from_indices(nu.space, cells=[0, 2])
        w = nu.space.weights
        assert np.allclose(evaluate(nu, e), np.diag([w[0], 0.0, w[2]]), atol=1e-15)

    def test_mask_mismatch(self):
        nu = lebesgue_identity(4)
        with pytest.raises(errors.ShapeMismatch):
            evaluate(nu, MeasurableSet((True, False)))

    def test_additivity_exhaustive_dyadic(self):
        # Dyadic masses make float addition exact, so additivity over
        # disjoint pairs holds bit for bit; enumerate all 3^m splittings.
        m = 7
        masses = RNG.integers(1, 64, (m, 1, 1)).astype(complex) / 64.0
        nu = grid_ovm(SampleSpace.uniform(m), masses)
        for code in range(3**m):
            in_e, in_f = [], []
            rest = code
            for k in range(m):
                rest, slot = divmod(rest, 3)
                if slot == 1:
                    in_e.append(k)
                elif slot == 2:
                    in_f.append(k)
            e = MeasurableSet.from_indices(nu.space, cells=in_e)
            f = MeasurableSet.from_indices(nu.space, cells=in_f)
            assert e.is_disjoint(f)
            lhs = evaluate(nu, e.union(f))
            rhs = evaluate(nu, e) + evaluate(nu, f)
            assert np.array_equal(lhs, rhs)

    def test_additivity_random_masses(self):
        nu = random_povm(2, 64, RNG)
        scale = opcore.op_norm(nu.total_mass())
        for _ in range(50):
            e = random_set(nu.space, RNG)
            f = MeasurableSet(
                tuple((not a) and bool(RNG.integers(0, 2)) for a in e.cell_mask))
            assert e.is_disjoint(f)
            gap = evaluate(nu, e.union(f)) - evaluate(nu, e) - evaluate(nu, f)
            assert opcore.op_norm(gap) <= 1e-14 * max(1.0, scale)

    def test_monotone_and_contained_in_interval(self):
        nu = random_povm(3, 24, RNG)
        box = opcore.OperatorInterval(np.zeros((3, 3)), nu.total_mass())
        for _ in range(40):
            e = random_set(nu.space, RNG)
            f = e.union(random_set(nu.space, RNG))
            assert opcore.loewner_leq(evaluate(nu, e), evaluate(nu, f), 1e-10)
            assert box.contains(evaluate(nu, e), 1e-10)


@pytest.mark.parametrize("method", ["intersection", "union", "is_disjoint"])
def test_set_operation_rejects_masks_of_other_lengths(method):
    e = MeasurableSet((True, False, True), (False,))
    for other in (MeasurableSet((True, False), (False,)),
                  MeasurableSet((True, False, True), ())):
        with pytest.raises(errors.ShapeMismatch):
            getattr(e, method)(other)


class TestEvaluateFractional:
    def test_zero(self):
        nu = lebesgue_identity(4, 2)
        h = FractionalSet((0.0,) * 4)
        assert np.array_equal(evaluate_fractional(nu, h), np.zeros((2, 2)))

    def test_half_everywhere(self):
        nu = random_povm(2, 10, RNG)
        h = FractionalSet((0.5,) * 10)
        assert np.allclose(evaluate_fractional(nu, h), nu.total_mass() / 2, atol=1e-15)

    def test_alternating_quarters(self):
        nu = scalar_grid([0.25, 0.25, 0.25, 0.25])
        h = FractionalSet((1.0, 0.0, 1.0, 0.0))
        assert evaluate_fractional(nu, h)[0, 0] == 0.5

    def test_indicator_agrees_exactly(self):
        nu = random_povm(2, 16, RNG)
        e = random_set(nu.space, RNG)
        h = FractionalSet.from_measurable(e)
        assert np.array_equal(evaluate_fractional(nu, h), evaluate(nu, e))

    def test_clamping(self):
        h = FractionalSet((1.0 + 1e-13, -1e-13))
        assert h.cell_fractions == (1.0, 0.0)
        with pytest.raises(errors.InvalidInput):
            FractionalSet((1.5,))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(errors.InvalidInput):
                FractionalSet((0.5, bad))


class TestInducedMeasure:
    def test_probability_total(self):
        nu = random_povm(3, 12, RNG)
        rho = random_state(3, RNG)
        ind = induced_measure(nu, rho)
        assert ind.total == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_cell_density(self):
        # On the cell [1/2, 1] the induced mass is width * (2+1)/4, i.e.
        # density 3/4 relative to cell width and mass 3/8.
        nu, rho = harmonic_diag_model(8)
        ind = induced_measure(nu, rho)
        last = nu.space.n_cells - 1
        assert nu.space.cell_bounds(last) == (0.5, 1.0)
        assert ind.cells[last] == pytest.approx(3.0 / 8.0, abs=1e-15)
        assert ind.cells[last] / nu.space.weights[last] == pytest.approx(0.75, abs=1e-15)

    def test_projection_state_sees_one_block(self):
        mu = RNG.uniform(0.1, 1.0, 4)
        mu2 = RNG.uniform(0.1, 1.0, 4)
        masses = np.zeros((4, 2, 2), dtype=complex)
        masses[:, 0, 0] = mu
        masses[:, 1, 1] = mu2
        nu = grid_ovm(SampleSpace.uniform(4), masses)
        ind = induced_measure(nu, np.diag([1.0, 0.0]))
        assert np.allclose(ind.cells, mu)

    def test_commutes_with_evaluate(self):
        nu = random_povm(2, 20, RNG)
        rho = random_state(2, RNG)
        ind = induced_measure(nu, rho)
        for _ in range(25):
            e = random_set(nu.space, RNG)
            direct = opcore.trace_pair(rho.matrix, evaluate(nu, e)).real
            assert abs(direct - ind.of(e)) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            induced_measure(lebesgue_identity(4, 2), np.eye(3) / 3)


class TestEntryMeasure:
    def test_diagonal_entries_nonnegative(self):
        nu = random_povm(3, 10, RNG)
        for i in range(3):
            em = entry_measure(nu, i, i)
            assert np.all(em.cells.real >= -1e-12)
            assert np.all(np.abs(em.cells.imag) <= 1e-14)

    def test_diagonal_measure_off_entry_vanishes(self):
        masses = np.zeros((4, 2, 2), dtype=complex)
        masses[:, 0, 0] = 0.25
        masses[:, 1, 1] = 0.25
        nu = grid_ovm(SampleSpace.uniform(4), masses)
        em = entry_measure(nu, 0, 1)
        assert np.array_equal(em.cells, np.zeros(4))

    def test_conjugate_symmetry(self):
        nu = random_povm(3, 8, RNG)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(entry_measure(nu, i, j).cells,
                                      entry_measure(nu, j, i).cells.conj())

    def test_reconstruction_exact(self):
        nu = random_povm(2, 16, RNG)
        for _ in range(10):
            e = random_set(nu.space, RNG)
            rebuilt = np.zeros((2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    # Same left-to-right accumulation as evaluate: exact.
                    acc = 0j
                    for val in entry_measure(nu, i, j).cells[e.cells()]:
                        acc += val
                    rebuilt[i, j] = acc
            assert np.array_equal(rebuilt, evaluate(nu, e))

    def test_out_of_range(self):
        with pytest.raises(errors.InvalidInput):
            entry_measure(lebesgue_identity(4), 0, 1)


class TestAtoms:
    def test_pure_grid_nonatomic(self):
        nu = lebesgue_identity(8, 2)
        assert atoms(nu) == []
        assert is_nonatomic(nu)

    def test_single_atom(self):
        space = SampleSpace.uniform(1, atom_sites=(0.3,))
        nu = atomic_ovm(space, np.eye(2, dtype=complex)[None])
        found = atoms(nu)
        assert len(found) == 1 and found[0][0] == 0.3
        assert not is_nonatomic(nu)

    def test_indivisible_cells_are_atomic(self):
        # At fixed resolution the indicator-valued model has no divisible
        # cells, so it is not nonatomic even with empty atom list.
        nu = uhl_model(6)
        assert atoms(nu) == []
        assert not is_nonatomic(nu)

    def test_zero_mass_atom_ignored(self):
        space = SampleSpace.uniform(2, atom_sites=(0.5,))
        nu = ovm.OVM(space, 1, np.full((2, 1, 1), 0.5, dtype=complex),
                     np.zeros((1, 1, 1), dtype=complex), "mixed")
        assert atoms(nu) == []
        assert is_nonatomic(nu)


class TestProperties:
    def test_lebesgue_identity_not_spectral(self):
        # nu(E) nu(F) = |E||F| I differs from |E n F| I already at
        # E = F = half: 1/4 vs 1/2 (brute product check).
        nu = lebesgue_identity(4, 2)
        half = MeasurableSet.from_indices(nu.space, cells=[0, 1])
        lhs = evaluate(nu, half.intersection(half))
        rhs = evaluate(nu, half) @ evaluate(nu, half)
        assert opcore.op_norm(lhs - rhs) == pytest.approx(0.25, abs=1e-15)
        sets = [MeasurableSet.empty(nu.space), MeasurableSet.full(nu.space), half]
        report = check_ovm_properties(nu, sets)
        assert report.positive
        assert report.probability
        assert not report.spectral

    def test_indicator_model_spectral(self):
        nu = uhl_model(5)
        sets = [MeasurableSet.from_indices(nu.space, cells=c)
                for c in ([], [0], [1, 2], [0, 1, 2, 3, 4], [2, 4])]
        report = check_ovm_properties(nu, sets)
        assert report.spectral
        # A projection-valued report implies positivity.
        assert report.positive
        assert report.probability

    def test_random_povm_report(self):
        nu = random_povm(2, 6, RNG)
        sets = [MeasurableSet.empty(nu.space), MeasurableSet.full(nu.space)]
        report = check_ovm_properties(nu, sets)
        assert report.positive and report.probability

    def test_overflowing_products_are_typed(self):
        # Twice ||nu(X)||^2 overflows float64: a typed error, not a raw one.
        nu = single_atom_measure(1.34e154)
        sets = [MeasurableSet.empty(nu.space), MeasurableSet.full(nu.space)]
        with pytest.raises(errors.OvmError):
            check_ovm_properties(nu, sets)


class TestStackValidation:
    def test_first_non_hermitian_mass_named(self):
        masses = random_povm(2, 5, RNG).cell_masses.copy()
        masses[3, 0, 1] += 0.25
        with pytest.raises(errors.InvalidInput) as caught:
            grid_ovm(SampleSpace.uniform(5), masses)
        with pytest.raises(errors.InvalidInput) as single:
            opcore.hermitian(masses[3])
        assert str(caught.value) == str(single.value)

    def test_positive_flag_per_mass(self):
        masses = random_povm(3, 8, RNG).cell_masses.copy()
        assert grid_ovm(SampleSpace.uniform(8), masses).positive
        masses[5] = -masses[5]
        nu = grid_ovm(SampleSpace.uniform(8), masses)
        assert not nu.positive
        assert not check_ovm_properties(nu, [MeasurableSet.full(nu.space)]).positive

    def test_caller_masses_stay_writeable(self):
        masses = np.stack([np.eye(2, dtype=complex)] * 4) / 4
        nu = grid_ovm(SampleSpace.uniform(4), masses)
        masses[0, 0, 0] = 7.0
        assert nu.cell_masses[0, 0, 0] == 0.25
        assert not nu.cell_masses.flags.writeable


class TestAbsContinuous:
    def test_full_rank_mutual(self):
        nu = random_povm(3, 10, RNG)
        ind = induced_measure(nu, random_state(3, RNG))
        assert abs_continuous(nu, ind)
        assert abs_continuous(ind, nu)

    def test_disjoint_support(self):
        masses = np.zeros((4, 2, 2), dtype=complex)
        masses[:, 1, 1] = 0.25
        nu = grid_ovm(SampleSpace.uniform(4), masses)
        ind = induced_measure(nu, np.diag([1.0, 0.0]))  # sees nothing
        assert not abs_continuous(nu, ind)
        assert abs_continuous(ind, nu)

    def test_self(self):
        nu = random_povm(2, 6, RNG)
        assert abs_continuous(nu, nu)

    def test_space_mismatch(self):
        with pytest.raises(errors.SpaceMismatch):
            abs_continuous(lebesgue_identity(4), lebesgue_identity(5))


class TestDirectSum:
    def test_two_lebesgue_copies(self):
        nu = direct_sum(lebesgue_identity(4), lebesgue_identity(4))
        assert nu.dim == 2
        w = nu.space.weights
        for k in range(4):
            assert np.allclose(nu.cell_masses[k], w[k] * np.eye(2))

    def test_blockwise_evaluation(self):
        parts = [random_povm(2, 6, RNG), random_povm(1, 6, RNG, space=None)]
        space = parts[0].space
        parts[1] = grid_ovm(space, parts[1].cell_masses)
        nu = direct_sum(*parts)
        for _ in range(10):
            e = random_set(space, RNG)
            whole = evaluate(nu, e)
            assert np.array_equal(whole[:2, :2], evaluate(parts[0], e))
            assert np.array_equal(whole[2:, 2:], evaluate(parts[1], e))
            assert np.all(whole[:2, 2:] == 0)

    def test_singular_blocks_diagonal(self):
        mus = singular_blocks(3, cells_per_block=2)
        nu = direct_sum(*mus)
        assert nu.dim == 3
        assert is_nonatomic(nu)
        full = nu.total_mass()
        assert np.allclose(full, np.eye(3), atol=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(errors.SpaceMismatch):
            direct_sum(lebesgue_identity(4), lebesgue_identity(8))


class TestJson:
    def test_ovm_round_trip(self):
        space = SampleSpace.uniform(3, atom_sites=(0.25,))
        masses = np.stack([np.diag([w, 2 * w]).astype(complex) for w in space.weights])
        nu = grid_ovm(space, masses, atom_masses=np.eye(2, dtype=complex)[None] * 0.5)
        back = ovm.ovm_from_json(ovm.ovm_to_json(nu))
        assert back.space == nu.space
        assert np.array_equal(back.cell_masses, nu.cell_masses)
        assert np.array_equal(back.atom_masses, nu.atom_masses)
        assert back.variant == "mixed"

    def test_direct_sum_round_trip(self):
        nu = direct_sum(lebesgue_identity(4), lebesgue_identity(4, 2))
        back = ovm.ovm_from_json(ovm.ovm_to_json(nu))
        assert back.dim == 3
        assert np.array_equal(back.cell_masses, nu.cell_masses)

    def test_set_round_trip(self):
        space = SampleSpace.uniform(5, atom_sites=(0.1, 0.9))
        e = MeasurableSet.from_indices(space, cells=[1, 4], atoms=[1])
        obj = ovm.set_to_json(e)
        assert obj == {"cells": [1, 4], "atoms": [1]}
        assert ovm.set_from_json(space, obj) == e


class TestCachedValues:
    def test_cell_coords_and_total_norm(self):
        nu = random_povm(3, 7, rng_from_seed(515253))
        assert np.array_equal(nu.cell_coords, opcore.herm_coords(nu.cell_masses))
        assert nu.total_norm == opcore.op_norm(nu.total_mass())
        assert nu.cell_coords is nu.cell_coords
        with pytest.raises(ValueError):
            nu.cell_coords[0, 0] = 1.0
        for name in ("cell_coords", "total_norm"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(nu, name, 0.0)
