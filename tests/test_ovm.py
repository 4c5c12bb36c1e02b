"""Measure representations: evaluation, induced/entry measures, axioms."""

import dataclasses

import numpy as np
import pytest

from helpers import random_state, signed_zero_masses, sum_in_item_order
from ovmkit import demos, errors, opcore, ovm
from ovmkit.models import (
    dyadic_state,
    harmonic_diag_model,
    lebesgue_identity,
    overlapping_measures,
    random_povm,
    rng_from_seed,
    single_atom_measure,
    singular_blocks,
    uhl_model,
)
from ovmkit.lyapunov import attain, joint_attain, kernel_witness
from ovmkit.qintegrate import QuantumRandomVariable, indicator, qrv
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
        assert space.breakpoints[1:3] == (0.25, 0.5)

    def test_bad_breakpoints(self):
        with pytest.raises(errors.InvalidInput):
            SampleSpace(0.0, 1.0, (0.0, 0.6, 0.4, 1.0))

    def test_duplicate_atoms(self):
        with pytest.raises(errors.InvalidInput):
            SampleSpace.uniform(2, atom_sites=(0.5, 0.5))


INTEGER_ARGUMENTS = {
    "kernel_witness support": lambda k: kernel_witness(random_povm(2, 6, RNG), [k, 1]),
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


def _matrix_json(d):
    return {"dim": d, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


# name: (call, an accepted value, rejected values)
TYPED_INPUTS = {
    "indicator dim": (lambda d: indicator(SampleSpace.uniform(2), d, MeasurableSet((True, False))),
                      2, (2.0, "2", True)),
    "matrix JSON dim": (lambda d: opcore.matrix_from_json(_matrix_json(d)),
                        2, (2.5, True, "2", 2.0)),
    "FractionalSet fraction": (lambda x: FractionalSet((0.25, x)),
                               np.float64(0.5), ("0.5", True, np.bool_(True), None)),
    "FractionalSet fractions": (FractionalSet, np.array([0.25, 1]),
                                (np.array([True, False]), np.array(["0.5"]), np.array([[0.5]]),
                                 ((0.5,),), 0.5)),
    "matrix JSON real entry": (
        lambda x: opcore.matrix_from_json({"dim": 1, "re": [[x]], "im": [[0.0]]}),
        0.5, ("0.5", " 0.25 ", True, False, None, [0.5])),
    "matrix JSON imaginary entry": (
        lambda x: opcore.matrix_from_json({"dim": 1, "re": [[0.5]], "im": [[x]]}),
        0, ("0", False, True)),
    "entry_measure row": (lambda i: entry_measure(lebesgue_identity(3, 2), i, 0),
                          np.int64(1), (0.5, True, -1, 2)),
    "from_indices atom index": (
        lambda k: MeasurableSet.from_indices(SampleSpace.uniform(1, atom_sites=(0.2, 0.5, 0.8)),
                                             atoms=[k]),
        2, (7, 3, -1, 1.0, True)),
    "uhl_demo cells": (demos.uhl_demo, 3, (2.9, "3", True)),
    "paper_example_13 levels": (demos.paper_example_13, 3, ("3", 3.0)),
    "singular_demo measures": (lambda n: demos.singular_demo(n, [0.5, 0.5]),
                               2, (2.9, "2", True)),
    "classical_demo measures": (lambda n: demos.classical_demo(n, 16, 1, 0),
                                2, (2.0, True, "2", 0, [], [1, 2])),
    "classical_demo trials": (lambda t: demos.classical_demo(2, 16, t, 0),
                              1, (2.5, "1", True, -1)),
    "rng_from_seed seed": (rng_from_seed, 3, (2.5, "3", True, -1)),
    "SampleSpace endpoint": (lambda a: SampleSpace(a, 2.0, (a, 1.5, 2.0)),
                             0, (True, "0", np.nan, -np.inf, None)),
    "SampleSpace breakpoint": (lambda x: SampleSpace(0.0, 1.0, (0.0, x, 1.0)),
                               np.float64(0.5), (np.nan, np.inf, True, "0.5", None)),
    "SampleSpace atom site": (lambda s: SampleSpace.uniform(2, atom_sites=(s,)),
                              0.5, (np.nan, True, "0.5")),
    "uniform interval start": (lambda a: SampleSpace.uniform(2, a, 1.0),
                               np.int64(0), ("0", True, None)),
    "space JSON coordinates": (
        lambda a: ovm.space_from_json({"a": a, "b": 2, "breakpoints": [a, 1.5, 2]}),
        0, (True, "0", float("nan"))),
    "lebesgue_identity dim": (lambda d: lebesgue_identity(4, d), 2, (2.0, True, "2", 0)),
    "random_povm dim": (lambda d: random_povm(d, 4, RNG), 2, (2.0, True, "2")),
    "harmonic_diag_model levels": (harmonic_diag_model, 3, (3.0, True, "3")),
    "uhl_model cells": (uhl_model, 3, ("3", 3.0, True, 1)),
    "dyadic_state levels": (dyadic_state, 3, (2.5, "3", True, -1)),
    "overlapping_measures count": (lambda n: overlapping_measures(n, 4, RNG),
                                   2, (2.0, "2", True, 0)),
    "single_atom_measure mass": (single_atom_measure, 0.5, ("x", True, None)),
    "singular_demo lambdas": (lambda x: demos.singular_demo(2, [0.5, x]),
                              0.5, (True, False, "0.5")),
    "singular_demo cells per block": (lambda c: demos.singular_demo(2, [0.5, 0.5], c),
                                      4, (True, 2.0, "4", 0)),
    "classical_demo targets": (
        lambda t: demos.classical_demo(2, 16, 0, 0, targets=[[0.1, t]]),
        0.2, ("0.2", True, None)),
    "classical_demo target entry": (
        lambda t: demos.classical_demo(2, 16, 0, 0, targets=[t]),
        [0.1, 0.2], (5, 0.1, "0.1", None)),
    "op_norm matrix": (opcore.op_norm, np.eye(2),
                       ("abc", [[1, 0], [0]], [[object()]], [["2", "0"], ["0", "1"]])),
    "make_state matrix": (opcore.make_state, np.eye(2) / 2, ([[object()]], "abc", [[1, 0], [0]])),
    "induced_measure state": (lambda r: induced_measure(lebesgue_identity(4, 2), r),
                              np.eye(2) / 2, ([[1, 0], [0]], "abc")),
    "grid_ovm masses": (lambda x: grid_ovm(SampleSpace.uniform(2), x),
                        np.ones((2, 1, 1)), ("abc", [[[1]], [[1, 2]]], [[[None]], [[1]]],
                                             [[["1"]], [["1"]]])),
    "attain target": (lambda t: attain(lebesgue_identity(4, 2), t),
                      np.eye(2) / 2, ("abc", [[1, 0], [0]], [["0.5", "0"], ["0", "0.5"]])),
    "joint_attain target": (lambda t: joint_attain([lebesgue_identity(4, 2)], [t]),
                            np.eye(2) / 2, ("x", [[1, 0], [0]])),
}


@pytest.mark.parametrize("call, good, bads", TYPED_INPUTS.values(), ids=TYPED_INPUTS.keys())
def test_typed_inputs_checked_not_coerced(call, good, bads):
    # An integer or real input of the wrong type, an index out of range, or
    # a non-numeric or ragged matrix is an InvalidInput: never a raw
    # TypeError, ValueError or IndexError, a truncated value, a parsed string
    # or a negative index counted from the end.
    call(good)
    for bad in bads:
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
    for bad in ((0.5, "no"), (True, 1), (np.int64(0), False), (None, True), "ab", 2,
                np.array([[True], [False]]), ((True,), (False,))):
        with pytest.raises(errors.InvalidInput):
            build(bad)


SET_VECTORS = {
    "MeasurableSet cell_mask": (lambda x: MeasurableSet(x, (False,)), "cell_mask", [True, False]),
    "MeasurableSet atom_mask": (lambda x: MeasurableSet((True,), x), "atom_mask", [False, True]),
    "FractionalSet cell_fractions": (lambda x: FractionalSet(x, (True,)), "cell_fractions",
                                     [0.25, 1.0]),
    "FractionalSet atom_mask": (lambda x: FractionalSet((0.5,), x), "atom_mask", [True, False]),
}


@pytest.mark.parametrize("build, name, values", SET_VECTORS.values(), ids=SET_VECTORS.keys())
def test_set_vectors_are_readonly_copies(build, name, values):
    # A set holds each vector as its own read-only bool or float array,
    # whatever sequence it was built from, and compares by value.
    source = np.array(values)
    e = build(source)
    vec = getattr(e, name)
    assert isinstance(vec, np.ndarray) and not vec.flags.writeable
    assert vec.dtype == (float if isinstance(values[0], float) else bool)
    source[:] = source[::-1]
    assert vec.tolist() == values
    assert e == build(tuple(values)) == build(values)
    assert e != build(values[::-1])
    with pytest.raises(TypeError):
        hash(e)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_set_function_adds_items_in_order(d):
    # evaluate and total_mass have the bits of adding the selected masses
    # one at a time, in item order, into zeros, -0.0 entries included, and
    # a direct sum repeats each component's bits in its block.  A pairwise
    # sum (np.add.reduce, np.sum) of the 1 x 1 masses rounds differently.
    rng = rng_from_seed(1700 + d)
    m = 12
    space = SampleSpace.uniform(m, atom_sites=(0.2, 0.5, 0.8))
    masses = signed_zero_masses(d, m + 3, rng)
    nu = grid_ovm(space, masses[:m], masses[m:])
    joint = direct_sum(nu, grid_ovm(space, masses[::-1][:m], masses[::-1][m:]))
    sets = [random_set(space, rng) for _ in range(40)] + [MeasurableSet.full(space)]
    for e in sets:
        chosen = space.selector(e)
        value = evaluate(nu, e)
        assert value.tobytes() == sum_in_item_order(nu.masses, chosen).tobytes()
        assert evaluate(joint, e).tobytes() == sum_in_item_order(joint.masses, chosen).tobytes()
        assert evaluate(joint, e)[:d, :d].tobytes() == value.tobytes()
    everything = np.ones(m + 3, dtype=bool)
    assert nu.total_mass().tobytes() == sum_in_item_order(nu.masses, everything).tobytes()


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
            assert e.intersection(f) == MeasurableSet.empty(nu.space)
            gap = evaluate(nu, e.union(f)) - evaluate(nu, e) - evaluate(nu, f)
            assert opcore.op_norm(gap) <= 1e-14 * max(1.0, scale)

    def test_monotone_and_contained_in_interval(self):
        nu = random_povm(3, 24, RNG)
        box = opcore.OperatorInterval(np.zeros((3, 3)), nu.total_mass())
        for _ in range(40):
            e = random_set(nu.space, RNG)
            f = e.union(random_set(nu.space, RNG))
            assert opcore.loewner_leq(evaluate(nu, e), evaluate(nu, f))
            assert box.contains(evaluate(nu, e))
            # Within 1e-10, tighter than the TOL_PSD of both checks.
            for gap in (evaluate(nu, e), evaluate(nu, f) - evaluate(nu, e),
                        nu.total_mass() - evaluate(nu, e)):
                assert np.linalg.eigvalsh(gap)[0] >= -1e-10


@pytest.mark.parametrize("method", ["intersection", "union"])
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
        assert h.cell_fractions.tolist() == [1.0, 0.0]
        with pytest.raises(errors.InvalidInput):
            FractionalSet((1.5,))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(errors.InvalidInput):
                FractionalSet((0.5, bad))


class TestInducedMeasure:
    def test_traces_must_match_the_space(self):
        # Three cells and no atoms: two traces, or three in a row of a
        # matrix, do not fit.
        for bad in ([0.5, 0.25], [[0.5, 0.25, 0.25]]):
            with pytest.raises(errors.ShapeMismatch):
                ovm.InducedMeasure(SampleSpace.uniform(3), bad)

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
        assert nu.space.breakpoints[last:] == (0.5, 1.0)
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
                    for val in entry_measure(nu, i, j).cells[nu.space.selector(e)]:
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

    def test_null_rule_relative_to_total_mass(self):
        # All of nu(X) = 1e-14 sits on one atom: below the absolute MASS_TOL,
        # but not null relative to ||nu(X)||.
        nu = single_atom_measure(1e-14)
        assert [site for site, _ in atoms(nu)] == [0.5]
        assert not is_nonatomic(nu)

    def test_zero_mass_atom_ignored(self):
        space = SampleSpace.uniform(2, atom_sites=(0.5,))
        nu = ovm.OVM(space, np.array([0.5, 0.5, 0.0]).reshape(3, 1, 1), "mixed")
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

    def test_layout_errors_are_typed(self):
        # Two cells and one atom: a wrong item count or matrix shape, a
        # scalar included, raises ShapeMismatch, and d = 0 InvalidInput.
        space = SampleSpace.uniform(2, atom_sites=(0.5,))
        builds = {grid_ovm: 2, atomic_ovm: 1, qrv: 2,
                  lambda s, x: ovm.OVM(s, x, "mixed"): 3, QuantumRandomVariable: 3}
        for build, count in builds.items():
            for bad in (5.0, np.zeros(3), np.zeros((4, 1, 1)), np.zeros((count, 2, 3))):
                with pytest.raises(errors.ShapeMismatch):
                    build(space, bad)
            with pytest.raises(errors.InvalidInput):
                build(space, np.zeros((count, 0, 0)))
        # Given both halves, each must hold its own item count: a right
        # total split wrongly between cells and atoms is rejected.
        for build in (grid_ovm, qrv):
            for cells, atoms in ((1, 2), (3, 0), (0, 3)):
                with pytest.raises(errors.ShapeMismatch):
                    build(space, np.zeros((cells, 2, 2)), np.zeros((atoms, 2, 2)))


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

    def test_one_item_stack(self):
        # Cells first, then atoms, in one read-only stack; the per-item
        # views and cached values all index into it.
        space = SampleSpace.uniform(2, atom_sites=(0.25, 0.5, 0.75))
        masses = np.array([0.25, 0.125, 0.5, 0.0, 0.125]).reshape(5, 1, 1)
        nu = grid_ovm(space, masses[:2], atom_masses=masses[2:])
        assert nu.masses.shape == (5, 1, 1) and not nu.masses.flags.writeable
        assert np.shares_memory(nu.cell_masses, nu.masses)
        assert np.shares_memory(nu.atom_masses, nu.masses)
        assert nu.norms.tolist() == [0.25, 0.125, 0.5, 0.0, 0.125]
        assert nu.norms[2:].tolist() == [0.5, 0.0, 0.125]
        assert nu.massive.tolist() == [True, True, True, False, True]
        assert nu.coords[:, 0].tolist() == [0.25, 0.125, 0.5, 0.0, 0.125]
        assert nu.cell_coords[:, 0].tolist() == [0.25, 0.125]
        assert [site for site, _ in atoms(nu)] == [0.25, 0.75]
        assert evaluate(nu, MeasurableSet((False, True), (False, True, True)))[0, 0] == 0.25
