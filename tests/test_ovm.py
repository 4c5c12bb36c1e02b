"""Measure representations: evaluation, induced/entry measures, axioms."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import (
    OperatorInterval,
    count_decompositions,
    properties_pair_by_pair,
    random_state,
    signed_zero_masses,
    spectral_tol,
    sum_in_item_order,
    trace_pair,
)
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
from ovmkit.lyapunov import (attain, convex_combine, convexity_certificate, joint_attain,
                              kernel_witness, purify)
from ovmkit.qintegrate import (
    QuantumRandomVariable,
    ess_equal,
    ess_range,
    ess_sup,
    ess_support,
    indicator,
    integrate,
    qrv,
)
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
from ovmkit.rnderiv import rn_consistency, rn_derivative, rn_exists

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


_HALF = MeasurableSet((True, False))
_CHI = indicator(SampleSpace.uniform(2), 2, _HALF)

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
    "kernel_witness support": (lambda s: kernel_witness(random_povm(2, 6, RNG), s),
                               range(6), (5, None, np.int64(2), [[0, 1]])),
    "indicator set": (lambda e: indicator(SampleSpace.uniform(2), 2, e), _HALF,
                      (FractionalSet((0.5, 0.5)), None, 1)),
    "InducedMeasure.of set": (
        lambda e: induced_measure(lebesgue_identity(2, 2), np.eye(2) / 2).of(e), _HALF,
        (FractionalSet((0.5, 0.5)), FractionalSet((1.0, 0.0)), None)),
    "evaluate set": (lambda e: evaluate(lebesgue_identity(2, 2), e), _HALF,
                     (FractionalSet((1.0, 0.0)), None, (True, False), 1)),
    "convex_combine set": (lambda e: convex_combine(lebesgue_identity(2, 2), e, _HALF, 0.5),
                           MeasurableSet((False, True)), (FractionalSet((0.0, 1.0)), None)),
    "purify set": (lambda h: purify(lebesgue_identity(2, 2), h), FractionalSet((0.5, 0.5)),
                   (None, (0.5, 0.5), 1)),
    "rn_consistency sets": (lambda sets: rn_consistency(lebesgue_identity(2, 2), np.eye(2) / 2,
                                                        sets),
                            [_HALF], ([1], [None], [FractionalSet((1.0, 0.0))])),
    "check_ovm_properties sets": (lambda sets: check_ovm_properties(lebesgue_identity(2, 2), sets),
                                  [_HALF], ([1], [FractionalSet((1.0, 0.0))])),
    "convexity_certificate measure": (lambda nu: convexity_certificate(nu, 3, 1),
                                      lebesgue_identity(4, 2), (None, "x", np.eye(2))),
    "convex_combine measure": (lambda nu: convex_combine(nu, _HALF, _HALF, 0.5),
                               lebesgue_identity(2, 2), (None, "x")),
    "attain measure": (lambda nu: attain(nu, np.eye(2) / 2), lebesgue_identity(2, 2),
                       (None, "x")),
    "atoms measure": (atoms, lebesgue_identity(2, 2), (None, "x")),
    "is_nonatomic measure": (is_nonatomic, lebesgue_identity(2, 2), (None, "x")),
    "rn_derivative measure": (lambda nu: rn_derivative(nu, np.eye(2) / 2),
                              lebesgue_identity(2, 2), (None, "x")),
    "rn_exists measure": (lambda nu: rn_exists(nu, np.eye(2) / 2), lebesgue_identity(2, 2),
                          (None, "x")),
    "check_ovm_properties set sequence": (
        lambda sets: check_ovm_properties(lebesgue_identity(2, 2), sets), [_HALF], (None, 3)),
    "rn_consistency set sequence": (
        lambda sets: rn_consistency(lebesgue_identity(2, 2), np.eye(2) / 2, sets), [_HALF],
        (None, 3)),
    "integrate step function": (lambda f: integrate(lebesgue_identity(2, 2), f), _CHI,
                                (None, np.eye(2), lebesgue_identity(2, 2))),
    "ess_range step function": (lambda f: ess_range(f, lebesgue_identity(2, 2)), _CHI,
                                (None, "x")),
    "ess_support step function": (lambda f: ess_support(f, lebesgue_identity(2, 2)), _CHI,
                                  (None, "x", 5)),
    "ess_sup measure": (lambda nu: ess_sup(_CHI, nu), lebesgue_identity(2, 2), (None, _CHI)),
    "ess_equal step function": (lambda g: ess_equal(_CHI, g, lebesgue_identity(2, 2)), _CHI,
                                (None, 0.0)),
    "ess_equal first step function": (lambda f: ess_equal(f, _CHI, lebesgue_identity(2, 2)),
                                      _CHI, (None, "x", 5)),
    "step function sum": (lambda g: _CHI + g, _CHI, (3, None, np.eye(2))),
    "step function scalar": (lambda c: c * _CHI, 2.0 - 1.0j, ("a", None, [1.0], True)),
    "direct_sum component": (lambda o: direct_sum(lebesgue_identity(2, 2), o),
                             lebesgue_identity(2, 1), ("x", None)),
    "coords_to_herm vector": (opcore.coords_to_herm, [1.0, 0.0, 0.0, 1.0],
                              ("x", [[1, 2], [3, 4]], ["1", "0", "0", "1"], [True, 0, 0, 1])),
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


def _stack_cases(d, rng):
    """Measures with K = m + n items from 1 to 2000: masses over six orders
    of magnitude with -0.0 entries and a null last item."""
    for m, n in ((1, 0), (2, 0), (5, 2), (8, 0), (9, 3), (64, 2), (333, 3), (1997, 3)):
        space = SampleSpace.uniform(m, atom_sites=tuple(np.linspace(0.1, 0.9, n)))
        masses = signed_zero_masses(d, m + n, rng)
        yield grid_ovm(space, masses[:m], masses[m:] if n else None)


def _stack_rows(space, rng):
    """Sets and fractional sets on ``space``: random, empty, whole, single
    atoms, fractions with whole cells among them and all-0/1 fractions."""
    m, n = space.n_cells, space.n_atoms
    sets = [random_set(space, rng) for _ in range(6)]
    sets += [MeasurableSet.empty(space), MeasurableSet.full(space)]
    sets += [MeasurableSet.from_indices(space, atoms=[k]) for k in range(n)]
    fractions = [rng.random(m), np.where(rng.random(m) < 0.5, 1.0, rng.random(m)),
                 (rng.random(m) < 0.5).astype(float), np.zeros(m)]
    sets += [FractionalSet(h, rng.integers(0, 2, n) == 1) for h in fractions]
    return sets


class TestSetValues:
    """ovm._set_values gives each row the bits evaluate or
    evaluate_fractional give its set."""

    @staticmethod
    def check(nu, sets):
        # All rows in one call, and each row alone.
        weights = np.array([nu.space.selector(e) for e in sets], dtype=float)
        values = ovm._set_values(nu.masses, weights)
        assert values.shape == (len(sets), nu.dim, nu.dim)
        for value, row, e in zip(values, weights, sets):
            want = (evaluate(nu, e) if isinstance(e, MeasurableSet)
                    else evaluate_fractional(nu, e))
            assert value.tobytes() == want.tobytes()
            assert ovm._set_values(nu.masses, row[None])[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_match_one_by_one(self, d):
        rng = rng_from_seed(2810 + d)
        for nu in _stack_cases(d, rng):
            self.check(nu, _stack_rows(nu.space, rng))

    @pytest.mark.parametrize("d", [1, 2])
    def test_direct_sum(self, d):
        rng = rng_from_seed(2815 + d)
        for nu in _stack_cases(d, rng):
            joint = direct_sum(nu, grid_ovm(nu.space, nu.cell_masses[::-1], nu.atom_masses))
            self.check(joint, _stack_rows(nu.space, rng))

    @pytest.mark.parametrize("gather", [1, 10**9])
    def test_whole_rows_gathered_or_masked(self, monkeypatch, gather):
        # Every 0/1 row summed per row over its gathered items, or all of
        # them in one masked call: the same bits either way.
        monkeypatch.setattr(ovm, "_GATHER_ITEMS", gather)
        for d in (1, 3):
            rng = rng_from_seed(2822 + d)
            for nu in _stack_cases(d, rng):
                self.check(nu, _stack_rows(nu.space, rng))

    def test_chunks_of_fractional_rows(self, monkeypatch):
        # Two entries per chunk: one fractional row at a time, same bits.
        monkeypatch.setattr(ovm, "_CHUNK_ENTRIES", 2)
        rng = rng_from_seed(2818)
        for nu in _stack_cases(2, rng):
            self.check(nu, _stack_rows(nu.space, rng))

    def test_bool_selectors_and_no_rows(self):
        nu = random_povm(2, 30, rng_from_seed(2819))
        picks = rng_from_seed(2820).integers(0, 2, (5, 30)) == 1
        values = ovm._set_values(nu.masses, picks)
        for value, pick in zip(values, picks):
            assert value.tobytes() == evaluate(nu, MeasurableSet(pick)).tobytes()
        assert ovm._set_values(nu.masses, np.zeros((0, 30), dtype=bool)).shape == (0, 2, 2)

    @pytest.mark.parametrize("rows, items, whole, d",
                             [(256, 2000, False, 2), (512, 200, True, 2), (64, 2000, True, 4)])
    def test_temporaries_bounded(self, rows, items, whole, d):
        # 256 fractional rows over 2000 items would convert 8 MB at once,
        # and a masked sum of 512 whole rows over 200 items would copy
        # 6.5 MB; in chunks the peak stays under 2 MB.  From _GATHER_ITEMS
        # items on, each whole row is one sum_items call holding that row's
        # items, as evaluate does: 64 rows of 2000 items at d = 4 held at
        # once would copy 16 MB.
        rng = rng_from_seed(2821)
        stack = signed_zero_masses(d, items, rng)
        weights = rng.random((rows, items))
        if whole:
            weights = (weights < 0.5).astype(float)
        tracemalloc.start()
        try:
            ovm._set_values(stack, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
        space = SampleSpace.uniform(3, divisible=False)
        w = space.weights
        nu = grid_ovm(space, [np.diag(w_k * np.eye(3)[k]) for k, w_k in enumerate(w)])
        e = MeasurableSet.from_indices(nu.space, cells=[0, 2])
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
        box = OperatorInterval(np.zeros((3, 3)), nu.total_mass())
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
            direct = trace_pair(rho.matrix, evaluate(nu, e)).real
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


def _sample_sets(space, rng):
    """Empty, full, every single cell and atom, and six seeded sets."""
    return ([MeasurableSet.empty(space), MeasurableSet.full(space)]
            + [MeasurableSet.from_indices(space, cells=[k]) for k in range(space.n_cells)]
            + [MeasurableSet.from_indices(space, atoms=[k]) for k in range(space.n_atoms)]
            + [random_set(space, rng) for _ in range(6)])


def _unit_pvm(space):
    """Item k carries the diagonal matrix unit e_kk: projection-valued."""
    count = space.n_cells + space.n_atoms
    return ovm.OVM(space, np.eye(count)[:, None, :] * np.eye(count)[:, :, None], "mixed")


class TestSpectralReference:
    """The batched spectrality rows give the per-pair reference's report."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_uhl_models(self, m):
        nu = uhl_model(m)
        sets = _sample_sets(nu.space, rng_from_seed(m))
        report = check_ovm_properties(nu, sets)
        assert report == properties_pair_by_pair(nu, sets)
        assert report.spectral

    def test_lebesgue_identity(self):
        nu = lebesgue_identity(6, 2)
        sets = _sample_sets(nu.space, rng_from_seed(6))
        assert check_ovm_properties(nu, sets) == properties_pair_by_pair(nu, sets)
        assert not check_ovm_properties(nu, sets).spectral
        ends = sets[:2]
        assert check_ovm_properties(nu, ends) == properties_pair_by_pair(nu, ends)
        assert check_ovm_properties(nu, ends).spectral

    @pytest.mark.parametrize("seed", range(6))
    def test_random_povms(self, seed):
        rng = rng_from_seed(seed)
        nu = random_povm(1 + seed % 3, 8, rng)
        sets = _sample_sets(nu.space, rng)
        for sample in (sets, sets[:2]):
            assert check_ovm_properties(nu, sample) == properties_pair_by_pair(nu, sample)

    def test_direct_sums(self):
        rng = rng_from_seed(7)
        for nu, spectral in ((direct_sum(uhl_model(4), uhl_model(4)), True),
                             (direct_sum(*singular_blocks(3)), False),
                             (direct_sum(random_povm(1, 5, rng), random_povm(2, 5, rng)), False)):
            sets = _sample_sets(nu.space, rng)
            report = check_ovm_properties(nu, sets)
            assert report == properties_pair_by_pair(nu, sets)
            assert report.spectral == spectral

    def test_sets_with_atoms(self):
        rng = rng_from_seed(8)
        space = SampleSpace.uniform(3, atom_sites=(0.25, 0.75))
        povm = random_povm(2, 3, rng, space=space)
        for nu, spectral in ((_unit_pvm(space), True), (povm, False)):
            sets = _sample_sets(space, rng)
            report = check_ovm_properties(nu, sets)
            assert report == properties_pair_by_pair(nu, sets)
            assert report.spectral == spectral

    def test_defects_either_side_of_tol(self):
        # Scaling projection-valued mass k by 1 + eps leaves the pair
        # ({k}, {k}) a defect of eps (1 + eps): 0.1 tol on cell 1, 10 tol
        # on cell 4.
        base = uhl_model(6)
        tol = spectral_tol(base)
        masses = base.masses.copy()
        masses[1] *= 1.0 + 0.1 * tol
        masses[4] *= 1.0 + 10.0 * tol
        nu = ovm.OVM(base.space, masses, base.variant)
        for k, ratio in ((1, 0.1), (4, 10.0)):
            v = evaluate(nu, MeasurableSet.from_indices(nu.space, cells=[k]))
            assert opcore.op_norm(v - v @ v) == pytest.approx(ratio * spectral_tol(nu), rel=1e-3)
        near = [MeasurableSet.from_indices(nu.space, cells=c) for c in ([], [1], [0, 1], [2, 3])]
        far = near + [MeasurableSet.from_indices(nu.space, cells=[4])]
        assert check_ovm_properties(nu, near) == properties_pair_by_pair(nu, near)
        assert check_ovm_properties(nu, near).spectral
        assert check_ovm_properties(nu, far) == properties_pair_by_pair(nu, far)
        assert not check_ovm_properties(nu, far).spectral

    def test_no_sets_is_spectral(self):
        nu = random_povm(2, 4, rng_from_seed(9))
        assert check_ovm_properties(nu, []) == properties_pair_by_pair(nu, [])
        assert check_ovm_properties(nu, []).spectral

    def test_fractional_set_rejected(self):
        nu = lebesgue_identity(2, 2)
        with pytest.raises(errors.InvalidInput):
            check_ovm_properties(nu, [_HALF, MeasurableSet.full(nu.space),
                                      FractionalSet((0.5, 0.5))])

    def test_calls_per_set_not_per_pair(self, monkeypatch):
        # s sets cost one stacked _set_values call, no evaluate call, and one
        # op_norm (the probability flag), not one of each per ordered pair.
        calls = {"evaluate": 0, "_set_values": 0, "op_norm": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        nu = uhl_model(5)
        sets = _sample_sets(nu.space, rng_from_seed(10))
        assert nu.total_norm == 1.0  # cached before counting
        monkeypatch.setattr(ovm, "evaluate", counted("evaluate", ovm.evaluate))
        monkeypatch.setattr(ovm, "_set_values", counted("_set_values", ovm._set_values))
        monkeypatch.setattr(opcore, "op_norm", counted("op_norm", opcore.op_norm))
        assert check_ovm_properties(nu, sets).spectral
        assert calls == {"evaluate": 0, "_set_values": 1, "op_norm": 1}


class TestOneSpectrum:
    """The mass stack is decomposed once, when the OVM is built, and every
    reader of its norms reads what that decomposition gave."""

    def test_mass_stack_decomposed_once(self, monkeypatch):
        shapes = count_decompositions(monkeypatch)
        nu = random_povm(3, 200, rng_from_seed(2901))
        sets = [MeasurableSet.full(nu.space), MeasurableSet.empty(nu.space)]
        assert attain(nu, nu.total_mass() / 2).residual <= 1e-9
        assert is_nonatomic(nu)
        assert rn_derivative(nu, np.eye(3) / 3).defined.all()
        assert check_ovm_properties(nu, sets).positive
        assert shapes.count(nu.masses.shape) == 1

    @pytest.mark.parametrize("kind", ["exact", "near", "with_atoms"])
    def test_norms_are_op_norms_bit_for_bit(self, kind):
        rng = rng_from_seed(2903)
        masses = random_povm(3, 40, rng).masses.copy()  # exactly Hermitian
        if kind != "exact":
            masses[:, 0, 1] += 1e-15  # symmetrized by the build
        sites = (0.1, 0.2, 0.3) if kind == "with_atoms" else ()
        space = SampleSpace.uniform(40 - len(sites), atom_sites=sites)
        nu = ovm.OVM(space, masses, "mixed" if sites else "grid")
        assert np.array_equal(nu.masses, masses) == (kind == "exact")
        assert nu.norms.tobytes() == opcore.op_norms(nu.masses).tobytes()
        assert nu.norms.shape == (40,) and not nu.norms.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            nu.norms = np.zeros(40)


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
