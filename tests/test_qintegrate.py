"""Integration of step functions and the essential range machinery."""

import itertools

import numpy as np
import pytest

from ovmkit import errors, opcore, qintegrate
from ovmkit.models import (
    lebesgue_identity,
    random_hermitian,
    random_povm,
    random_qrv_values,
    random_state,
    rng_from_seed,
)
from ovmkit.ovm import (
    FractionalSet,
    MeasurableSet,
    SampleSpace,
    evaluate,
    grid_ovm,
    induced_measure,
)
from ovmkit.qintegrate import (
    constant_qrv,
    ess_equal,
    ess_range,
    ess_sup,
    ess_support,
    from_fractional,
    indicator,
    integrand_fs,
    integrate,
    pos_neg_parts,
    qrv,
    qrv_from_json,
    qrv_to_json,
    real_imag_parts,
    scalar_to_json,
)

RNG = rng_from_seed(616263)


def random_set(space, rng):
    return MeasurableSet(
        tuple(bool(b) for b in rng.integers(0, 2, space.n_cells)),
        tuple(bool(b) for b in rng.integers(0, 2, space.n_atoms)),
    )


def random_step(space, dim, rng, positive=False):
    return qrv(space,
               random_qrv_values(dim, space.n_cells, rng, positive=positive),
               random_qrv_values(dim, space.n_atoms, rng, positive=positive))


class TestIndicator:
    def test_full_space(self):
        space = SampleSpace.uniform(4)
        f = indicator(space, 2, MeasurableSet.full(space))
        assert all(np.array_equal(v, np.eye(2)) for v in f.cell_values)

    def test_empty(self):
        space = SampleSpace.uniform(4)
        f = indicator(space, 2, MeasurableSet.empty(space))
        assert not f.cell_values.any()

    def test_defining_identity(self):
        nu = random_povm(3, 12, RNG)
        scale = max(1.0, opcore.op_norm(nu.total_mass()))
        for _ in range(20):
            e = random_set(nu.space, RNG)
            lhs = integrate(nu, indicator(nu.space, 3, e))
            assert opcore.op_norm(lhs - evaluate(nu, e)) <= 1e-12 * scale


class TestPosNegParts:
    def test_diagonal_split(self):
        space = SampleSpace.uniform(2)
        f = constant_qrv(space, np.diag([3.0, -2.0]))
        plus, minus = pos_neg_parts(f)
        assert np.allclose(plus.cell_values[0], np.diag([3.0, 0.0]))
        assert np.allclose(minus.cell_values[0], np.diag([0.0, 2.0]))

    def test_psd_passthrough(self):
        space = SampleSpace.uniform(3)
        f = qrv(space, random_qrv_values(2, 3, RNG, positive=True))
        plus, minus = pos_neg_parts(f)
        assert np.allclose(plus.cell_values, f.cell_values, atol=1e-12)
        assert opcore.op_norm(minus.cell_values[0]) <= 1e-12

    def test_off_diagonal_frozen(self):
        # Eigenvectors of [[0,1],[1,0]] are (1,1)/sqrt2 -> +1 and
        # (1,-1)/sqrt2 -> -1, so the split is (J+I)/2 and (I-J+...)/2:
        space = SampleSpace.uniform(1)
        f = constant_qrv(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
        plus, minus = pos_neg_parts(f)
        assert np.allclose(plus.cell_values[0], 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-14)
        assert np.allclose(minus.cell_values[0], 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-14)

    def test_decomposition_and_orthogonality(self):
        space = SampleSpace.uniform(6)
        f = random_step(space, 3, RNG)
        plus, minus = pos_neg_parts(f)
        assert plus.positive and minus.positive
        recon = plus.cell_values - minus.cell_values
        assert np.array_equal(recon, recon)  # finite
        assert np.allclose(recon, f.cell_values, atol=1e-13)
        for p, m in zip(plus.cell_values, minus.cell_values):
            assert opcore.op_norm(p @ m) <= 1e-10

    def test_rejects_non_self_adjoint(self):
        space = SampleSpace.uniform(1)
        f = qrv(space, np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex))
        with pytest.raises(errors.NotSelfAdjoint):
            pos_neg_parts(f)


class TestIntegrate:
    def test_indicator_reproduces_measure(self):
        nu = random_povm(2, 8, RNG)
        e = random_set(nu.space, RNG)
        out = integrate(nu, indicator(nu.space, 2, e))
        assert opcore.op_norm(out - evaluate(nu, e)) <= 1e-13

    def test_constant_against_probability_measure(self):
        nu = lebesgue_identity(10, 2)
        c = random_hermitian(2, RNG)
        out = integrate(nu, constant_qrv(nu.space, c))
        assert np.allclose(out, c, atol=1e-13)

    def test_conjugation_order_frozen(self):
        # M = diag(1,4), F = [[0,1],[1,0]]: sqrt(M) F sqrt(M) = [[0,2],[2,0]],
        # which differs from M F = [[0,1],[4,0]].
        space = SampleSpace.uniform(1)
        nu = grid_ovm(space, np.array([np.diag([1.0, 4.0])], dtype=complex))
        f = constant_qrv(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = integrate(nu, f)
        assert np.allclose(out, np.array([[0.0, 2.0], [2.0, 0.0]]), atol=1e-13)
        mf = nu.cell_masses[0] @ f.cell_values[0]
        assert not np.allclose(out, mf)

    def test_linearity(self):
        nu = random_povm(3, 12, RNG)
        f = random_step(nu.space, 3, RNG)
        g = random_step(nu.space, 3, RNG)
        a, b = 0.7, -1.3
        lhs = integrate(nu, a * f + b * g)
        rhs = a * integrate(nu, f) + b * integrate(nu, g)
        assert opcore.op_norm(lhs - rhs) <= 1e-11

    def test_order_bounds_for_positive_integrand(self):
        nu = random_povm(2, 10, RNG)
        for _ in range(10):
            f = random_step(nu.space, 2, RNG, positive=True)
            out = integrate(nu, f)
            bound = ess_sup(f, nu) * nu.total_mass()
            assert opcore.loewner_leq(np.zeros((2, 2)), out, 1e-9)
            assert opcore.loewner_leq(out, bound, 1e-9)

    def test_four_part_split_agrees(self):
        nu = random_povm(2, 8, RNG)
        values = (random_qrv_values(2, 8, RNG)
                  + 1j * random_qrv_values(2, 8, RNG))
        f = qrv(nu.space, values)
        re, im = real_imag_parts(f)
        rp, rm = pos_neg_parts(re)
        ip, im_minus = pos_neg_parts(im)
        split = (integrate(nu, rp) - integrate(nu, rm)
                 + 1j * integrate(nu, ip) - 1j * integrate(nu, im_minus))
        assert opcore.op_norm(split - integrate(nu, f)) <= 1e-10

    def test_nonpositive_measure_unsupported(self):
        nu = grid_ovm(SampleSpace.uniform(2),
                      np.array([[[1.0]], [[-1.0]]], dtype=complex))
        with pytest.raises(errors.Unsupported):
            integrate(nu, constant_qrv(nu.space, np.eye(1)))


class TestIntegrandFs:
    def test_indicator_gives_density_trace(self):
        nu = random_povm(2, 6, RNG)
        rho = random_state(2, RNG)
        s = random_state(2, RNG)
        from ovmkit.rnderiv import rn_derivative
        dens = rn_derivative(nu, rho)
        fs = integrand_fs(indicator(nu.space, 2, MeasurableSet.full(nu.space)), s, nu, rho)
        for k, r in enumerate(dens.cells):
            expected = opcore.trace_pair(s.matrix, r).real
            assert fs.cells[k].real == pytest.approx(expected, abs=1e-12)
            assert abs(fs.cells[k].imag) <= 1e-12

    def test_identity_both_ways(self):
        nu = random_povm(3, 16, RNG)
        rho = random_state(3, RNG)
        ind = induced_measure(nu, rho)
        for _ in range(25):
            s = random_state(3, RNG)
            f = random_step(nu.space, 3, RNG)
            lhs = opcore.trace_pair(s.matrix, integrate(nu, f))
            fs = integrand_fs(f, s, nu, rho)
            rhs = np.dot(fs.cells, ind.cells) + np.dot(fs.atoms, ind.atoms)
            assert abs(lhs - rhs) <= 1e-10

    def test_positive_integrand_nonnegative(self):
        nu = random_povm(2, 8, RNG)
        rho = random_state(2, RNG)
        s = random_state(2, RNG)
        f = random_step(nu.space, 2, RNG, positive=True)
        fs = integrand_fs(f, s, nu, rho)
        assert np.all(fs.cells.real >= -1e-12)


class TestEssentialSupport:
    def test_zero_function(self):
        nu = random_povm(2, 5, RNG)
        f = constant_qrv(nu.space, np.zeros((2, 2)))
        assert ess_support(f, nu) == MeasurableSet.empty(nu.space)

    def test_indicator_support(self):
        nu = random_povm(2, 5, RNG)  # all cells massive
        e = MeasurableSet.from_indices(nu.space, cells=[1, 3])
        assert ess_support(indicator(nu.space, 2, e), nu) == e

    def test_null_cell_ignored(self):
        masses = np.array([[[1.0]], [[0.0]]], dtype=complex)
        nu = grid_ovm(SampleSpace.uniform(2), masses)
        f = qrv(nu.space, np.array([[[0.0]], [[5.0]]], dtype=complex))
        assert ess_support(f, nu) == MeasurableSet.empty(nu.space)


def brute_force_ess_range(f, nu):
    """Intersection of closures of images over co-null sets, enumerated.

    For step data the closure of the image on E is just the value set on
    E, and E ranges over all cell/atom selections whose complement has
    zero measure.
    """
    m, n = nu.space.n_cells, nu.space.n_atoms
    live_cells = nu.cell_norms() > 1e-12
    live_atoms = nu.atom_norms() > 1e-12
    candidates = None
    for cell_bits in itertools.product([False, True], repeat=m):
        for atom_bits in itertools.product([False, True], repeat=n):
            e = MeasurableSet(cell_bits, atom_bits)
            comask = ~np.asarray(cell_bits)
            coatoms = ~np.asarray(atom_bits) if n else np.zeros(0, dtype=bool)
            if np.any(comask & live_cells) or np.any(coatoms & live_atoms):
                continue  # complement carries mass
            values = [f.cell_values[k] for k in range(m) if cell_bits[k]]
            values += [f.atom_values[k] for k in range(n) if atom_bits[k]]
            if candidates is None:
                candidates = values
            else:
                candidates = [a for a in candidates
                              if any(opcore.op_norm(a - b) <= 1e-10 for b in values)]
    out = []
    for a in candidates or []:
        if all(opcore.op_norm(a - b) > 1e-10 for b in out):
            out.append(a)
    return out


def same_value_set(xs, ys):
    if len(xs) != len(ys):
        return False
    used = set()
    for a in xs:
        hit = next((i for i, b in enumerate(ys)
                    if i not in used and opcore.op_norm(a - b) <= 1e-10), None)
        if hit is None:
            return False
        used.add(hit)
    return True


class TestEssentialRange:
    def test_constant(self):
        nu = random_povm(2, 4, RNG)
        c = random_hermitian(2, RNG)
        values = ess_range(constant_qrv(nu.space, c), nu)
        assert len(values) == 1
        assert opcore.op_norm(values[0] - c) <= 1e-12

    def test_indicator_two_values(self):
        nu = random_povm(2, 4, RNG)
        e = MeasurableSet.from_indices(nu.space, cells=[0, 1])
        values = ess_range(indicator(nu.space, 2, e), nu)
        assert same_value_set(values, [np.zeros((2, 2)), np.eye(2)])

    def test_matches_brute_force_oracle(self):
        for trial in range(12):
            rng = rng_from_seed(700 + trial)
            m = int(rng.integers(2, 7))
            nu = random_povm(2, m, rng)
            # Kill a random cell's mass to exercise null handling.
            masses = nu.cell_masses.copy()
            if m > 2 and trial % 2:
                masses[int(rng.integers(0, m))] = 0.0
                nu = grid_ovm(nu.space, masses)
            values = rng.integers(0, 3, m)  # few distinct step values
            pool = [np.zeros((2, 2)), np.eye(2), np.diag([1.0, -1.0])]
            f = qrv(nu.space, np.stack([pool[v] for v in values]).astype(complex))
            assert same_value_set(ess_range(f, nu), brute_force_ess_range(f, nu))

    def test_fractional_lift_lands_in_unit_scalar_segment(self):
        nu = random_povm(2, 6, RNG)
        h = FractionalSet(tuple(RNG.random(6)))
        f = from_fractional(nu.space, 2, h)
        for value in ess_range(f, nu):
            lam = value[0, 0].real
            assert 0.0 <= lam <= 1.0
            assert opcore.op_norm(value - lam * np.eye(2)) <= 1e-12


class TestEssentialSup:
    def test_zero(self):
        nu = random_povm(2, 4, RNG)
        assert ess_sup(constant_qrv(nu.space, np.zeros((2, 2))), nu) == 0.0

    def test_half_space_value(self):
        nu = lebesgue_identity(4, 2)
        cv = np.zeros((4, 2, 2), dtype=complex)
        cv[:2] = np.diag([2.0, 0.0])
        assert ess_sup(qrv(nu.space, cv), nu) == pytest.approx(2.0)

    def test_null_cell_ignored(self):
        masses = np.array([[[0.0]], [[1.0]]], dtype=complex)
        nu = grid_ovm(SampleSpace.uniform(2), masses)
        cv = np.array([[[100.0]], [[1.0]]], dtype=complex)
        assert ess_sup(qrv(nu.space, cv), nu) == pytest.approx(1.0)

    def test_disagreeing_formulations_raise_typed_error(self, monkeypatch):
        # An empty essential range contradicts the nonzero threshold value.
        nu = lebesgue_identity(4, 2)
        f = constant_qrv(nu.space, np.eye(2))
        monkeypatch.setattr(qintegrate, "ess_range", lambda f, nu: [])
        with pytest.raises(errors.NumericalFailure) as err:
            ess_sup(f, nu)
        assert isinstance(err.value, errors.OvmError)


class TestEssEqual:
    def test_null_cell_perturbation(self):
        masses = np.array([[[1.0]], [[0.0]]], dtype=complex)
        nu = grid_ovm(SampleSpace.uniform(2), masses)
        f = qrv(nu.space, np.array([[[1.0]], [[0.0]]], dtype=complex))
        g = qrv(nu.space, np.array([[[1.0]], [[9.0]]], dtype=complex))
        assert ess_equal(f, g, nu)

    def test_differing_indicators(self):
        nu = random_povm(2, 4, RNG)
        e = MeasurableSet.from_indices(nu.space, cells=[0])
        f2 = MeasurableSet.from_indices(nu.space, cells=[1])
        assert not ess_equal(indicator(nu.space, 2, e), indicator(nu.space, 2, f2), nu)

    def test_tiny_perturbation(self):
        nu = random_povm(2, 4, RNG)
        f = random_step(nu.space, 2, RNG)
        g = f + constant_qrv(nu.space, 1e-14 * np.eye(2))
        assert ess_equal(f, g, nu)


class TestAtomHandling:
    def mixed_measure(self):
        space = SampleSpace.uniform(3, atom_sites=(0.25, 0.75))
        cells = np.full((3, 2, 2), 0.0, dtype=complex)
        for k in range(3):
            cells[k] = np.diag([0.2, 0.1])
        atoms = np.stack([np.diag([0.2, 0.35]), np.diag([0.2, 0.35])]).astype(complex)
        return grid_ovm(space, cells, atom_masses=atoms)

    def test_integrate_includes_atoms(self):
        nu = self.mixed_measure()
        e = MeasurableSet((True, False, False), (True, False))
        out = integrate(nu, indicator(nu.space, 2, e))
        assert opcore.op_norm(out - evaluate(nu, e)) <= 1e-13

    def test_ess_range_sees_atom_values(self):
        nu = self.mixed_measure()
        f = qrv(nu.space,
                np.zeros((3, 2, 2), dtype=complex),
                np.stack([np.eye(2), 3 * np.eye(2)]).astype(complex))
        values = ess_range(f, nu)
        assert same_value_set(values, [np.zeros((2, 2)), np.eye(2), 3 * np.eye(2)])
        assert ess_sup(f, nu) == pytest.approx(3.0)

    def test_integrand_fs_atom_identity(self):
        nu = self.mixed_measure()
        rho = random_state(2, RNG)
        s = random_state(2, RNG)
        f = random_step(nu.space, 2, RNG)
        ind = induced_measure(nu, rho)
        fs = integrand_fs(f, s, nu, rho)
        lhs = opcore.trace_pair(s.matrix, integrate(nu, f))
        rhs = np.dot(fs.cells, ind.cells) + np.dot(fs.atoms, ind.atoms)
        assert abs(lhs - rhs) <= 1e-10


class TestRhoIndependence:
    def test_identity_independent_of_reference_state(self):
        nu = random_povm(2, 12, RNG)
        f = random_step(nu.space, 2, RNG)
        s = random_state(2, RNG)
        sums = []
        for _ in range(3):
            rho = random_state(2, RNG)
            ind = induced_measure(nu, rho)
            fs = integrand_fs(f, s, nu, rho)
            sums.append(np.dot(fs.cells, ind.cells) + np.dot(fs.atoms, ind.atoms))
        spread = max(abs(a - b) for a in sums for b in sums)
        assert spread <= 1e-10


class TestJson:
    def test_qrv_round_trip(self):
        space = SampleSpace.uniform(3, atom_sites=(0.5,))
        f = qrv(space, random_qrv_values(2, 3, RNG), random_qrv_values(2, 1, RNG))
        back = qrv_from_json(space, qrv_to_json(f))
        assert np.array_equal(back.cell_values, f.cell_values)
        assert np.array_equal(back.atom_values, f.atom_values)

    def test_scalar_json_real_only(self):
        space = SampleSpace.uniform(2)
        from ovmkit.qintegrate import ScalarStepFunction
        fs = ScalarStepFunction(space, np.array([1.0, 2.0]), np.zeros(0))
        assert scalar_to_json(fs) == {"cells": [1.0, 2.0], "atoms": []}
        bad = ScalarStepFunction(space, np.array([1.0 + 1j, 2.0]), np.zeros(0))
        with pytest.raises(errors.Unsupported):
            scalar_to_json(bad)
