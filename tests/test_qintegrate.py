"""Integration of step functions and the essential range machinery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NotSelfAdjoint,
    count_decompositions,
    ess_range_greedy,
    first_copies_structured,
    pos_neg_parts,
    random_complex,
    random_hermitian,
    random_qrv_values,
    random_state,
    real_imag_parts,
    signed_zero_masses,
    step_verdicts_whole_stack,
    trace_pair,
)
from ovmkit import errors, opcore, qintegrate
from ovmkit.lyapunov import attain, check_separation
from ovmkit.models import lebesgue_identity, random_povm, rng_from_seed
from ovmkit.ovm import (
    MASS_TOL,
    FractionalSet,
    MeasurableSet,
    SampleSpace,
    abs_continuous,
    evaluate,
    grid_ovm,
    induced_measure,
)
from ovmkit.qintegrate import (
    QuantumRandomVariable,
    ScalarStepFunction,
    ess_equal,
    ess_range,
    ess_sup,
    ess_support,
    indicator,
    integrand_fs,
    integrate,
    qrv,
)
from ovmkit.rnderiv import rn_derivative

RNG = rng_from_seed(616263)


def constant_qrv(space: SampleSpace, value) -> QuantumRandomVariable:
    v = opcore.as_matrix(value)
    return QuantumRandomVariable(space, [v] * (space.n_cells + space.n_atoms))


def qrv_to_json(f: QuantumRandomVariable) -> dict:
    return {
        "cells": [opcore.matrix_to_json(x) for x in f.cell_values],
        "atoms": [opcore.matrix_to_json(x) for x in f.atom_values],
    }


def qrv_from_json(space: SampleSpace, obj) -> QuantumRandomVariable:
    if not isinstance(obj, dict) or "cells" not in obj:
        raise errors.InvalidInput("step function JSON must carry cells")
    values = [opcore.matrix_from_json(x) for x in obj["cells"] + obj.get("atoms", [])]
    return QuantumRandomVariable(space, np.stack(values))


def scalar_to_json(f: ScalarStepFunction) -> dict:
    scale = max(1.0, float(np.abs(f.cells).max()) if f.cells.size else 0.0)
    if (np.abs(f.cells.imag).max(initial=0.0) > 1e-12 * scale
            or np.abs(f.atoms.imag).max(initial=0.0) > 1e-12 * scale):
        raise errors.Unsupported("scalar step JSON carries real values only")
    return {"cells": f.cells.real.tolist(), "atoms": f.atoms.real.tolist()}


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

    @pytest.mark.parametrize("dim", [10**30, 2**40])
    def test_dimension_numpy_cannot_shape_is_invalid_input(self, dim):
        # numpy refuses both (m + n, dim, dim) shapes before it allocates:
        # one exceeds its dimension limit, the other its size limit.
        space = SampleSpace.uniform(4)
        with pytest.raises(errors.InvalidInput, match="too large"):
            indicator(space, dim, MeasurableSet.full(space))


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
        with pytest.raises(NotSelfAdjoint):
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
            assert opcore.loewner_leq(np.zeros((2, 2)), out)
            assert opcore.loewner_leq(out, bound)

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
        dens = rn_derivative(nu, rho)
        fs = integrand_fs(indicator(nu.space, 2, MeasurableSet.full(nu.space)), s, nu, rho)
        for k, r in enumerate(dens.cells):
            expected = trace_pair(s.matrix, r).real
            assert fs.cells[k].real == pytest.approx(expected, abs=1e-12)
            assert abs(fs.cells[k].imag) <= 1e-12

    def test_identity_both_ways(self):
        nu = random_povm(3, 16, RNG)
        rho = random_state(3, RNG)
        ind = induced_measure(nu, rho)
        for _ in range(25):
            s = random_state(3, RNG)
            f = random_step(nu.space, 3, RNG)
            lhs = trace_pair(s.matrix, integrate(nu, f))
            fs = integrand_fs(f, s, nu, rho)
            rhs = np.dot(fs.cells, ind.cells) + np.dot(fs.atoms, ind.atoms)
            assert abs(lhs - rhs) <= 1e-10

    def test_missing_derivative_raises_as_rn_derivative(self):
        # A state blind to the second cell's mass and to the atom's: the
        # derivative is undefined there, and integrand_fs raises what
        # rn_derivative raises, with the same failures.
        space = SampleSpace.uniform(3, atom_sites=(0.5,))
        masses = np.array([np.diag([1.0, 1.0]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]),
                           np.diag([0.0, 1.0])], dtype=complex) / 4
        nu = grid_ovm(space, masses[:3], masses[3:])
        rho = opcore.make_state(np.diag([1.0, 0.0]))
        f = indicator(space, 2, MeasurableSet.full(space))
        with pytest.raises(errors.DerivativeDoesNotExist) as want:
            rn_derivative(nu, rho)
        with pytest.raises(errors.DerivativeDoesNotExist) as got:
            integrand_fs(f, rho, nu, rho)
        assert got.value.failures == want.value.failures == (("cell", 1), ("atom", 0))

    def test_value_dim_must_match_the_measure(self):
        # A dimension-2 step function on a dimension-3 measure is a
        # DimMismatch, as in integrate, not numpy's matmul error.
        nu = random_povm(3, 6, RNG)
        rho = random_state(3, RNG)
        f = random_step(nu.space, 2, RNG)
        with pytest.raises(errors.DimMismatch):
            integrand_fs(f, rho, nu, rho)

    def test_values_must_match_the_space(self):
        # Three cells and no atoms: two values, or three in a row of a
        # matrix, do not fit.
        for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
            with pytest.raises(errors.ShapeMismatch):
                ScalarStepFunction(SampleSpace.uniform(3), bad)

    def test_one_item_stack(self):
        # Cells first, then atoms, in one read-only complex stack; cells and
        # atoms are views of it.
        fs = ScalarStepFunction(SampleSpace.uniform(2, atom_sites=(0.5,)), [1.0, 2.0, 3.0])
        assert fs.values.dtype == np.complex128 and not fs.values.flags.writeable
        assert fs.cells.tolist() == [1.0, 2.0] and fs.atoms.tolist() == [3.0]
        assert np.shares_memory(fs.cells, fs.values) and np.shares_memory(fs.atoms, fs.values)

    def test_positive_integrand_nonnegative(self):
        nu = random_povm(2, 8, RNG)
        rho = random_state(2, RNG)
        s = random_state(2, RNG)
        f = random_step(nu.space, 2, RNG, positive=True)
        fs = integrand_fs(f, s, nu, rho)
        assert np.all(fs.cells.real >= -1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_density_root_formula(self, d):
        # f_s(k) = tr(s R_k^(1/2) F_k R_k^(1/2)) with the roots of the
        # densities themselves, on masses over six orders of magnitude with
        # null cells and a null atom among massive ones; 0 where R is undefined.
        rng = rng_from_seed(3201 + d)
        masses = signed_zero_masses(d, 12, rng)
        masses[[2, 5]] = 0.0
        space = SampleSpace.uniform(9, atom_sites=(0.2, 0.5, 0.8))
        nu = grid_ovm(space, masses[:9], masses[9:])
        f = QuantumRandomVariable(space, random_complex(rng, (12, d, d)))
        rho, s = random_state(d, rng), random_state(d, rng)
        dens = rn_derivative(nu, rho)
        defined = dens.defined
        assert not defined[[2, 5, 11]].any() and defined.sum() == 9
        roots = opcore.psd_roots(dens.values[defined])
        expected = np.einsum("ij,kji->k", s.matrix, roots @ f.values[defined] @ roots)
        fs = integrand_fs(f, s, nu, rho).values
        scale = opcore.op_norms(dens.values[defined]) * f.norms[defined]
        assert np.all(np.abs(fs[defined] - expected) <= 1e-12 * scale)
        assert np.all(fs[~defined] == 0.0)


def test_integrals_share_one_decomposition(monkeypatch):
    # The measure's build takes one eigvalsh of its masses; integrate, an
    # indicator integral and integrand_fs share one eigh of them, taken on
    # the first integral and kept read-only.
    rng = rng_from_seed(3205)
    masses = random_povm(4, 300, rng).masses
    space = SampleSpace.uniform(300)
    f = qrv(space, random_qrv_values(4, 300, rng))
    chi = indicator(space, 4, MeasurableSet(np.arange(300) % 3 == 0))
    rho, s = random_state(4, rng), random_state(4, rng)
    calls = count_decompositions(monkeypatch, names=True)
    nu = grid_ovm(space, masses)
    assert "_roots" not in vars(nu)
    integrate(nu, f)
    integrate(nu, chi)
    integrand_fs(f, s, nu, rho)
    assert [c for c in calls if c[1] == masses.shape] == [("eigvalsh", masses.shape),
                                                         ("eigh", masses.shape)]
    assert not nu._roots.flags.writeable


def test_mass_stack_judged_once_at_build(monkeypatch):
    # One Hermitian test and one PSD verdict of the mass stack, both taken
    # when the measure is built: its coordinates, attain (goal and result),
    # check_separation and the integrals read them and judge it no more.
    rng = rng_from_seed(3207)
    masses = random_povm(3, 200, rng).masses
    space = SampleSpace.uniform(200)
    f = qrv(space, random_qrv_values(3, 200, rng))
    rho, s = random_state(3, rng), random_state(3, rng)
    seen = []
    for name in ("_hermitian_test", "_psd_ok"):
        judge = getattr(opcore, name)
        monkeypatch.setattr(opcore, name, lambda m, *args, _judge=judge, _name=name:
                            seen.append((_name, np.shape(m))) or _judge(m, *args))
    nu = grid_ovm(space, masses)
    at_build = list(seen)
    assert nu.coords.shape == (200, 9)
    assert attain(nu, nu.total_mass() / 2).residual <= 1e-9
    assert check_separation(nu, nu.total_mass() / 2, np.eye(3)) < 0.0
    integrate(nu, f)
    integrand_fs(f, s, nu, rho)
    judged = [(name, shape) for name, shape in seen if shape[0] == 200]
    assert judged == at_build == [("_hermitian_test", (200, 3, 3)), ("_psd_ok", (200, 3))]


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
    live_cells, live_atoms = nu.massive[:m], nu.massive[m:]
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
        f = QuantumRandomVariable(nu.space, nu.space.selector(h)[:, None, None] * np.eye(2))
        for value in ess_range(f, nu):
            lam = value[0, 0].real
            assert 0.0 <= lam <= 1.0
            assert opcore.op_norm(value - lam * np.eye(2)) <= 1e-12


def ess_range_pairwise(f, nu):
    """Reference for ess_range's dedup: one op_norm per (value, kept value)
    pair, first occurrence kept, cells before atoms, and values within
    DEDUP_TOL times the largest live op_norm are one."""
    out = []
    m = nu.space.n_cells
    lives = (f.cell_values[nu.massive[:m]], f.atom_values[nu.massive[m:]])
    tol = qintegrate.DEDUP_TOL * max((opcore.op_norm(v) for vs in lives for v in vs), default=0.0)
    for live_values in lives:
        for value in live_values:
            if all(opcore.op_norm(value - seen) > tol for seen in out):
                out.append(value.copy())
    return out


@pytest.mark.parametrize("seed", range(8))
def test_ess_range_matches_pairwise_reference(seed):
    """Seeded stacks drawn from a pool holding, besides four base values of
    norm 1, copies moved by DEDUP_TOL / 2 (the same value) and by
    2 * DEDUP_TOL (a new one), in units of the largest live norm, about 1;
    Hermitian and general values, null cells and atoms."""
    rng = rng_from_seed(900 + seed)
    d, m, n = 1 + seed % 3, 40, 4
    space = SampleSpace.uniform(m, atom_sites=tuple((k + 0.5) / n for k in range(n)))
    base = random_qrv_values(d, 4, rng) if seed % 2 else random_complex(rng, (4, d, d))
    base /= opcore.op_norms(base)[:, None, None]
    nudge = random_complex(rng, (d, d))
    nudge /= opcore.op_norm(nudge)
    tol = qintegrate.DEDUP_TOL
    pool = np.concatenate([base, base + tol / 2 * nudge, base + 2 * tol * nudge])
    values = pool[rng.integers(0, len(pool), m + n)]
    masses = random_qrv_values(d, m + n, rng, positive=True)
    masses[rng.integers(0, m + n, 6)] = 0.0
    nu = grid_ovm(space, masses[:m], atom_masses=masses[m:])
    f = qrv(space, values[:m], values[m:])
    got, want = ess_range(f, nu), ess_range_pairwise(f, nu)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), m=st.integers(1, 60),
       n=st.integers(0, 3), hermitian=st.booleans(), scale=st.integers(-3, 8),
       spike=st.booleans(), nulls=st.sampled_from(["none", "some", "one live", "all"]))
def test_ess_range_matches_greedy_bit_for_bit(seed, d, m, n, hermitian, scale, spike, nulls):
    """Values drawn from a pool of base values of one norm s, their copies
    moved by DEDUP_TOL * s * (1/2, 1 - 1e-3, 1 + 1e-3, 2) and signed zeros,
    at scales 1e-3 to 1e8; a spike puts 10^scale in one entry of values
    whose other entries are about 1."""
    rng = rng_from_seed(seed)
    base = random_complex(rng, (int(rng.integers(1, 5)), d, d))
    if hermitian:
        base = (base + base.conj().transpose(0, 2, 1)) / 2
    if spike:
        base[:, 0, 0] = 10.0**scale
    else:
        base *= 10.0**scale / opcore.op_norms(base)[:, None, None]
    s = opcore.op_norms(base).max()
    nudge = random_complex(rng, (d, d))
    nudge /= opcore.op_norm(nudge)
    moved = [base + t * qintegrate.DEDUP_TOL * s * nudge for t in (0.5, 1 - 1e-3, 1 + 1e-3, 2)]
    pool = np.concatenate([base, *moved, np.zeros_like(base), -0.0 * base])
    values = pool[rng.integers(0, len(pool), m + n)]
    masses = random_qrv_values(d, m + n, rng, positive=True)
    live = {"none": np.ones(m + n, bool), "some": rng.random(m + n) < 0.7,
            "one live": np.arange(m + n) == rng.integers(0, m + n),
            "all": np.zeros(m + n, bool)}[nulls]
    masses[~live] = 0.0
    space = SampleSpace.uniform(m, atom_sites=tuple((k + 0.5) / n for k in range(n)))
    nu = grid_ovm(space, masses[:m], atom_masses=masses[m:])
    f = qrv(space, values[:m], values[m:])
    got, want = ess_range(f, nu), ess_range_greedy(f, nu)
    assert len(got) == len(want) <= live.sum()
    assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("d", range(1, 5))
def test_first_copies_is_the_structured_row_set(d):
    # One byte key per row finds the index set of numpy's structured row
    # unique: pooled rows, rows equal but for the sign of a zero part, all
    # equal rows, distinct rows, one row and none.
    rng = rng_from_seed(3600 + d)
    pool = random_complex(rng, (5, d * d))
    pool[:, 0] = 1j * pool[:, 0].imag
    pool[1::2, -1] = pool[1::2, -1].real
    pool[4] = 0.0
    pooled = pool[rng.integers(0, len(pool), 400)]
    parts = pooled.view(np.float64).copy()
    zero = parts == 0.0
    parts[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    signed = parts.view(np.complex128)
    distinct = len(first_copies_structured(pooled))
    assert len({row.tobytes() for row in signed}) > distinct  # zeros of both signs
    cases = {"pooled": pooled, "signed zeros": signed, "all equal": pooled[[3] * 50],
             "distinct": random_complex(rng, (60, d * d)), "one": pooled[:1],
             "none": pooled[:0]}
    for name, flat in cases.items():
        got, want = qintegrate._first_copies(flat), first_copies_structured(flat)
        assert got.tolist() == want.tolist(), name
    assert len(first_copies_structured(signed)) == distinct


def test_ess_range_norms_linear_in_distinct_values(monkeypatch):
    # m distinct values: the greedy takes one norm per (value, earlier kept
    # value) pair, about m^2 / 2; the projection sweep confirms only the
    # candidate pairs.
    m = 400
    nu = random_povm(2, m, rng_from_seed(31))
    f = qrv(nu.space, random_qrv_values(2, m, rng_from_seed(32)))
    assert nu.massive.all()  # cached: its one op_norm, of nu(X), is the measure's
    evaluated, op_norms = [], []
    batched, op_norm = opcore.op_norms, opcore.op_norm
    monkeypatch.setattr(opcore, "op_norms",
                        lambda stack: evaluated.append(len(stack)) or batched(stack))
    monkeypatch.setattr(opcore, "op_norm", lambda a: op_norms.append(1) or op_norm(a))
    assert len(ess_range(f, nu)) == m
    assert sum(evaluated) <= 4 * m
    assert ess_sup(f, nu) > 0.0
    assert not op_norms


@pytest.mark.parametrize("call", [
    lambda f, nu: integrate(nu, f), ess_support, ess_range, ess_sup, ess_equal,
], ids=["integrate", "ess_support", "ess_range", "ess_sup", "ess_equal"])
def test_value_dim_must_match_measure(call):
    # A dimension-3 step function against a dimension-2 measure is a
    # DimMismatch for every integral and essential quantity.
    nu = random_povm(2, 5, RNG)
    f = random_step(nu.space, 3, RNG)
    args = (f, f, nu) if call is ess_equal else (f, nu)
    with pytest.raises(errors.DimMismatch):
        call(*args)


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

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    def test_equals_largest_op_norm_over_massive_items(self, hermitian):
        # ess_sup and op_norm read one operator-norm rule, so the supremum is
        # the largest op_norm(F_k) over the massive items, bit for bit.
        rng = rng_from_seed(2424)
        masses = random_povm(3, 40, rng).masses.copy()
        masses[::7] = 0.0  # null cells, whose values must not count
        nu = grid_ovm(SampleSpace.uniform(40), masses)
        values = (random_qrv_values(3, 40, rng) if hermitian
                  else random_complex(rng, (40, 3, 3)))
        values[::7] *= 1e3
        f = qrv(nu.space, values)
        assert f.self_adjoint is hermitian and not nu.massive.all()
        want = max(opcore.op_norm(value) for value in f.values[nu.massive])
        assert ess_sup(f, nu) == want

    def test_near_copy_of_the_top_value(self):
        # (A, A + E) with ||E|| just below 1e-10 along A's top eigenvector,
        # which an absolute dedup at DEDUP_TOL merged: ess_sup is ||A + E||
        # by the threshold formula, whatever the range keeps.
        a = np.array([[-0.076838, -0.10889, 0.332513],
                      [-0.10889, 0.070969, -0.137489],
                      [0.332513, -0.137489, 0.433952]])
        b = np.array([[-0.07683799998113831, -0.10889000001238316, 0.33251300003710876],
                      [-0.10889000001238316, 0.07096900000812986, -0.13748900002436282],
                      [0.33251300003710876, -0.13748900002436282, 0.4339520000730084]])
        nu = lebesgue_identity(2, 3)
        f = qrv(nu.space, np.stack([a, b]))
        assert ess_sup(f, nu) == opcore.op_norm(b) > opcore.op_norm(a)

    def test_reads_no_decomposition(self, monkeypatch):
        # The threshold formula reads the norms the build kept: no
        # eigendecomposition and no op_norms call, however many values.
        nu = random_povm(3, 300, rng_from_seed(3101))
        f = qrv(nu.space, random_qrv_values(3, 300, rng_from_seed(3102)))
        assert nu.massive.all() and f.self_adjoint
        shapes = count_decompositions(monkeypatch)
        calls = []
        monkeypatch.setattr(opcore, "op_norms", lambda stack: calls.append(1))
        assert ess_sup(f, nu) == f.norms.max()
        assert shapes == [] and calls == []


def _null_reads(nu, f, rho, nu_ref):
    """Everything that asks which items of nu are null, for f, rho and a
    reference measure nu_ref on the same space."""
    ind, ind_ref = induced_measure(nu, rho), induced_measure(nu_ref, rho)
    return {
        "ess_range": np.array(ess_range(f, nu)).tolist(),
        "ess_sup": ess_sup(f, nu),
        "ess_support": ess_support(f, nu),
        "defined": tuple(r is not None for r in rn_derivative(nu, rho).cells),
        "ovm_ac": (abs_continuous(nu, nu_ref), abs_continuous(nu_ref, nu)),
        "induced_ac": (abs_continuous(ind, ind_ref), abs_continuous(ind_ref, ind)),
    }


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 8))
def test_null_items_scale_invariant(seed, d, m):
    # c * nu has the null sets of nu for every c > 0, so the essential
    # range, supremum and support, the cells where the derivative is
    # defined and absolute continuity against nu are those at c = 1.
    rng = rng_from_seed(seed)
    masses = random_povm(d, m, rng).cell_masses.copy()
    masses[rng.integers(0, m)] = 0.0
    space = SampleSpace.uniform(m)
    pool = random_qrv_values(d, 3, rng)
    f = qrv(space, pool[rng.integers(0, 3, m)])
    rho = random_state(d, rng)
    nu = grid_ovm(space, masses)
    want = _null_reads(nu, f, rho, nu)
    for c in (1e-13, 1e-8, 1e8):
        assert _null_reads(grid_ovm(space, c * masses), f, rho, nu) == want, c


def essential_draw(rng, d, m, n, hermitian, pooled, null_share):
    """(nu, f) on m cells and n atoms with a share of null items: m + n
    distinct values, or values pooled from four of norm 1, their copies moved
    by DEDUP_TOL * (1/2, 1 - 1e-3, 1 + 1e-3, 2), values of norm
    MASS_TOL * (1/2, 2) and zeros."""
    values = random_complex(rng, (4 if pooled else m + n, d, d))
    nudge = random_complex(rng, (d, d))
    if hermitian:
        values = (values + values.conj().transpose(0, 2, 1)) / 2
        nudge = (nudge + nudge.conj().T) / 2
    nudge /= opcore.op_norm(nudge)
    if pooled:
        values /= opcore.op_norms(values)[:, None, None]
        moved = [values + t * qintegrate.DEDUP_TOL * nudge for t in (0.5, 1 - 1e-3, 1 + 1e-3, 2)]
        tiny = [t * MASS_TOL * nudge for t in (0.5, 2)]
        pool = np.concatenate([values, *moved, tiny, np.zeros((1, d, d))])
        values = pool[rng.integers(0, len(pool), m + n)]
    masses = random_qrv_values(d, m + n, rng, positive=True)
    masses[rng.random(m + n) < null_share] = 0.0
    space = SampleSpace.uniform(m, atom_sites=tuple((k + 0.5) / n for k in range(n)))
    return grid_ovm(space, masses[:m], atom_masses=masses[m:]), qrv(space, values[:m], values[m:])


def assert_sup_bounds_range_norms(f, nu):
    # Every value the range drops lies within DEDUP_TOL ess_sup(f) of a kept
    # one, so the largest kept norm is ess_sup f less at most that distance.
    sup = ess_sup(f, nu)
    top = opcore.op_norms(np.reshape(ess_range(f, nu), (-1, f.dim, f.dim))).max(initial=0.0)
    assert top <= sup <= top + (qintegrate.DEDUP_TOL + 8 * np.finfo(float).eps) * sup


@pytest.mark.parametrize("seed", range(12))
def test_ess_sup_bounds_the_range_norms(seed):
    rng = rng_from_seed(3110 + seed)
    nu, f = essential_draw(rng, 1 + seed % 4, 50, seed % 3, seed % 2 == 0, seed % 3 > 0,
                           0.2 * (seed % 4))
    assert_sup_bounds_range_norms(f, nu)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), m=st.integers(1, 60),
       n=st.integers(0, 3), hermitian=st.booleans(), pooled=st.booleans(),
       null_share=st.sampled_from([0.0, 0.3, 1.0]))
def test_ess_sup_bounds_the_range_norms_property(seed, d, m, n, hermitian, pooled, null_share):
    nu, f = essential_draw(rng_from_seed(seed), d, m, n, hermitian, pooled, null_share)
    assert_sup_bounds_range_norms(f, nu)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), m=st.integers(1, 40),
       n=st.integers(0, 2), pooled=st.booleans(), null_share=st.sampled_from([0.0, 0.3]),
       k=st.integers(-400, 400), gap=st.floats(-11.0, -9.0))
def test_essential_notions_scale_free(seed, d, m, n, pooled, null_share, k, gap):
    # Tolerances relative to ess_sup f give c f the verdicts of f, and scaling
    # by c = 2^k is exact: the values, ess_sup and the norms that op_norms
    # takes of them scale bit for bit for |k| <= 400.  Hermitian values only:
    # the Hermitian test keeps an absolute floor below unit norm.
    rng = rng_from_seed(seed)
    nu, f = essential_draw(rng, d, m, n, True, pooled, null_share)
    g = f + 10.0**gap * ess_sup(f, nu) * random_step(nu.space, d, rng)
    c = 2.0**k
    assert ess_sup(c * f, nu) == c * ess_sup(f, nu)
    assert ess_support(c * f, nu) == ess_support(f, nu)
    assert ess_equal(c * f, c * g, nu) == ess_equal(f, g, nu)
    got, want = ess_range(c * f, nu), ess_range(f, nu)
    assert len(got) == len(want)
    assert all(a.tobytes() == (c * b).tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("c", [1e-11, 1e-13])
def test_three_values_at_a_small_scale(c):
    # c (diag(1, 0), diag(0, 1), diag(2, 2)) on three equal cells: three
    # values, none zero, whatever c is.
    nu = lebesgue_identity(3, 2)
    f = c * qrv(nu.space, np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2 * np.eye(2)]))
    assert len(ess_range(f, nu)) == 3
    assert not ess_equal(f, 0 * f, nu)
    assert ess_support(f, nu) == MeasurableSet.full(nu.space)
    assert ess_sup(f, nu) == 2 * c


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
    # Three cells, then two massive atoms with a null one between them;
    # each item has its own mass and value, so an item read across the
    # cell/atom split changes every result below.
    ATOMS = [np.diag([0.1, 0.3]), np.zeros((2, 2)), np.diag([0.3, 0.4])]

    def mixed_measure(self):
        space = SampleSpace.uniform(3, atom_sites=(0.25, 0.5, 0.75))
        cells = np.stack([np.diag([0.1, 0.05]), np.diag([0.2, 0.1]), np.diag([0.3, 0.15])])
        return grid_ovm(space, cells.astype(complex), atom_masses=np.stack(self.ATOMS))

    def atom_step(self, nu):
        """Zero on the cells; I, 5I and 3I on the atoms."""
        return qrv(nu.space, np.zeros((3, 2, 2), dtype=complex),
                   np.stack([np.eye(2), 5 * np.eye(2), 3 * np.eye(2)]).astype(complex))

    def test_integrate_includes_atoms(self):
        nu = self.mixed_measure()
        assert np.allclose(nu.total_mass(), np.eye(2), atol=1e-15)
        for atom_bits in [(True, False, False), (False, True, True), (True, True, True)]:
            e = MeasurableSet((True, False, False), atom_bits)
            expected = np.diag([0.1, 0.05]) + sum(a for a, x in zip(self.ATOMS, atom_bits) if x)
            assert opcore.op_norm(evaluate(nu, e) - expected) <= 1e-15
            out = integrate(nu, indicator(nu.space, 2, e))
            assert opcore.op_norm(out - expected) <= 1e-13
        out = integrate(nu, self.atom_step(nu))
        assert opcore.op_norm(out - self.ATOMS[0] - 3 * self.ATOMS[2]) <= 1e-13

    def test_ess_range_sees_atom_values(self):
        # 5I sits on the null atom only, so it is not essential.
        nu = self.mixed_measure()
        f = self.atom_step(nu)
        values = ess_range(f, nu)
        assert same_value_set(values, [np.zeros((2, 2)), np.eye(2), 3 * np.eye(2)])
        assert ess_sup(f, nu) == pytest.approx(3.0)
        assert ess_support(f, nu) == MeasurableSet((False,) * 3, (True, False, True))

    def test_integrand_fs_atom_identity(self):
        nu = self.mixed_measure()
        rho = random_state(2, RNG)
        s = random_state(2, RNG)
        f = random_step(nu.space, 2, RNG)
        ind = induced_measure(nu, rho)
        fs = integrand_fs(f, s, nu, rho)
        assert fs.cells.shape == (3,) and fs.atoms.shape == (3,)
        assert fs.atoms[1] == 0.0 and np.all(fs.atoms[[0, 2]] != 0.0)
        lhs = trace_pair(s.matrix, integrate(nu, f))
        rhs = np.dot(fs.cells, ind.cells) + np.dot(fs.atoms, ind.atoms)
        assert abs(lhs - rhs) <= 1e-10


def test_build_runs_one_hermitian_test(monkeypatch):
    # self_adjoint and positive of a near-Hermitian stack come from one test.
    values = random_qrv_values(4, 1000, rng_from_seed(2660), positive=True)
    values[:, 0, 1] += 1e-15
    calls = []
    test = opcore._hermitian_test
    monkeypatch.setattr(opcore, "_hermitian_test", lambda m: calls.append(1) or test(m))
    f = QuantumRandomVariable(SampleSpace.uniform(1000), values)
    assert len(calls) == 1
    assert f.self_adjoint and f.positive


@pytest.mark.parametrize("kind", ["exact", "near", "mixed", "not_hermitian"])
def test_norms_are_op_norms_bit_for_bit(kind):
    # Set at build for every stack, from its one decomposition: eigenvalues
    # when the values are self-adjoint (exactly or after symmetrization),
    # else as op_norms takes them (mixed: eigenvalues and singular values;
    # not_hermitian: SVD only).
    rng = rng_from_seed(2904)
    values = random_qrv_values(3, 60, rng)
    if kind == "near":
        values[:, 0, 1] += 1e-15
    if kind == "mixed":
        values[::5, 0, 1] += 0.5
    if kind == "not_hermitian":
        values = random_complex(rng, (60, 3, 3))
    f = QuantumRandomVariable(SampleSpace.uniform(60), values)
    assert f.self_adjoint == (kind in ("exact", "near"))
    assert "norms" in vars(f)
    assert f.norms.tobytes() == opcore.op_norms(values).tobytes()
    assert f.norms is f.norms and not f.norms.flags.writeable


def test_values_decomposed_once(monkeypatch):
    # Building a step function, ess_support and ess_sup decompose the value
    # stack once; the essential range of three values takes its own small norms.
    nu = random_povm(3, 200, rng_from_seed(2905))
    assert nu.massive.all()
    shapes = count_decompositions(monkeypatch)
    values = random_qrv_values(3, 3, rng_from_seed(2906))[np.arange(200) % 3]
    f = qrv(nu.space, values)
    assert ess_support(f, nu) == MeasurableSet.full(nu.space)
    assert ess_sup(f, nu) == opcore.op_norms(values[:3]).max()
    assert shapes.count(values.shape) == 1


@pytest.mark.parametrize("kind", ["psd", "near_psd", "indefinite", "not_hermitian"])
def test_build_verdicts_match_the_stack_rules(kind):
    rng = rng_from_seed(2661)
    values = random_qrv_values(3, 50, rng, positive=kind in ("psd", "near_psd"))
    if kind == "near_psd":
        values[:, 0, 1] += 1e-15
    if kind == "not_hermitian":
        values[7, 0, 1] += 0.5
    f = QuantumRandomVariable(SampleSpace.uniform(50), values)
    assert f.self_adjoint == bool(opcore.hermitian_flags(values).all())
    assert f.positive == bool(f.self_adjoint and opcore.psd_flags(values).all())
    assert f.positive == (kind != "indefinite" and kind != "not_hermitian")


def _step_values(rng, d, m, pattern, modifier, positive):
    """A (m, d, d) stack of step values from a pool of 2 to 6: in runs, drawn
    at random, cyclic (no two neighbours equal), all one value, in runs over
    values and their twins, equal to them but for -0.0 where they hold 0.0,
    or drawn at random from values that share their real parts.  The
    modifier makes the pool near-Hermitian (1e-15), half of it not
    Hermitian, or scales it by 2^+-500 (_decompose's rescale)."""
    pool = random_qrv_values(d, int(rng.integers(2, 7)), rng, positive=positive)
    unit = 1.0 if d > 1 else 1j  # an entry that a d = 1 value holds as 0
    if pattern == "real":
        pool = pool[0].real + 1j * np.arange(1, len(pool) + 1)[:, None, None] * pool[0].imag
    if pattern == "twins":
        pool[:, ~np.eye(d, dtype=bool)] = 0.0
        pool.imag = 0.0
        twins = pool.copy()
        twins[:, ~np.eye(d, dtype=bool)] = complex(-0.0, -0.0)
        twins.imag = -0.0
        pool = np.concatenate([pool, twins])
    if modifier == "near":
        pool[:, 0, -1] += 1e-15 * unit
    elif modifier == "mixed":
        pool[::2, 0, -1] += 0.5 * unit
    elif modifier in ("up", "down"):
        pool *= 2.0 ** (500 if modifier == "up" else -500)
    k = len(pool)
    labels = {
        "runs": lambda: np.repeat(rng.integers(0, k, m), rng.integers(1, 6, m))[:m],
        "pool": lambda: rng.integers(0, k, m),
        "real": lambda: rng.integers(0, k, m),
        "cyclic": lambda: np.arange(m) % k,
        "equal": lambda: np.zeros(m, dtype=int),
        "twins": lambda: np.repeat(rng.permutation(np.arange(k).reshape(2, -1).T.ravel()),
                                   m // k + 1)[:m],
    }[pattern]()
    return pool[labels]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 300),
       pattern=st.sampled_from(["runs", "pool", "cyclic", "equal", "twins", "real"]),
       modifier=st.sampled_from(["exact", "near", "mixed", "up", "down"]),
       positive=st.booleans())
def test_step_verdicts_are_the_whole_stack_verdicts(seed, d, m, pattern, modifier, positive):
    # Decomposing each distinct value once gives the whole stack's verdicts
    # and norms bit for bit, whichever path the stack takes.
    values = _step_values(rng_from_seed(seed), d, m, pattern, modifier, positive)
    self_adjoint, psd, norms = step_verdicts_whole_stack(values)
    got = opcore._step_verdicts(values)
    assert got[:2] == (self_adjoint, psd)
    assert got[2].tobytes() == norms.tobytes()
    f = QuantumRandomVariable(SampleSpace.uniform(m), values)
    assert (f.self_adjoint, f.positive) == (self_adjoint, psd)
    assert f.norms.tobytes() == norms.tobytes()


def test_step_function_decomposes_each_distinct_value_once(monkeypatch):
    # Four values in runs over 200 cells: one eigvalsh of the four, never of
    # the stack; ess_support and ess_sup read the kept norms.
    nu = random_povm(3, 200, rng_from_seed(2907))
    assert nu.massive.all()
    pool = random_qrv_values(3, 4, rng_from_seed(2908))
    values = pool[np.repeat([2, 0, 3, 1, 0, 2, 3, 1], 25)]
    sup = opcore.op_norms(pool).max()
    shapes = count_decompositions(monkeypatch, names=True)
    f = qrv(nu.space, values)
    assert shapes == [("eigvalsh", (4, 3, 3))]
    assert ess_support(f, nu) == MeasurableSet.full(nu.space)
    assert ess_sup(f, nu) == sup
    assert shapes == [("eigvalsh", (4, 3, 3))]


def test_indicator_decomposes_two_values(monkeypatch):
    # chi_E I takes the values 0 and I: its build decomposes those two.
    space = SampleSpace.uniform(300)
    shapes = count_decompositions(monkeypatch)
    chi = indicator(space, 4, MeasurableSet(np.arange(300) % 7 < 3))
    assert shapes == [(2, 4, 4)]
    assert chi.positive and chi.norms.tolist() == (np.arange(300) % 7 < 3).tolist()


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
        fs = ScalarStepFunction(space, np.array([1.0, 2.0]))
        assert scalar_to_json(fs) == {"cells": [1.0, 2.0], "atoms": []}
        bad = ScalarStepFunction(space, np.array([1.0 + 1j, 2.0]))
        with pytest.raises(errors.Unsupported):
            scalar_to_json(bad)


@pytest.mark.parametrize("c", [2, -0.5, np.float64(3.25), np.int64(-2), 1j],
                         ids=["int", "float", "float64", "int64", "complex"])
def test_scaling_is_the_same_from_either_side(c):
    f = qrv(SampleSpace.uniform(5), random_qrv_values(2, 5, rng_from_seed(77)))
    for scaled in (c * f, f * c):
        assert isinstance(scaled, QuantumRandomVariable)
        assert scaled.values.tobytes() == (c * f.values).tobytes()


@pytest.mark.parametrize("c", ["a", True, None, [2.0]], ids=["str", "bool", "None", "list"])
def test_scaling_by_a_non_number_is_typed_from_either_side(c):
    f = qrv(SampleSpace.uniform(3), random_qrv_values(2, 3, rng_from_seed(78)))
    for scale in (lambda: c * f, lambda: f * c):
        with pytest.raises(errors.InvalidInput, match="scales by a number"):
            scale()


def test_tiny_asymmetry_builds_a_step_function():
    # is_hermitian and psd_check's Hermitian validation apply one rule, so a
    # value accepted as Hermitian is never rejected by the PSD check.  The
    # asymmetry 7.1e-13 is within HERM_TOL of ||A||_F = 2.
    f = qrv(SampleSpace.uniform(1), [[[1.0, 1.0 + 5e-13], [1.0, 1.0]]])
    assert f.self_adjoint and f.positive


def test_density_outside_the_psd_slack_is_rejected():
    # M = diag(1e-3, -5e-10) is not PSD within TOL_PSD of ||M||, and neither is
    # its density M / tr(rho M) = diag(2e6, -1): one verdict, read once.
    nu = grid_ovm(SampleSpace.uniform(1), np.array([np.diag([1e-3, -5e-10])], dtype=complex))
    rho = opcore.make_state(np.diag([1e-6, 1 - 1e-6]))
    f = qrv(nu.space, np.array([np.eye(2)], dtype=complex))
    assert not nu.positive
    with pytest.raises(errors.NotPositive):
        integrand_fs(f, rho, nu, rho)
