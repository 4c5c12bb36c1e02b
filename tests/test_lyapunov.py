"""Constructive Lyapunov solver: witnesses, purification, attainment."""

from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OperatorInterval,
    blocking_numpy,
    certificate_trial_by_trial,
    fractional_from_measurable,
    intervals_cell_by_cell,
    random_hermitian,
    ratio_test_numpy,
    supports_with_kernel,
)
from ovmkit import errors, lyapunov, opcore, ovm
from ovmkit.demos import uhl_demo
from ovmkit.lyapunov import (
    _null_direction,
    attain,
    attain_to_json,
    brute_force_range,
    check_separation,
    convex_combine,
    convexity_certificate,
    coordinate_matrix,
    joint_attain,
    kernel_witness,
    purify,
    realize_intervals,
)
from ovmkit.models import (
    lebesgue_identity,
    random_povm,
    rng_from_seed,
    single_atom_measure,
    singular_blocks,
    uhl_model,
)
from ovmkit.ovm import (
    FractionalSet,
    MeasurableSet,
    SampleSpace,
    direct_sum,
    evaluate,
    evaluate_fractional,
    grid_ovm,
)

RNG = rng_from_seed(717273)


def fractional_from_intervals(space: SampleSpace, intervals, atom_indices=()) -> FractionalSet:
    """Per-cell overlap fractions of a disjoint interval list (inverse of
    the realization, up to round-off)."""
    fr = np.zeros(space.n_cells)
    bp = space.breakpoints
    for lo, hi in intervals:
        for k in range(space.n_cells):
            left = max(float(lo), bp[k])
            right = min(float(hi), bp[k + 1])
            if right > left:
                fr[k] += (right - left) / (bp[k + 1] - bp[k])
    am = [False] * space.n_atoms
    for k in atom_indices:
        am[k] = True
    return FractionalSet(tuple(np.clip(fr, 0.0, 1.0)), tuple(am))


def scalar_grid(masses, **kw):
    arr = np.asarray(masses, dtype=complex)[:, None, None]
    return grid_ovm(SampleSpace.uniform(len(arr), **kw), arr)


def random_set(space, rng):
    return MeasurableSet(
        tuple(bool(b) for b in rng.integers(0, 2, space.n_cells)),
        tuple(bool(b) for b in rng.integers(0, 2, space.n_atoms)),
    )


def rational_nullspace_dim(columns):
    """Exact null-space dimension by Gaussian elimination over Fractions."""
    rows = [list(row) for row in zip(*columns)]  # transpose: rows of the matrix
    rows = [[Fraction(x).limit_denominator(10**12) for x in row] for row in rows]
    n_cols = len(columns)
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return n_cols - rank


class TestKernelWitness:
    def test_two_equal_cells(self):
        nu = scalar_grid([1.0, 1.0])
        w = kernel_witness(nu, [0, 1])
        assert np.allclose(w.coefficients, [1.0, -1.0])
        assert w.support == (0, 1)

    def test_cardinality_forces_dependence(self):
        # Any support larger than d^2 must carry a kernel.
        nu = random_povm(2, 12, RNG)
        for size in (5, 8, 12):
            support = sorted(RNG.choice(12, size=size, replace=False))
            w = kernel_witness(nu, support)
            assert w is not None
            drift = np.tensordot(w.coefficients, nu.cell_masses, axes=1)
            assert opcore.op_norm(drift) <= 1e-10 * max(1.0, opcore.op_norm(nu.total_mass()))
            assert np.abs(w.coefficients).max() == pytest.approx(1.0)

    def test_indicator_model_has_no_kernel(self):
        # Exact-rational oracle: the coordinate columns of the diagonal
        # unit masses have full column rank, so no support admits one.
        nu = uhl_model(6)
        for idx in range(1, 1 << 6):
            support = [k for k in range(6) if idx >> k & 1]
            cols = [opcore.herm_coords(nu.cell_masses[k]) for k in support]
            assert rational_nullspace_dim(cols) == 0
            assert kernel_witness(nu, support) is None

    def test_uhl_demo_sampled_supports(self):
        # Above 12 cells the one SVD still decides all 2^13 - 1 supports.
        results, checks = uhl_demo(13)
        assert results["supports_tested"] == 8191
        assert results["kernel_witnesses_found"] == 0
        assert checks[0]["passed"]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_uhl_demo_matches_per_support_reference(self, m):
        results, _ = uhl_demo(m)
        assert supports_with_kernel(uhl_model(m)) == []
        assert results["supports_tested"] == (1 << m) - 1
        assert results["kernel_witnesses_found"] == 0

    def test_sign_convention(self):
        nu = scalar_grid([0.5, 0.25, 0.25])
        w = kernel_witness(nu, [0, 1, 2])
        lead = next(c for c in w.coefficients if abs(c) > 1e-12)
        assert lead > 0

    def test_empty_support_rejected(self):
        with pytest.raises(errors.InvalidInput):
            kernel_witness(scalar_grid([1.0]), [])


class TestPurify:
    def test_quarter_masses_frozen_output(self):
        nu = scalar_grid([0.25, 0.25, 0.25, 0.25])
        result = purify(nu, FractionalSet((0.5, 0.5, 0.5, 0.5)))
        assert result.h_final.cell_fractions.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert result.fractional_indices == ()
        assert result.target_residual <= 1e-14
        assert evaluate_fractional(nu, result.h_final)[0, 0].real == pytest.approx(0.5)

    def test_indicator_input_untouched(self):
        nu = random_povm(2, 8, RNG)
        h = fractional_from_measurable(random_set(nu.space, RNG))
        result = purify(nu, h)
        assert result.iterations == 0
        assert np.array_equal(result.h_final.cell_fractions, h.cell_fractions)

    def test_indicator_model_stalls_fractional(self):
        # No kernel ever exists, so the half-set survives purification
        # with every cell fractional and no obstruction raised.
        nu = uhl_model(5)
        result = purify(nu, FractionalSet((0.5,) * 5))
        assert result.h_final.cell_fractions.tolist() == [0.5] * 5
        assert len(result.fractional_indices) == 5
        assert result.iterations == 0

    def test_conservation_and_fractional_bound(self):
        for trial in range(30):
            rng = rng_from_seed(900 + trial)
            d = int(rng.integers(1, 4))
            m = int(rng.integers(d * d + 1, 40))
            nu = random_povm(d, m, rng)
            h0 = FractionalSet(tuple(rng.random(m)))
            before = evaluate_fractional(nu, h0)
            result = purify(nu, h0)
            after = evaluate_fractional(nu, result.h_final)
            scale = opcore.op_norm(nu.total_mass())
            assert opcore.op_norm(after - before) <= max(result.iterations, 1) * 1e-12 * scale
            assert len(result.fractional_indices) <= d * d
            assert result.iterations <= m

    def test_zero_mass_fraction_dropped(self):
        masses = np.array([[[0.5]], [[0.0]], [[0.5]]], dtype=complex)
        nu = grid_ovm(SampleSpace.uniform(3), masses)
        result = purify(nu, FractionalSet((1.0, 0.37, 0.0)))
        assert result.h_final.cell_fractions[1] == 0.0

    def test_mixed_divisibility_obstruction(self):
        # Two indivisible cells with equal masses admit a kernel that
        # cannot move without splitting one of them.
        space = SampleSpace(0.0, 1.0, (0.0, 0.5, 1.0), divisible=(False, False))
        nu = grid_ovm(space, np.array([[[1.0]], [[1.0]]], dtype=complex))
        with pytest.raises(errors.AtomicObstruction) as err:
            purify(nu, FractionalSet((0.5, 0.5)))
        assert err.value.cells == (0, 1)


def svd_null_direction(cols):
    """Reference kernel direction: null projector of a full-support SVD."""
    n = cols.shape[1]
    if n == 0:
        return None
    _, sing, vt = np.linalg.svd(cols, full_matrices=False)
    smax = sing[0] if sing.size else 0.0
    rank = int(np.sum(sing > lyapunov.KERNEL_RCOND * smax)) if smax > 0 else 0
    if rank >= n:
        return None
    vr = vt[:rank]
    diag = np.clip(1.0 - (vr * vr).sum(axis=0), 0.0, None)
    pick = int(np.argmax(diag >= 0.5 * diag.max()))
    c = np.zeros(n)
    c[pick] = 1.0
    c -= vr.T @ vr[:, pick]
    c -= vr.T @ (vr @ c)
    c /= np.abs(c).max()
    lead = int(np.argmax(np.abs(c) > 1e-12))
    return -c if c[lead] < 0 else c


class TestNullDirectionEquivalence:
    def test_gram_branch_matches_svd_reference(self):
        rng = rng_from_seed(4242)
        for big_d in (1, 4, 9, 16):
            for n in sorted({big_d + 1, 2 * big_d + 3, 97, 400, 2000}):
                cols = rng.standard_normal((big_d, n)) * rng.uniform(0.1, 10.0, n)
                got = _null_direction(cols)
                want = svd_null_direction(cols)
                assert np.abs(got - want).max() <= 1e-10, (big_d, n)
                assert np.linalg.norm(cols @ got) <= 1e-12 * np.linalg.norm(cols)

    def test_gram_branch_on_povm_coordinates(self):
        for d, m in ((1, 50), (2, 300), (3, 120), (4, 2000)):
            nu = random_povm(d, m, rng_from_seed(50 + d))
            cols = coordinate_matrix(nu, range(m))
            got = _null_direction(cols)
            assert np.abs(got - svd_null_direction(cols)).max() <= 1e-10

    def test_rank_deficient_direct_sum_takes_svd(self):
        # Three scalar blocks fill 3 of the 9 coordinate rows.
        nu = direct_sum(*singular_blocks(3))
        cols = coordinate_matrix(nu, range(nu.space.n_cells))
        assert cols.shape == (9, 12)
        got = _null_direction(cols)
        assert np.array_equal(got, svd_null_direction(cols))

    def test_narrow_blocks_take_svd(self):
        rng = rng_from_seed(4343)
        independent = rng.standard_normal((16, 10))
        assert _null_direction(independent) is None
        dependent = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 5))
        got = _null_direction(dependent)
        assert np.array_equal(got, svd_null_direction(dependent))



class TestKernelInterlacing:
    """Dropping columns neither lowers sigma_min nor raises sigma_max, so a
    full support that clears the KERNEL_RCOND cut decides every support."""

    @staticmethod
    def assert_full_support_decides(nu):
        if kernel_witness(nu, range(nu.space.n_cells)) is None:
            assert supports_with_kernel(nu) == []

    def test_random_povms_up_to_d_squared_cells(self):
        rng = rng_from_seed(2121)
        for d, m in ((1, 1), (2, 2), (2, 3), (2, 4), (3, 5), (3, 9)):
            nu = random_povm(d, m, rng)
            assert kernel_witness(nu, range(m)) is None
            self.assert_full_support_decides(nu)

    def test_direct_sums_with_rank_deficient_rows(self):
        # Blocks of dimensions 1 and 2 fill 5 of the 9 coordinate rows;
        # three scalar blocks fill 3 of them.
        rng = rng_from_seed(2222)
        for nu in (direct_sum(random_povm(1, 5, rng), random_povm(2, 5, rng)),
                   direct_sum(*singular_blocks(3, 1))):
            assert kernel_witness(nu, range(nu.space.n_cells)) is None
            self.assert_full_support_decides(nu)

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.9, 1.1, 10.0, 100.0])
    def test_columns_near_the_cut(self, ratio):
        # Coordinate columns scaled over two orders of magnitude, then the
        # least singular value set to ratio * KERNEL_RCOND * sigma_max.
        rng = rng_from_seed(2323)
        for big_d, m in ((4, 4), (9, 6)):
            scaled = rng.standard_normal((big_d, m)) * np.geomspace(1.0, 100.0, m)
            u, sing, vt = np.linalg.svd(scaled, full_matrices=False)
            sing[-1] = ratio * lyapunov.KERNEL_RCOND * sing[0]
            cols = (u * sing) @ vt
            got = np.linalg.svd(cols, compute_uv=False)
            assert got[-1] / got[0] / lyapunov.KERNEL_RCOND == pytest.approx(ratio, rel=1e-3)
            masses = np.array([opcore.coords_to_herm(c) for c in cols.T])
            nu = grid_ovm(SampleSpace.uniform(m), masses)
            if ratio > 1.0:
                assert kernel_witness(nu, range(m)) is None
            self.assert_full_support_decides(nu)


def svd_kernel(nu, support):
    """Reference kernel move on the index array ``support``: the SVD
    direction, kept only when sum c_k M_k stays within the drift bound
    1e-10 * ||nu(X)||."""
    c = svd_null_direction(nu.cell_coords[support].T)
    if c is None:
        return None
    drift = np.tensordot(c, nu.cell_masses[support], axes=1)
    if opcore.op_norm(drift) > 1e-10 * nu.total_norm:
        return None
    coeffs = np.zeros(nu.space.n_cells)
    coeffs[support] = c
    return coeffs


def rank_one_povm(d, m, rng):
    """m random rank-one masses v v^* renormalized to sum to the identity."""
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    grams = np.einsum("ki,kj->kij", v, v.conj())
    inv_root = np.linalg.inv(opcore.psd_sqrt(grams.sum(axis=0)))
    return grid_ovm(SampleSpace.uniform(m), inv_root @ grams @ inv_root)


# The five families of the purification contract, each built from (d, m,
# rng): random POVMs, each mass repeated six times, rank-one masses, a POVM
# scaled by 1e-8 to 1e8, and the direct sum of d scalar blocks and a d = 2
# block (zero coordinate rows between the blocks).
FAMILIES = {
    "random": random_povm,
    "repeated": lambda d, m, rng: grid_ovm(
        SampleSpace.uniform(6 * (m // 6 + 1)),
        np.repeat(random_povm(d, m // 6 + 1, rng).cell_masses, 6, axis=0) / 6),
    "rank_one": rank_one_povm,
    "scaled": lambda d, m, rng: grid_ovm(
        SampleSpace.uniform(m),
        random_povm(d, m, rng).cell_masses * 10.0 ** rng.choice([-8, -4, 4, 8])),
    "direct_sum": lambda d, m, rng: direct_sum(*(
        random_povm(k, m, rng, space=SampleSpace.uniform(m)) for k in (1,) * d + (2,))),
}


def assert_contract(nu, h):
    """purify's contract: the value of h, null cells (norm at most 1e-12 *
    ||nu(X)||) dropped, kept within 1e-12 * max(1, ||nu(X)||); at most rank
    fractional cells and no kernel (svd_kernel) on the divisible ones; no
    more steps than fractional input cells; the same output bit for bit on
    a second run."""
    got = purify(nu, h)
    again = purify(nu, h)
    assert np.array_equal(again.h_final.cell_fractions, got.h_final.cell_fractions)
    assert again.iterations == got.iterations
    fr = np.asarray(h.cell_fractions)
    norms = np.linalg.norm(nu.cell_masses, ord=2, axis=(1, 2))
    kept = FractionalSet(tuple(np.where(norms <= 1e-12 * nu.total_norm, 0.0, fr)), h.atom_mask)
    drift = evaluate_fractional(nu, got.h_final) - evaluate_fractional(nu, kept)
    assert opcore.op_norm(drift) <= 1e-12 * max(1.0, nu.total_norm)
    frac = np.array(got.fractional_indices, dtype=int)
    assert frac.size <= np.linalg.matrix_rank(nu.cell_coords.T)
    movable = frac[np.asarray(nu.space.divisible)[frac]]
    assert movable.size == 0 or svd_kernel(nu, movable) is None
    assert got.iterations <= np.count_nonzero((fr > 0.0) & (fr < 1.0))
    return got


class TestCrossoverContract:
    """purify over the five families: conservation, at most rank fractional
    cells, an extreme point of the fiber, at most one step per fractional
    cell and bitwise determinism."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_instances(self, d):
        # 30 instances per d, m up to 400, every cell fractional.
        for trial in range(30):
            rng = rng_from_seed(3000 + 10 * trial + d)
            m = int(rng.integers(d * d + 1, 401))
            nu = random_povm(d, m, rng)
            assert_contract(nu, FractionalSet(tuple(rng.random(m))))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family):
        for trial in range(24):
            rng = rng_from_seed(5000 + trial)
            d, m = 1 + trial % 4, int(rng.integers(2, 301))
            nu = FAMILIES[family](d, m, rng)
            h = rng.random(nu.space.n_cells)
            if trial % 2:  # a convex_combine mix of two sets
                h = np.where(rng.random(h.size) < 0.5, h[0], np.round(h))
            assert_contract(nu, FractionalSet(tuple(h)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [200, 1000, 2000])
    def test_interior_grid(self, d, m):
        # A convex_combine mix of two sets and an all-fractional set.
        rng = rng_from_seed(7000 + 10 * d + m)
        nu = random_povm(d, m, rng)
        e1, e2, t = rng.integers(0, 2, m), rng.integers(0, 2, m), float(rng.random())
        for h in (t * e1 + (1.0 - t) * e2, rng.random(m)):
            result = assert_contract(nu, FractionalSet(tuple(h)))
            assert len(result.fractional_indices) <= d * d

    def test_run_past_refactor_interval(self, monkeypatch):
        # Enough exchanges for several refactorizations of the basis inverse,
        # one per REFACTOR_EVERY exchanges and one at the end.
        calls = {"refactor": 0, "exchange": 0}
        for name in calls:
            def spy(self, *args, name=name, real=getattr(lyapunov._Basis, name)):
                calls[name] += 1
                return real(self, *args)
            monkeypatch.setattr(lyapunov._Basis, name, spy)
        rng = rng_from_seed(7171)
        nu = random_povm(2, 300, rng)
        h = FractionalSet(tuple(rng.random(300)))
        purify(nu, h)
        assert calls["exchange"] > 2 * lyapunov.REFACTOR_EVERY
        assert calls["refactor"] == calls["exchange"] // lyapunov.REFACTOR_EVERY + 1
        assert_contract(nu, h)

    def test_small_masses_are_not_null(self):
        # A POVM scaled by 1e-8: six cells fall below the absolute 1e-12 of
        # ovm.MASS_TOL, yet each carries at least 5e-5 of ||nu(X)||, so none is
        # null and purify must keep the value of h.
        rng = rng_from_seed(137)
        nu = random_povm(1, 277, rng)
        nu = grid_ovm(nu.space, nu.cell_masses * 1e-8)
        h = FractionalSet(tuple(rng.random(277)))
        got = assert_contract(nu, h)
        drift = evaluate_fractional(nu, got.h_final) - evaluate_fractional(nu, h)
        assert opcore.op_norm(drift) <= 1e-12 * nu.total_norm

    def test_indivisible_cells_obstruct(self):
        # Equal masses: the divisible cells purify down to one fractional
        # cell, then a kernel move needs the two indivisible ones.
        space = SampleSpace(0.0, 1.0, tuple(np.linspace(0.0, 1.0, 7)),
                            divisible=(True,) * 4 + (False,) * 2)
        nu = grid_ovm(space, np.full((6, 1, 1), 1.0 / 6, dtype=complex))
        with pytest.raises(errors.AtomicObstruction) as err:
            purify(nu, FractionalSet((0.3, 0.6, 0.45, 0.7, 0.5, 0.5)))
        assert err.value.cells == (4, 5)

    def test_independent_indivisible_cells_stay(self):
        # The divisible cells carry diag(w, 0), the indivisible one
        # diag(0, 1): no kernel reaches it, so it stays fractional.
        rng = rng_from_seed(7575)
        space = SampleSpace(0.0, 1.0, tuple(np.linspace(0.0, 1.0, 12)),
                            divisible=(True,) * 10 + (False,))
        masses = np.zeros((11, 2, 2), dtype=complex)
        masses[:10, 0, 0], masses[10, 1, 1] = rng.uniform(0.05, 0.15, 10), 1.0
        nu = grid_ovm(space, masses)
        result = assert_contract(nu, FractionalSet(tuple(rng.random(10)) + (0.5,)))
        assert result.h_final.cell_fractions[10] == 0.5
        assert len(result.fractional_indices) <= 2

    def test_narrow_support(self):
        # Three fractional cells, one the mean of the other two: a kernel on
        # n = 3 <= D = 4 cells, and one step pins a cell.
        rng = rng_from_seed(7474)
        masses = random_povm(2, 10, rng).cell_masses.copy()
        masses[2] = (masses[0] + masses[1]) / 2
        nu = grid_ovm(SampleSpace.uniform(10), masses)
        result = assert_contract(nu, FractionalSet((0.3, 0.6, 0.5) + (1.0, 0.0) * 3 + (1.0,)))
        assert result.iterations > 0
        assert len(result.fractional_indices) == 2


class TestRealize:
    def test_merges_adjacent_cells(self):
        nu = lebesgue_identity(4)
        result = realize_intervals(nu, FractionalSet((1.0, 1.0, 0.0, 0.0)))
        assert result.intervals == ((0.0, 0.5),)
        assert result.interval_count == 1

    def test_leftmost_convention(self):
        nu = lebesgue_identity(4)
        result = realize_intervals(nu, FractionalSet((0.5, 0.0, 0.0, 0.0)))
        assert result.intervals == ((0.0, 0.125),)

    def test_fraction_after_full_cell_merges(self):
        nu = lebesgue_identity(4)
        result = realize_intervals(nu, FractionalSet((1.0, 0.5, 0.0, 1.0)))
        assert result.intervals == ((0.0, 0.375), (0.75, 1.0))

    def test_atomic_obstruction(self):
        nu = uhl_model(3)
        with pytest.raises(errors.AtomicObstruction):
            realize_intervals(nu, FractionalSet((0.5, 0.0, 0.0)))

    def test_target_of_other_dimension_rejected(self):
        nu = random_povm(2, 6, rng_from_seed(61))
        with pytest.raises(errors.ShapeMismatch):
            realize_intervals(nu, FractionalSet((0.5,) * 6), target=np.eye(3))

    def test_exactness_of_realization(self):
        for trial in range(20):
            rng = rng_from_seed(1000 + trial)
            nu = random_povm(2, int(rng.integers(5, 30)), rng)
            h = purify(nu, FractionalSet(tuple(rng.random(nu.space.n_cells)))).h_final
            result = realize_intervals(nu, h)
            back = fractional_from_intervals(nu.space, result.intervals)
            value = evaluate_fractional(nu, back)
            scale = max(1.0, opcore.op_norm(nu.total_mass()))
            assert opcore.op_norm(value - result.achieved) <= 1e-12 * scale

    def test_matches_cell_by_cell_loop(self):
        # The array pass gives the reference loop's intervals bit for bit.
        # Cell widths span seven orders of magnitude and some fractions lie
        # within 1e-12 to 1e-11 of 1: on narrow cells lo + t * width rounds
        # to the right breakpoint, so whether the next cell merges rests on
        # float equality.
        rounded = 0
        for trial in range(300):
            rng = rng_from_seed(9100 + trial)
            m = int(rng.integers(1, 60))
            bp = np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-7, 0, m)])
            space = SampleSpace(0.0, float(bp[-1]), tuple(bp.tolist()))
            nu = random_povm(1 + trial % 2, m, rng, space=space)
            h = FractionalSet(tuple(np.choose(rng.integers(0, 4, m), [
                np.zeros(m), np.ones(m), rng.random(m), 1.0 - 10.0 ** rng.uniform(-12, -11, m)])))
            vec = lyapunov._cell_fractions(nu, h)
            want = intervals_cell_by_cell(space.breakpoints, vec)
            assert realize_intervals(nu, h).intervals == want
            frac = np.flatnonzero((vec > 0.0) & (vec < 1.0))
            rounded += np.count_nonzero(bp[frac] + vec[frac] * np.diff(bp)[frac] == bp[frac + 1])
        assert rounded > 0

    def test_interval_count_bound_on_purified_instances(self):
        # 200 random purified instances stay below m + d^2 intervals.
        for trial in range(200):
            rng = rng_from_seed(2000 + trial)
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 25))
            nu = random_povm(d, m, rng)
            h = purify(nu, FractionalSet(tuple(rng.random(m)))).h_final
            result = realize_intervals(nu, h)
            assert result.interval_count <= m + d * d


class TestConvexCombine:
    def test_t_zero_returns_second_set(self):
        nu = random_povm(2, 10, RNG)
        e1, e2 = random_set(nu.space, RNG), random_set(nu.space, RNG)
        result = convex_combine(nu, e1, e2, 0.0)
        assert result.residual == 0.0
        assert opcore.op_norm(result.achieved - evaluate(nu, e2)) == 0.0

    def test_half_mix_of_everything_and_nothing(self):
        nu = lebesgue_identity(8, 2)
        result = convex_combine(nu, MeasurableSet.full(nu.space),
                                MeasurableSet.empty(nu.space), 0.5)
        assert opcore.op_norm(result.achieved - np.eye(2) / 2) <= 1e-12
        assert result.intervals == ((0.0, 0.5),)

    def test_random_mixes(self):
        nu = random_povm(2, 40, rng_from_seed(5))
        rng = rng_from_seed(6)
        for _ in range(20):
            e1, e2 = random_set(nu.space, rng), random_set(nu.space, rng)
            t = float(rng.random())
            target = t * evaluate(nu, e1) + (1 - t) * evaluate(nu, e2)
            result = convex_combine(nu, e1, e2, t)
            assert opcore.op_norm(result.achieved - target) <= 1e-9
            assert result.residual <= 1e-9
            assert result.interval_count <= 44

    @pytest.mark.parametrize("t", ["0.5", 0.5 + 0j, None, np.array([0.5, 0.5]),
                                   True, np.bool_(False)],
                             ids=["str", "complex", "None", "array", "bool", "numpy_bool"])
    def test_weight_not_a_real_number_rejected(self, t):
        nu = random_povm(2, 6, rng_from_seed(62))
        e1, e2 = MeasurableSet.full(nu.space), MeasurableSet.empty(nu.space)
        for weight in (0.25, np.float64(0.25), np.float32(0.25)):
            assert convex_combine(nu, e1, e2, weight).residual <= 1e-12
        with pytest.raises(errors.InvalidInput):
            convex_combine(nu, e1, e2, t)

    def test_differing_atoms_obstruct(self):
        nu = single_atom_measure()
        e1 = MeasurableSet((False,), (True,))
        e2 = MeasurableSet((False,), (False,))
        with pytest.raises(errors.AtomicObstruction):
            convex_combine(nu, e1, e2, 0.5)

    def test_agreeing_atoms_pass_through(self):
        space = SampleSpace.uniform(4, atom_sites=(0.5,))
        masses = np.full((4, 1, 1), 0.2, dtype=complex)
        nu = grid_ovm(space, masses, atom_masses=np.array([[[0.2]]], dtype=complex))
        e1 = MeasurableSet((True, True, False, False), (True,))
        e2 = MeasurableSet((False, False, True, False), (True,))
        result = convex_combine(nu, e1, e2, 0.25)
        assert result.residual <= 1e-12
        assert result.atom_indices == (0,)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_mix_takes_few_steps(self, d):
        # Phase 1 over the differing cells from the nearest prefix vertex:
        # at most m // 4 steps, where purifying the mix takes about m / 2.
        m = 400
        for trial in range(5):
            rng = rng_from_seed(8800 + 10 * trial + d)
            nu = random_povm(d, m, rng)
            e1, e2 = random_set(nu.space, rng), random_set(nu.space, rng)
            result = convex_combine(nu, e1, e2, float(rng.random()))
            assert result.residual <= 1e-9
            assert result.iterations <= m // 4

    def test_longdouble_weight_mixes_as_a_float64_fractional_set(self):
        # The mix is formed in the weight's own precision and held in
        # float64, as FractionalSet holds it: the residual is measured
        # against that FractionalSet's value, bit for bit.
        rng = rng_from_seed(2890)
        nu = random_povm(2, 30, rng)
        for t in (np.longdouble(0.3), np.longdouble(1) / 3, np.longdouble(0.7) ** 3,
                  np.nextafter(np.longdouble(1), np.longdouble(0))):
            e1, e2 = random_set(nu.space, rng), random_set(nu.space, rng)
            result = convex_combine(nu, e1, e2, t)
            mix = FractionalSet(t * e1.cell_mask + (1 - t) * e2.cell_mask,
                                e1.atom_mask & e2.atom_mask)
            target = evaluate_fractional(nu, mix)
            assert result.achieved.dtype == np.complex128
            assert result.residual == opcore.op_norm(result.achieved - target)

    def test_not_positive_rejected(self):
        nu = scalar_grid([0.5, -0.5, 0.5, 0.5])
        e1 = MeasurableSet((True, True, False, False))
        e2 = MeasurableSet((False, True, True, True))
        with pytest.raises(errors.NotPositive):
            convex_combine(nu, e1, e2, 0.4)

    def test_equal_sets_return_the_set(self):
        nu = random_povm(2, 30, rng_from_seed(63))
        e = random_set(nu.space, rng_from_seed(64))
        for t in (0.3, 0.5, 0.9):
            result = convex_combine(nu, e, e, t)
            assert result.iterations == 0
            whole = realize_intervals(nu, fractional_from_measurable(e))
            assert result.intervals == whole.intervals

    def test_agreed_null_cell_stays(self):
        # Cell 1 is null and in both sets: it stays in E, whole.
        nu = scalar_grid([0.25, 0.0, 0.25, 0.25, 0.25])
        e1 = MeasurableSet((True, True, False, True, False))
        e2 = MeasurableSet((False, True, True, False, False))
        result = convex_combine(nu, e1, e2, 0.5)
        assert result.residual <= 1e-12
        assert any(lo <= 0.2 and hi >= 0.4 for lo, hi in result.intervals)

    def test_indivisible_differing_cells_keep_obstruction_reasons(self):
        # uhl_model's cells are indivisible: each mix is rejected before any
        # solve, and each trial fails with the AtomicObstruction it has always
        # reported.
        cells = [[0, 2, 4], [2, 4], [0, 1, 2, 4], [0, 2], [1, 2, 5], [0, 1, 3, 4],
                 [0, 1, 4, 5], [0, 1, 4], [0, 2, 5], [0, 2, 5], [0, 1, 2, 5], [1, 2, 3, 5],
                 [2, 5], [2, 4], [0, 2, 4, 5], [1], [0, 2, 3, 4, 5], [0, 1, 3, 4],
                 [0, 3, 4], [0, 3, 4], [1, 3, 5], [0, 3], [2, 3, 4, 5], [0, 3, 4, 5],
                 [0, 2, 4]]
        report = convexity_certificate(uhl_model(6), 25, 11)
        assert [f.reason for f in report.failures] == [
            f"AtomicObstruction: fractional cells {c} are indivisible" for c in cells]

    def test_one_path_without_purify(self, monkeypatch):
        # No mix reaches purify: a fractional indivisible cell is rejected
        # before any solve, a measure that is not positive up front, and a
        # weight within SNAP_TOL of 0 or 1 snaps onto E2 or E1.
        def forbidden(*args):
            raise AssertionError("convex_combine called purify")

        monkeypatch.setattr(lyapunov, "purify", forbidden)
        space = SampleSpace(0.0, 1.0, tuple(np.linspace(0.0, 1.0, 7)),
                            divisible=(True,) * 4 + (False,) * 2)
        nu = grid_ovm(space, np.full((6, 1, 1), 1.0 / 6, dtype=complex))
        e1 = MeasurableSet((True, False, True, False, True, False))
        e2 = MeasurableSet((False, True, True, False, False, True))
        with pytest.raises(errors.AtomicObstruction) as err:
            convex_combine(nu, e1, e2, 0.3)
        assert err.value.cells == (4, 5)
        assert str(err.value) == "fractional cells [4, 5] are indivisible"
        bp = space.breakpoints
        assert convex_combine(nu, e1, e2, 1e-13).intervals == ((bp[1], bp[3]), (bp[5], bp[6]))
        assert convex_combine(nu, e1, e2, 1.0 - 1e-13).intervals == (
            (bp[0], bp[1]), (bp[2], bp[3]), (bp[4], bp[5]))
        uhl = uhl_model(6)
        with pytest.raises(errors.AtomicObstruction):
            convex_combine(uhl, MeasurableSet.full(uhl.space), MeasurableSet.empty(uhl.space), 0.5)
        signed = scalar_grid([0.5, -0.5, 0.5, 0.5])
        with pytest.raises(errors.NotPositive):
            convex_combine(signed, MeasurableSet((True, True, False, False)),
                           MeasurableSet((False, True, True, True)), 0.4)


class TestAttain:
    def test_stacked_target_or_witness_rejected(self):
        nu = random_povm(2, 24, RNG)
        half = nu.total_mass() / 2
        stack = np.stack([half] * 2)
        with pytest.raises(errors.InvalidInput):
            attain(nu, stack)
        with pytest.raises(errors.InvalidInput):
            check_separation(nu, stack, np.eye(2))
        with pytest.raises(errors.InvalidInput):
            check_separation(nu, half, np.stack([np.eye(2)] * 2))
        with pytest.raises(errors.ShapeMismatch):
            check_separation(nu, half, np.eye(3))

    def test_half_total(self):
        nu = random_povm(2, 24, RNG)
        result = attain(nu, nu.total_mass() / 2)
        assert result.residual <= 1e-9

    def test_full_total_is_whole_space(self):
        nu = lebesgue_identity(6, 2)
        result = attain(nu, nu.total_mass())
        assert result.intervals == ((0.0, 1.0),)
        assert result.residual <= 1e-12

    def test_double_total_not_in_hull(self):
        nu = lebesgue_identity(6, 2)
        with pytest.raises(errors.TargetNotInHull):
            attain(nu, 2 * nu.total_mass())

    def test_feasible_random_targets(self):
        nu = random_povm(3, 30, rng_from_seed(8))
        rng = rng_from_seed(9)
        for _ in range(10):
            h = rng.random(30)
            target = np.tensordot(h, nu.cell_masses, axes=1)
            result = attain(nu, target)
            assert result.residual <= 1e-9 * max(1.0, opcore.op_norm(target))
            assert result.fractional_count <= 9
            box = OperatorInterval(np.zeros((3, 3)), nu.total_mass())
            assert box.contains(result.achieved)

    def test_atomic_measure_rejected(self):
        with pytest.raises(errors.AtomicObstruction):
            attain(single_atom_measure(), np.array([[0.5]]))
        with pytest.raises(errors.AtomicObstruction):
            attain(uhl_model(4), np.eye(4) / 2)


def _null_cell_measure():
    """random_povm(2, 200) with every ninth cell exactly null and every
    ninth from the fifth null by OVM.massive's rule (1e-14 * I)."""
    nu = random_povm(2, 200, rng_from_seed(3403))
    masses = nu.cell_masses.copy()
    masses[::9] = 0.0
    masses[4::9] = 1e-14 * np.eye(2)
    return grid_ovm(nu.space, masses)


class TestAttainRealization:
    """attain realizes its phase-1 vertex bit for bit as realize_intervals
    realizes that vertex, snapped, with the steps added."""

    @staticmethod
    def assert_realizes_vertex(nu, target):
        a_mat = opcore.hermitian(target)
        scale = nu.total_norm or 1.0
        h, _, objective, steps = lyapunov._phase_one(nu.cell_coords.T / scale,
                                                     opcore.herm_coords(a_mat) / scale)
        if objective > lyapunov.SIMPLEX_TOL:
            with pytest.raises(errors.TargetNotInHull):
                attain(nu, target)
            return
        vertex = FractionalSet(lyapunov._snap(h), np.zeros(nu.space.n_atoms, bool))
        want = replace(realize_intervals(nu, vertex, target=a_mat), iterations=steps)
        got = attain(nu, target)
        assert got.intervals == want.intervals
        assert got.atom_indices == want.atom_indices
        assert got.achieved.tobytes() == want.achieved.tobytes()
        assert got.residual == want.residual
        assert got.iterations == want.iterations
        assert got.fractional_count == want.fractional_count

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [200, 1000, 2000])
    def test_interior_grid(self, d, m):
        nu = random_povm(d, m, rng_from_seed(3400 + 10 * d + m))
        rng = rng_from_seed(d * m)
        self.assert_realizes_vertex(nu, np.tensordot(rng.uniform(0.01, 0.99, m),
                                                     nu.cell_masses, axes=1))

    def test_null_cells_vertices_and_faces(self):
        nu = _null_cell_measure()
        assert (~nu.massive).sum() == 23 + 22
        for target in (*_target_classes(nu, rng_from_seed(3404)).values(),
                       evaluate(nu, MeasurableSet(rng_from_seed(3405).random(200) < 0.5))):
            self.assert_realizes_vertex(nu, target)


def _target_classes(nu, rng):
    """Interior, 0.999, face, nu(X) and 1.01 targets: the face is
    nu({k : tr(W M_k) > 0}) for a random Hermitian W, and 0.999 and 1.01
    lie that far along the segment from the interior point to it."""
    masses = nu.cell_masses
    interior = np.tensordot(rng.random(len(masses)), masses, axes=1)
    x = rng.standard_normal((nu.dim, nu.dim)) + 1j * rng.standard_normal((nu.dim, nu.dim))
    face = masses[np.einsum("ij,kji->k", x + x.conj().T, masses).real > 0].sum(axis=0)
    return {"interior": interior, "0.999": interior + 0.999 * (face - interior),
            "face": face, "total": masses.sum(axis=0),
            "1.01": interior + 1.01 * (face - interior)}


class TestAttainOracle:
    """attain against scipy's HiGHS on the feasibility LP of each target."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [200, 1000, 2000])
    def test_attains_or_certifies(self, d, m):
        linprog = pytest.importorskip("scipy.optimize").linprog
        nu = random_povm(d, m, rng_from_seed(1000 * d + m))
        masses = nu.cell_masses
        coords = opcore.herm_coords(masses).T
        for name, target in _target_classes(nu, rng_from_seed(m + d)).items():
            lp = linprog(np.zeros(m), A_eq=coords, b_eq=opcore.herm_coords(target),
                         bounds=(0.0, 1.0), method="highs-ipm")
            assert lp.status == (2 if name == "1.01" else 0), (name, lp.message)
            if lp.status == 0:
                result = attain(nu, target)
                lo, hi = np.asarray(result.intervals).reshape(-1, 2).T[:, :, None]
                bp = np.asarray(nu.space.breakpoints)
                overlap = np.minimum(hi, bp[1:]) - np.maximum(lo, bp[:-1])
                share = np.clip(overlap, 0.0, None).sum(axis=0) / np.diff(bp)
                realized = np.tensordot(share, masses, axes=1)
                limit = 1e-9 * max(1.0, opcore.op_norm(target))
                assert result.residual <= limit, name
                assert opcore.op_norm(realized - target) <= limit, name
                assert result.fractional_count <= d * d, name
                w = random_hermitian(d, rng_from_seed(7 * m + d))
                scale = max(1.0, opcore.op_norm(nu.total_mass()))
                assert check_separation(nu, target, w) <= 1e-9 * scale, name
                continue
            with pytest.raises(errors.TargetNotInHull) as caught:
                attain(nu, target)
            w = caught.value.witness
            gap = (np.einsum("ij,ji->", w, target).real
                   - np.maximum(np.einsum("ij,kji->k", w, masses).real, 0.0).sum())
            assert gap > 0.0
            assert gap == pytest.approx(caught.value.gap, rel=1e-9)
            assert check_separation(nu, target, w) == pytest.approx(caught.value.gap, rel=1e-9)


class TestPhaseOneStart:
    """_phase_one starts at the prefix vertex 1_[0, j) nearest the goal."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [200, 1000, 2000])
    def test_interior_target_within_quarter_steps(self, d, m):
        # TestAttainOracle's instances and interior targets.  From a vertex
        # on the far side of the range, such as 1{tr((A - nu(X)/2) M_k) > 0},
        # the simplex walks 0.27-0.69 m steps to them.
        nu = random_povm(d, m, rng_from_seed(1000 * d + m))
        interior = _target_classes(nu, rng_from_seed(m + d))["interior"]
        assert attain(nu, interior).iterations <= m // 4
        assert attain(nu, nu.total_mass()).iterations == 0


def test_degenerate_vertex_switches_to_bland(monkeypatch):
    # The goal is 1_[0, 30) moved by 1e-3 along a direction delta of cells
    # 25-34 in the kernel of rows 0-7, negative inside the prefix and
    # positive past it.  The start is that prefix, with a residual on row 8
    # only: eight artificials basic at 0, a degenerate vertex whose runs of
    # zero-length pivots hand pricing to Bland's rule.
    coords = rng_from_seed(57).random((9, 60)) + 0.1
    kernel = np.linalg.svd(coords[:8, 25:35])[2][8:]
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    deltas = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ kernel
    fit = deltas[(deltas[:, :5] < 0.0).all(axis=1) & (deltas[:, 5:] > 0.0).all(axis=1)]
    assert len(fit) > 0
    delta = fit.mean(axis=0)
    h = (np.arange(60) < 30).astype(float)
    h[25:35] += 1e-3 * delta / np.abs(delta).max()
    goal = coords @ h
    bland_calls = []
    entering = lyapunov._entering

    def spy(gain, bland):
        bland_calls.append(bland)
        return entering(gain, bland)

    monkeypatch.setattr(lyapunov, "_entering", spy)
    first = lyapunov._phase_one(coords, goal)
    assert sum(bland_calls) > 0
    assert first[2] <= lyapunov.SIMPLEX_TOL
    again = lyapunov._phase_one(coords, goal)
    assert np.array_equal(again[0], first[0])
    assert again[3] == first[3]


def _stack_programs(d, rng, count):
    """``count`` phase-1 programs on d^2 rows with m = 2-300 cells each, the
    goals cycling through an interior point, a vertex of the range's face in
    a random direction, 1.01 times that vertex (infeasible), an interior
    point over columns repeated ten times (ties for Bland's rule) and the
    value of a 0/1 vector."""
    programs = []
    for j in range(count):
        m = int(rng.integers(2, 301))
        coords = random_povm(d, m, rng).cell_coords.T.copy()
        kind = j % 5
        if kind == 3:
            coords = np.repeat(coords[:, :-(-m // 10)], 10, axis=1)[:, :m].copy()
        if kind in (1, 2):
            direction = rng.standard_normal(d * d)
            direction[0] = abs(direction[0])  # for d = 1, the whole space
            face = (direction @ coords > 0.0).astype(float)
            goal = (1.0 if kind == 1 else 1.01) * (coords @ face)
        else:
            h = rng.random(m) if kind in (0, 3) else (rng.random(m) < 0.5).astype(float)
            goal = coords @ h
        programs.append((coords, goal))
    return programs


def _bland_program():
    """The degenerate vertex of test_degenerate_vertex_switches_to_bland, on
    nine rows: runs of zero-length pivots there hand pricing and the ratio
    test to Bland's rule."""
    coords = rng_from_seed(57).random((9, 60)) + 0.1
    kernel = np.linalg.svd(coords[:8, 25:35])[2][8:]
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    deltas = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ kernel
    delta = deltas[(deltas[:, :5] < 0.0).all(axis=1) & (deltas[:, 5:] > 0.0).all(axis=1)]
    h = (np.arange(60) < 30).astype(float)
    h[25:35] += 1e-3 * delta.mean(axis=0) / np.abs(delta.mean(axis=0)).max()
    return coords, coords @ h


def _basis_on_rows(column, xb, ub, basis=None):
    """A _Basis whose rows hold basic values ``xb`` and upper bounds ``ub``,
    with binv = I, so that nonbasic column 0 has basis column ``column``;
    row i holds basic column basis[i] (default i + 1)."""
    d = len(column)
    order = np.arange(1, d + 1) if basis is None else np.asarray(basis)
    value, upper = np.zeros(d + 1), np.ones(d + 1)
    value[order], upper[order] = xb, ub
    b = lyapunov._Basis(np.hstack([np.asarray(column, float)[:, None], np.eye(d)]),
                        value, upper, order.copy())
    b.binv, b.since_refactor = np.eye(d), 0
    return b


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_ratio_test(b, q, sign, limit):
    """_Basis.push and blocking, on the current state of ``b``, give the
    numpy reference's t, rates, room and leaving rows bit for bit; returns
    push's (t, room)."""
    fall = sign * (b.binv @ b.cols[:, q])
    want_t, want_room = ratio_test_numpy(b.xb, np.array(b.ub), fall, limit)
    want_xb = b.xb - want_t * fall
    t, _, got_fall, room = b.push(q, sign, limit)
    assert type(t) is float and _bits(t) == _bits(want_t)
    assert _bits(room) == _bits(want_room) and _bits(got_fall) == _bits(fall)
    assert _bits(b.xb) == _bits(want_xb)
    for bland in (False, True):
        want = blocking_numpy(want_room, fall, b.basis, len(b.value), want_t, bland)
        assert b.blocking(room, got_fall, t, bland) == want
    return t, room


PIVOT = opcore.PIVOT_TOL


class TestBasisRatioTest:
    """_Basis runs its ratio test and picks its leaving row over Python
    floats; each must match the numpy formulas of helpers bit for bit."""

    def test_rates_within_pivot_tol_have_no_room(self):
        above = np.nextafter(PIVOT, 1.0)
        column = [PIVOT, -PIVOT, PIVOT / 2, -PIVOT / 2, 0.0, -0.0, above, -above]
        for sign in (1.0, -1.0):
            b = _basis_on_rows(column, [0.5] * 8, [1.0] * 8)
            t, room = _assert_ratio_test(b, 0, sign, 1.0)
            assert room[:6] == [np.inf] * 6 and t == 1.0
            assert np.isfinite(room[6:]).all()

    def test_negative_room_clamps_t_to_positive_zero(self):
        b = _basis_on_rows([1.0, -1.0, 0.5], [-1e-15, 1.0 + 1e-15, 0.5], [1.0, 1.0, 1.0])
        t, room = _assert_ratio_test(b, 0, 1.0, 1.0)
        assert room[0] < 0.0 and room[1] < 0.0 and _bits(t) == _bits(0.0)
        assert b.blocking(room, [1.0, -1.0, 0.5], t) == 0

    def test_artificial_with_infinite_bound(self):
        for limit, want in ((1.0, 1.0), (2.0, 1.6)):
            b = _basis_on_rows([-1.0, -0.5], [0.3, 0.2], [np.inf, 1.0])
            t, room = _assert_ratio_test(b, 0, 1.0, limit)
            assert room[0] == np.inf and t == want

    def test_exact_fall_ties_take_the_first_row(self):
        # Rows 0-2 have room 0.5 and |fall| 0.5; row 3 has room within
        # SIMPLEX_TOL of it and a larger |fall|, unless it is moved away.
        for nudge, want in ((0.0, 3), (1.0, 0)):
            b = _basis_on_rows([0.5, -0.5, 0.5, 0.75], [0.25, 0.75, 0.25, 0.375 + nudge],
                               [1.0] * 4)
            t, room = _assert_ratio_test(b, 0, 1.0, 1.0)
            assert t == 0.5 and room[:3] == [0.5] * 3
            assert b.blocking(room, [0.5, -0.5, 0.5, 0.75], t) == want

    def test_bland_takes_the_lowest_basic_column(self):
        b = _basis_on_rows([0.25, 0.5, 0.5, 1.0], [0.5, 0.25, 0.25, 0.9], [1.0] * 4,
                           basis=[4, 3, 1, 2])
        fall = [0.25, 0.5, 0.5, 1.0]
        t, room = _assert_ratio_test(b, 0, 1.0, 1.0)
        assert t == 0.5 and b.blocking(room, fall, t, True) == 2
        assert b.blocking(room, fall, t) == 1

    def test_limit_below_every_room(self):
        b = _basis_on_rows([0.5, -0.5], [0.4, 0.4], [1.0, np.inf])
        t, room = _assert_ratio_test(b, 0, -1.0, 0.1)
        assert t == 0.1 and min(room) > 0.1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_numpy_on_mixed_rows(self, data):
        d = data.draw(st.integers(1, 16))
        column = data.draw(st.lists(st.sampled_from(
            [0.0, -0.0, PIVOT, -PIVOT, PIVOT / 2, 2 * PIVOT, -2 * PIVOT, 0.5, -0.5, 0.25, 1.0,
             -1.0, 3.0, -1e-3]),
            min_size=d, max_size=d))
        xb = data.draw(st.lists(st.sampled_from(
            [0.0, -0.0, -1e-15, 1e-300, 0.125, 0.25, 0.5, 1.0, 1.0 + 1e-15]),
            min_size=d, max_size=d))
        ub = data.draw(st.lists(st.sampled_from([1.0, np.inf, 0.0]), min_size=d, max_size=d))
        basis = 1 + np.array(data.draw(st.permutations(range(d))))
        b = _basis_on_rows(column, xb, ub, basis)
        _assert_ratio_test(b, 0, data.draw(st.sampled_from([1.0, -1.0])),
                           data.draw(st.sampled_from([1.0, 0.5, 1e-13, 0.0])))

    def test_every_step_of_phase_one_matches(self, monkeypatch):
        # Flips, Dantzig and Bland exchanges on real programs.
        push, steps = lyapunov._Basis.push, []

        def push_spy(basis, q, sign, limit):
            xb, ub = basis.xb.copy(), np.array(basis.ub)
            fall = sign * (basis.binv @ basis.cols[:, q])
            out = push(basis, q, sign, limit)
            t, room = ratio_test_numpy(xb, ub, fall, limit)
            assert _bits(out[0]) == _bits(t) and _bits(out[3]) == _bits(room)
            for bland in (False, True):
                want = blocking_numpy(room, fall, basis.basis, len(basis.value), t, bland)
                assert basis.blocking(out[3], out[2], out[0], bland) == want
            steps.append(out[0])
            return out

        monkeypatch.setattr(lyapunov._Basis, "push", push_spy)
        for program in [_bland_program()] + _stack_programs(3, rng_from_seed(2604), 10):
            lyapunov._phase_one(*program)
        assert len(steps) > 100 and steps.count(1.0) >= 1


class TestPhaseOneStack:
    """_phase_one_stack steps many programs in lockstep and must return what
    _phase_one returns for each, bit for bit."""

    @staticmethod
    def assert_same(stacked, alone):
        h, duals, objective, steps = alone
        assert stacked[0].tobytes() == h.tobytes()
        assert np.asarray(stacked[1]).tobytes() == np.asarray(duals).tobytes()
        assert stacked[2] == objective
        assert stacked[3] == steps

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_one_by_one(self, d):
        programs = _stack_programs(d, rng_from_seed(2600 + d), 45)
        alone = [lyapunov._phase_one(*p) for p in programs]
        stacked = lyapunov._phase_one_stack(programs)
        assert len(stacked) == len(programs)
        for got, want in zip(stacked, alone):
            self.assert_same(got, want)
        assert sum(objective > lyapunov.SIMPLEX_TOL for _, _, objective, _ in alone) >= 8
        if d > 1:  # refactored after REFACTOR_EVERY exchanges
            assert max(steps for *_, steps in alone) > lyapunov.REFACTOR_EVERY

    def test_degenerate_vertex_in_a_stack(self, monkeypatch):
        # The degenerate vertex of test_degenerate_vertex_switches_to_bland,
        # where pricing turns to Bland's rule, stacked with wider programs
        # on the same nine rows.
        coords = rng_from_seed(57).random((9, 60)) + 0.1
        kernel = np.linalg.svd(coords[:8, 25:35])[2][8:]
        angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        deltas = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ kernel
        delta = deltas[(deltas[:, :5] < 0.0).all(axis=1) & (deltas[:, 5:] > 0.0).all(axis=1)]
        h = (np.arange(60) < 30).astype(float)
        h[25:35] += 1e-3 * delta.mean(axis=0) / np.abs(delta.mean(axis=0)).max()
        programs = [(coords, coords @ h)] + _stack_programs(3, rng_from_seed(2610), 5)
        bland = []
        entering = lyapunov._entering

        def spy(gain, use_bland):
            bland.append(use_bland)
            return entering(gain, use_bland)

        monkeypatch.setattr(lyapunov, "_entering", spy)
        alone = [lyapunov._phase_one(*p) for p in programs]
        assert any(bland)
        for got, want in zip(lyapunov._phase_one_stack(programs), alone):
            self.assert_same(got, want)

    def test_prefix_tie_starts_alike(self):
        # The goal lies halfway between the prefix vertices 1_[0, 9) and
        # 1_[0, 10) of attain's own coordinates (the transposed, F-ordered
        # cell rows) on 16 rows, so round-off in the distances picks the
        # start.  Both engines must add the squared gaps over the rows in
        # one order: numpy adds a contiguous axis pairwise from nine
        # entries on and a strided one in sequence.
        nu = random_povm(4, 24, rng_from_seed(0))
        coords = nu.cell_coords.T / nu.total_norm
        prefix = np.cumsum(coords, axis=1)
        goal = (prefix[:, 8] + prefix[:, 9]) / 2
        programs = [(coords, goal)] + _stack_programs(4, rng_from_seed(2611), 3)
        alone = [lyapunov._phase_one(*p) for p in programs]
        for got, want in zip(lyapunov._phase_one_stack(programs), alone):
            self.assert_same(got, want)

    def test_flips_and_bland_exchanges_on_both_engines(self, monkeypatch):
        # The row-ordered basic values, bounds and costs are updated by a
        # bound flip (a push of length 1.0, the basis kept) and by an
        # exchange whose leaving row Bland's rule picks; face targets take
        # flips and the degenerate vertex takes Bland's rule.  The stack
        # must match _phase_one through both.
        programs = [_bland_program()] + _stack_programs(3, rng_from_seed(2604), 10)
        lengths, bland = [], []
        push, blocking = lyapunov._Basis.push, lyapunov._Basis.blocking

        def push_spy(basis, q, sign, limit):
            out = push(basis, q, sign, limit)
            lengths.append(out[0])
            return out

        def blocking_spy(basis, room, fall, t, use_bland=False):
            bland.append(use_bland)
            return blocking(basis, room, fall, t, use_bland)

        monkeypatch.setattr(lyapunov._Basis, "push", push_spy)
        monkeypatch.setattr(lyapunov._Basis, "blocking", blocking_spy)
        alone = [lyapunov._phase_one(*p) for p in programs]
        assert lengths.count(1.0) >= 1 and any(bland)
        for got, want in zip(lyapunov._phase_one_stack(programs), alone):
            self.assert_same(got, want)


def test_repeated_masses_attained_deterministically():
    # Twenty cells repeated twenty times each: ties everywhere.
    base = random_povm(4, 20, rng_from_seed(3)).cell_masses
    nu = grid_ovm(SampleSpace.uniform(400), np.repeat(base, 20, axis=0) / 20)
    target = nu.total_mass() / 3
    first = attain(nu, target)
    assert first.residual <= 1e-9
    again = attain(nu, target)
    assert again.intervals == first.intervals
    assert again.iterations == first.iterations


@st.composite
def _fuzz_targets(draw):
    """A measure of one of the five FAMILIES with m <= 60 and its interior,
    face, 0.999 and 1 + 1e-6 targets (_target_classes)."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(d * d, 54))
    seed = draw(st.integers(0, 2**32 - 1))
    nu = FAMILIES[family](d, m, rng_from_seed(seed))
    classes = _target_classes(nu, rng_from_seed(seed + 1))
    interior, face = classes["interior"], classes["face"]
    targets = {name: classes[name] for name in ("interior", "face", "0.999")}
    targets["past"] = interior + (1.0 + 1e-6) * (face - interior)
    return family, nu, targets


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_fuzz_targets())
def test_attain_agrees_with_linprog(case):
    # Targets in the range are attained within 1e-9 * max(1, ||A||) with at
    # most D fractional cells; the one past a face is rejected with a gap
    # that rechecks, exactly when HiGHS finds the scaled LP infeasible.
    linprog = pytest.importorskip("scipy.optimize").linprog
    family, nu, targets = case
    scale = nu.total_norm
    coords = nu.cell_coords.T / scale
    for name, target in targets.items():
        lp = linprog(np.zeros(coords.shape[1]), A_eq=coords,
                     b_eq=opcore.herm_coords(target) / scale, bounds=(0.0, 1.0), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10})
        assert lp.status == (2 if name == "past" else 0), (family, name, lp.message)
        if lp.status == 0:
            result = attain(nu, target)
            assert result.residual <= 1e-9 * max(1.0, opcore.op_norm(target)), (family, name)
            assert result.fractional_count <= nu.dim ** 2, (family, name)
            continue
        with pytest.raises(errors.TargetNotInHull) as caught:
            attain(nu, target)
        assert caught.value.gap > 0.0
        assert check_separation(nu, target, caught.value.witness) == pytest.approx(
            caught.value.gap, rel=1e-9)


@st.composite
def _fuzz_mixes(draw):
    """A random POVM on m <= 60 cells, about a fifth of its items null, with
    two atoms, the second null; two sets that agree on the first atom; and a
    weight strictly inside (0, 1)."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 60))
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    masses = random_povm(d, m + 2, rng).cell_masses.copy()
    masses[rng.random(m + 2) < 0.2] = 0.0
    masses[m + 1] = 0.0
    nu = grid_ovm(SampleSpace.uniform(m, atom_sites=(0.25, 0.75)), masses[:m], masses[m:])
    e1, e2 = random_set(nu.space, rng), random_set(nu.space, rng)
    e2 = MeasurableSet(e2.cell_mask, (e1.atom_mask[0], e2.atom_mask[1]))
    t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return nu, e1, e2, t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_fuzz_mixes())
def test_convex_combine_fuzz(case):
    # The mix is realized within 1e-9 * max(1, ||nu(X)||) with at most d^2
    # split cells, and E1 & E2 <= E <= E1 | E2 item by item: cells in both
    # sets are whole in E, cells in neither are absent.
    nu, e1, e2, t = case
    result = convex_combine(nu, e1, e2, t)
    assert result.residual <= 1e-9 * max(1.0, nu.total_norm)
    assert result.fractional_count <= nu.dim ** 2
    s1, s2 = nu.space.selector(e1), nu.space.selector(e2)
    m = nu.space.n_cells
    bp = np.asarray(nu.space.breakpoints)
    lo, hi = np.asarray(result.intervals).reshape(-1, 2).T[:, :, None]
    covered = np.clip(np.minimum(hi, bp[1:]) - np.maximum(lo, bp[:-1]), 0.0, None).sum(axis=0)
    both, neither = (s1 & s2)[:m], ~(s1 | s2)[:m]
    assert np.array_equal(covered[both], np.diff(bp)[both])
    assert not covered[neither].any()
    atoms = np.isin(np.arange(nu.space.n_atoms), result.atom_indices)
    assert (atoms >= (s1 & s2)[m:]).all() and (atoms <= (s1 | s2)[m:]).all()


class TestJointAttain:
    def test_three_scalar_halves(self):
        mus = singular_blocks(3)
        targets = [np.array([[0.5]])] * 3
        result = joint_attain(mus, targets)
        assert result.residual <= 1e-9

    def test_disjoint_support_tuple(self):
        mus = singular_blocks(4)
        lam = [0.1, 0.5, 0.9, 0.3]
        result = joint_attain(mus, [np.array([[x]]) for x in lam])
        assert result.residual <= 1e-10
        assert np.allclose(result.achieved.diagonal().real, lam, atol=1e-10)

    def test_single_measure_classical_case(self):
        mu = scalar_grid([0.25, 0.25, 0.25, 0.25])
        result = joint_attain([mu], [np.array([[1.0 / 3.0]])])
        assert result.residual <= 1e-10

    def test_mismatched_lengths(self):
        with pytest.raises(errors.InvalidInput):
            joint_attain(singular_blocks(2), [np.array([[0.5]])])


class TestBruteForce:
    def test_single_atom_range(self):
        nu = single_atom_measure()
        values = sorted(float(v[0, 0].real) for _, v in brute_force_range(nu))
        assert values == [0.0, 0.0, 1.0, 1.0]  # cell carries nothing
        assert set(values) == {0.0, 1.0}

    def test_sets_match_values_across_cells_and_atoms(self):
        # Dyadic masses on two cells and two atoms: every one of the 16
        # sets is listed once, and its value is exactly its measure.
        space = SampleSpace.uniform(2, atom_sites=(0.25, 0.75))
        masses = np.array([1.0, 2.0, 4.0, 8.0]).reshape(4, 1, 1) / 16
        nu = grid_ovm(space, masses[:2], atom_masses=masses[2:])
        pairs = brute_force_range(nu)
        assert len({(e.cell_mask.tobytes(), e.atom_mask.tobytes()) for e, _ in pairs}) == 16
        assert all(np.array_equal(v, evaluate(nu, e)) for e, v in pairs)

    def test_quarter_masses_subset_sums(self):
        nu = scalar_grid([0.25, 0.25, 0.25, 0.25])
        values = sorted({float(v[0, 0].real) for _, v in brute_force_range(nu)})
        assert values == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_indicator_model_midpoint_gap(self):
        nu = uhl_model(12)
        half = nu.total_mass() / 2
        gap = min(opcore.op_norm(v - half) for _, v in brute_force_range(nu))
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_masks_match_values(self):
        nu = random_povm(2, 5, RNG)
        for e, v in brute_force_range(nu)[:16]:
            assert opcore.op_norm(v - evaluate(nu, e)) <= 1e-13

    def test_size_limit(self):
        with pytest.raises(errors.SizeLimit):
            brute_force_range(lebesgue_identity(23))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_uhl_demo_distance_matches_enumeration(self, m):
        nu = uhl_model(m)
        half = nu.total_mass() / 2
        expected = min(opcore.op_norm(v - half) for _, v in brute_force_range(nu))
        results, _ = uhl_demo(m)
        assert results["min_distance_to_half_total"] == expected


class TestCertificate:
    def test_nonatomic_full_pass(self):
        nu = random_povm(2, 40, rng_from_seed(7))
        report = convexity_certificate(nu, 100, 7)
        assert report.failures == ()
        assert report.max_residual <= 1e-9
        assert report.max_interval_count <= 44

    def test_single_atom_all_fail(self):
        report = convexity_certificate(single_atom_measure(), 100, 3)
        assert len(report.failures) == 100
        assert all("AtomicObstruction" in f.reason for f in report.failures)

    def test_indicator_model_obstructed(self):
        report = convexity_certificate(uhl_model(6), 25, 11)
        assert len(report.failures) > 0

    @pytest.mark.parametrize("trials, seed", [(-3, 1), (3, -1)])
    def test_negative_trials_or_seed_rejected(self, trials, seed):
        with pytest.raises(errors.InvalidInput):
            convexity_certificate(random_povm(2, 12, rng_from_seed(21)), trials, seed)

    def test_determinism_bitwise(self):
        nu = random_povm(2, 12, rng_from_seed(21))
        a = convexity_certificate(nu, 30, 99)
        b = convexity_certificate(nu, 30, 99)
        assert a.max_residual == b.max_residual
        assert a.max_interval_count == b.max_interval_count
        assert tuple(asdict(f) for f in a.failures) == tuple(asdict(f) for f in b.failures)


def _atom_measure(rng):
    """Twelve divisible cells and three atoms, the middle one null."""
    space = SampleSpace.uniform(12, atom_sites=(0.2, 0.5, 0.8))
    x = rng.uniform(-1, 1, (15, 2, 2)) + 1j * rng.uniform(-1, 1, (15, 2, 2))
    masses = x @ x.conj().swapaxes(1, 2) / 15
    masses[13] = 0.0
    return grid_ovm(space, masses[:12], masses[12:])


def _indivisible_measure(rng):
    """Ten cells, every third one indivisible."""
    space = SampleSpace(0.0, 1.0, tuple(np.linspace(0.0, 1.0, 11)),
                        divisible=tuple(k % 3 != 1 for k in range(10)))
    return random_povm(2, 10, rng, space=space)


class TestCertificateMatchesTrialByTrial:
    """All trials drawn first and solved as one stack give the report of a
    convex_combine call per trial (helpers.certificate_trial_by_trial)."""

    @pytest.mark.parametrize("case", range(32))
    def test_random_measures(self, case):
        rng = rng_from_seed(2620 + case)
        nu = random_povm(1 + case % 4, int(rng.integers(8, 101)), rng)
        seed = 100 + case
        assert (asdict(convexity_certificate(nu, 40, seed))
                == asdict(certificate_trial_by_trial(nu, 40, seed)))

    @pytest.mark.parametrize("build, reason", [
        (_atom_measure, "AtomicObstruction: atom selections differ on massive sites"),
        (_indivisible_measure, "AtomicObstruction: fractional cells ["),
    ])
    def test_obstructed_trials(self, build, reason):
        nu = build(rng_from_seed(2653))
        report = convexity_certificate(nu, 60, 17)
        assert asdict(report) == asdict(certificate_trial_by_trial(nu, 60, 17))
        assert 0 < sum(f.reason.startswith(reason) for f in report.failures) < 60
        if build is _indivisible_measure:
            assert all("are indivisible" in f.reason for f in report.failures)

    def test_not_positive_from_both(self):
        nu = scalar_grid([0.5, -0.5, 0.5, 0.5])
        with pytest.raises(errors.NotPositive) as stacked:
            convexity_certificate(nu, 10, 3)
        with pytest.raises(errors.NotPositive) as looped:
            certificate_trial_by_trial(nu, 10, 3)
        assert str(stacked.value) == str(looped.value)

    def test_blocks_of_trials(self, monkeypatch):
        # 29 trials in stacks of 7: the last one holds a single mix, which
        # goes to _phase_one.
        monkeypatch.setattr(lyapunov, "_STACK_MIXES", 7)
        nu = random_povm(2, 20, rng_from_seed(2657))
        assert (asdict(convexity_certificate(nu, 29, 8))
                == asdict(certificate_trial_by_trial(nu, 29, 8)))

    def test_odd_cells_massive_atoms_and_redraws(self):
        # Each pair is one draw of 2 (m + n) bits; with m + n = 7 the second
        # set starts mid-word.  Equal pairs are redrawn, and pairs that
        # differ on a massive atom are obstructed.
        space = SampleSpace.uniform(5, atom_sites=(0.3, 0.7))
        masses = np.array([1, 1, 2, 2, 1, 2, 1], dtype=complex).reshape(7, 1, 1) / 10
        nu = grid_ovm(space, masses[:5], masses[5:])
        redraws, draws = [], []
        want = certificate_trial_by_trial(nu, 40, 2813, redraws, draws)
        assert redraws
        assert any(f.reason.startswith("AtomicObstruction") for f in want.failures)
        assert asdict(convexity_certificate(nu, 40, 2813)) == asdict(want)
        rng = np.random.Generator(np.random.PCG64(2813))
        _assert_draws(nu, draws, [lyapunov._draw_mixes(nu, rng, 40)])

    def test_no_trials(self):
        nu = random_povm(2, 12, rng_from_seed(2654))
        report = convexity_certificate(nu, 0, 5)
        assert asdict(report) == asdict(certificate_trial_by_trial(nu, 0, 5))
        assert report.failures == () and report.max_residual == 0.0

    def test_endpoint_weights_in_one_call(self):
        # _combine realizes E2 at t = 0 and E1 at t = 1 as realize_intervals
        # does, mixed in one call with mixes that need phase 1, which match
        # one convex_combine call each.
        nu = random_povm(2, 30, rng_from_seed(2655))
        rng = rng_from_seed(2656)
        mixes = [(random_set(nu.space, rng), random_set(nu.space, rng), t)
                 for t in (0.0, 0.3, 1.0, 0.7, 0.0)]
        picks = np.array([[nu.space.mask(e1), nu.space.mask(e2)] for e1, e2, _ in mixes])
        combined = lyapunov._combine(nu, picks, np.array([t for _, _, t in mixes]))
        results = [combined.result(nu, b) for b in range(len(mixes))]
        for got, (e1, e2, t) in zip(results, mixes):
            if t in (0.0, 1.0):
                e = e1 if t else e2
                want = realize_intervals(nu, fractional_from_measurable(e),
                                         target=evaluate(nu, e))
            else:
                want = convex_combine(nu, e1, e2, t)
                assert got.iterations > 0
            assert got.intervals == want.intervals
            assert got.atom_indices == want.atom_indices
            assert got.achieved.tobytes() == want.achieved.tobytes()
            assert (got.residual, got.iterations, got.fractional_count) == (
                want.residual, want.iterations, want.fractional_count)


def _two_cell_scalar():
    """Two cells of mass 1/2: three pairs of sets in eight have equal values."""
    return scalar_grid([0.5, 0.5])


def _assert_draws(nu, draws, stacks):
    """The (picks, weights) ``stacks`` drawn in turn hold the reference's
    (E1, E2, t) ``draws``, bit for bit."""
    got = [(pair[0].tolist(), pair[1].tolist(), float(w))
           for picks, weights in stacks for pair, w in zip(picks, weights)]
    assert got == [(nu.space.mask(e1).tolist(), nu.space.mask(e2).tolist(), t)
                   for e1, e2, t in draws]


class TestCertificateStream:
    """Trials drawn as a stack and rewound at the first equal pair give the
    sets, weights and report of drawing trial by trial, wherever in a stack
    the redraws fall."""

    @pytest.mark.parametrize("seed, redrawn", [
        (33, [0, 5, 11]),  # the first, a middle and the last trial of the stack
        (30, [8]),
        (4, [0, 6, 9]),
        (5, [1, 11]),
        (7, [0, 1, 2, 3, 5, 7, 9, 10, 11]),
    ])
    @pytest.mark.parametrize("stack", [128, 7])
    def test_redraws_anywhere_in_a_stack(self, monkeypatch, seed, redrawn, stack):
        # In stacks of 7 the redraws of seed 4 fall on the last trial of the
        # first stack, and those of seed 33 on the first trial of the first
        # stack and the last of the second.
        monkeypatch.setattr(lyapunov, "_STACK_MIXES", stack)
        nu = _two_cell_scalar()
        redraws = []
        want = certificate_trial_by_trial(nu, 12, seed, redraws)
        assert redraws == redrawn
        assert asdict(convexity_certificate(nu, 12, seed)) == asdict(want)
        # The draws themselves, and the stream they leave: 12 trials and
        # then 3 more from the same generator are the reference's first 15.
        draws = []
        certificate_trial_by_trial(nu, 15, seed, draws=draws)
        rng = np.random.Generator(np.random.PCG64(seed))
        _assert_draws(nu, draws, [lyapunov._draw_mixes(nu, rng, 12),
                                  lyapunov._draw_mixes(nu, rng, 3)])

    @pytest.mark.parametrize("stack", [128, 7])
    def test_many_trials_of_a_redrawing_measure(self, monkeypatch, stack):
        monkeypatch.setattr(lyapunov, "_STACK_MIXES", stack)
        nu = direct_sum(_two_cell_scalar(), scalar_grid([0.25, 0.25]))
        redraws, draws = [], []
        want = certificate_trial_by_trial(nu, 60, 2811, redraws, draws)
        assert 10 < len(redraws) < 50
        assert asdict(convexity_certificate(nu, 60, 2811)) == asdict(want)
        rng = np.random.Generator(np.random.PCG64(2811))
        _assert_draws(nu, draws, [lyapunov._draw_mixes(nu, rng, 60)])

    @pytest.mark.parametrize("stack", [128, 7])
    def test_zero_measure_exhausts_every_redraw(self, monkeypatch, stack):
        # Every pair of sets of the zero measure is equal: each trial checks
        # 1000 pairs and keeps the 1001st, unchecked.
        monkeypatch.setattr(lyapunov, "_STACK_MIXES", stack)
        nu = grid_ovm(SampleSpace.uniform(4), np.zeros((4, 1, 1), dtype=complex))
        redraws = []
        draws = []
        want = certificate_trial_by_trial(nu, 3, 5, redraws, draws)
        assert redraws == [0, 1, 2]
        assert asdict(convexity_certificate(nu, 3, 5)) == asdict(want)
        rng = np.random.Generator(np.random.PCG64(5))
        _assert_draws(nu, draws, [lyapunov._draw_mixes(nu, rng, 3)])

    def test_no_per_trial_calls_without_redraws(self, monkeypatch):
        # A certificate whose pairs all differ takes its set values from
        # two stacked evaluations (the pairs; the achieved values and
        # targets) and makes no evaluate, evaluate_fractional or op_norm call.
        nu = random_povm(2, 40, rng_from_seed(7))
        assert nu.total_norm > 0.0  # cached before counting
        calls = {"evaluate": 0, "evaluate_fractional": 0, "op_norm": 0, "_set_values": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module, name in [(ovm, "evaluate"), (ovm, "evaluate_fractional"),
                             (lyapunov, "evaluate_fractional"), (opcore, "op_norm"),
                             (lyapunov, "_set_values")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        redraws = []
        want = certificate_trial_by_trial(nu, 100, 5, redraws)
        assert redraws == []
        calls.update(dict.fromkeys(calls, 0))
        assert asdict(convexity_certificate(nu, 100, 5)) == asdict(want)
        assert calls == {"evaluate": 0, "evaluate_fractional": 0, "op_norm": 0, "_set_values": 2}


class TestOracleAgreement:
    def test_achieved_point_witnessed_in_hull(self):
        nu = random_povm(2, 12, rng_from_seed(31))
        rng = rng_from_seed(32)
        for _ in range(10):
            e1, e2 = random_set(nu.space, rng), random_set(nu.space, rng)
            t = float(rng.random())
            result = convex_combine(nu, e1, e2, t)
            hull_point = evaluate_fractional(nu, FractionalSet(
                tuple(t * float(x) + (1 - t) * float(y)
                      for x, y in zip(e1.cell_mask, e2.cell_mask))))
            assert opcore.op_norm(result.achieved - hull_point) <= 1e-9

    def test_scalar_case_matches_subset_interpolation(self):
        nu = scalar_grid(RNG.uniform(0.05, 0.3, 8))
        rng = rng_from_seed(33)
        for _ in range(10):
            e1, e2 = random_set(nu.space, rng), random_set(nu.space, rng)
            t = float(rng.random())
            expected = (t * evaluate(nu, e1) + (1 - t) * evaluate(nu, e2))[0, 0].real
            result = convex_combine(nu, e1, e2, t)
            assert result.achieved[0, 0].real == pytest.approx(expected, abs=1e-10)


class TestAttainJson:
    def test_schema(self):
        nu = lebesgue_identity(4, 2)
        result = attain(nu, nu.total_mass() / 2)
        obj = attain_to_json(result)
        assert set(obj) == {"intervals", "atoms", "achieved", "residual",
                            "interval_count", "iterations"}
        assert obj["interval_count"] == len(obj["intervals"])


class TestDerivedCounts:
    def test_interval_count_is_read_off_the_intervals(self):
        nu = random_povm(2, 16, rng_from_seed(17))
        result = attain(nu, nu.total_mass() * 0.4)
        assert result.interval_count == len(result.intervals) > 1
        with pytest.raises(AttributeError):
            result.interval_count = 0
        shorter = replace(result, intervals=result.intervals[:1])
        assert shorter.interval_count == 1
        assert replace(result, iterations=0).interval_count == result.interval_count
        assert replace(result, interval_count=0).interval_count == result.interval_count

    def test_fractional_indices_are_read_off_h_final(self):
        nu = uhl_model(5)
        result = purify(nu, FractionalSet((0.5, 1.0, 0.0, 0.25, 0.5)))
        assert result.fractional_indices == (0, 3, 4)
        assert replace(result, h_final=FractionalSet((1.0,) * 5)).fractional_indices == ()
        with pytest.raises(AttributeError):
            result.fractional_indices = ()


class TestCoordinateMatrix:
    def test_shape_and_content(self):
        nu = random_povm(2, 6, RNG)
        mat = coordinate_matrix(nu, [1, 4])
        assert mat.shape == (4, 2)
        assert np.allclose(mat[:, 1], opcore.herm_coords(nu.cell_masses[4]))

    def test_masses_coordinatized_once(self, monkeypatch):
        # Every caller reads the measure's cached coordinates: however often
        # they run, herm_coords sees the mass stack once.
        rng = rng_from_seed(818283)
        nu = random_povm(2, 30, rng)
        h = FractionalSet(tuple(rng.random(30)))
        herm_coords = opcore.herm_coords
        stacks = []

        def spy(a):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return herm_coords(a)

        monkeypatch.setattr(opcore, "herm_coords", spy)
        for _ in range(2):
            coordinate_matrix(nu, range(10))
            kernel_witness(nu, range(30))
            purify(nu, h)
            attain(nu, evaluate_fractional(nu, h))
        assert stacks == [(30, 2, 2)]
