"""Linear-algebra kernel: frozen examples plus sampled invariants."""

import numpy as np
import pytest

from ovmkit import errors, opcore
from ovmkit.models import random_hermitian, rng_from_seed

RNG = rng_from_seed(20260810)


def random_gram(d, rng, ridge=0.0):
    x = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return x @ x.conj().T + ridge * np.eye(d)


class TestPsdCheck:
    def test_positive_diagonal(self):
        assert opcore.psd_check(np.diag([1.0, 2.0]), 0.0)

    def test_negative_eigenvalue(self):
        assert not opcore.psd_check(np.diag([1.0, -1.0]), 1e-9)

    def test_off_diagonal_ones(self):
        # Characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3,
        # roots 1 and 3 by the quadratic formula: strictly positive.
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        roots = sorted(np.roots([1.0, -4.0, 3.0]).real)
        assert roots == pytest.approx([1.0, 3.0], abs=1e-12)
        assert opcore.psd_check(a, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.InvalidInput):
            opcore.psd_check(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_negative_tol_rejected(self):
        with pytest.raises(errors.InvalidInput):
            opcore.psd_check(np.eye(2), -1.0)


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(opcore.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.array_equal(opcore.psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_off_diagonal_frozen(self):
        # Eigenvectors of [[2,1],[1,2]] are (1,1)/sqrt2 -> 3 and
        # (1,-1)/sqrt2 -> 1, so the root is ((sqrt3+1) +- (sqrt3-1))/2.
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s3 = np.sqrt(3.0)
        expected = np.array([[(s3 + 1) / 2, (s3 - 1) / 2],
                             [(s3 - 1) / 2, (s3 + 1) / 2]])
        root = opcore.psd_sqrt(a)
        assert np.allclose(root, expected, atol=1e-12)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert v @ root @ v == pytest.approx(s3, abs=1e-12)

    def test_not_positive(self):
        with pytest.raises(errors.NotPositive):
            opcore.psd_sqrt(np.diag([1.0, -1.0]))

    def test_squaring_on_random_grams(self):
        for d in (1, 2, 3, 5):
            for _ in range(25):
                a = random_gram(d, RNG)
                b = opcore.psd_sqrt(a)
                assert opcore.psd_check(b)
                err = opcore.op_norm(b @ b - a)
                assert err <= 1e-10 * max(1.0, opcore.op_norm(a))

    def test_tiny_negative_clamped(self):
        a = np.diag([1.0, -1e-12])
        root = opcore.psd_sqrt(a)
        assert root[1, 1].real == 0.0


class TestOpNorm:
    def test_diagonal(self):
        assert opcore.op_norm(np.diag([3.0, -5.0])) == 5.0

    def test_identity(self):
        assert opcore.op_norm(np.eye(7)) == 1.0

    def test_nilpotent(self):
        # Singular values from A^H A = diag(0, 4): largest is 2.
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        gram = a.conj().T @ a
        assert np.allclose(gram, np.diag([0.0, 4.0]))
        assert opcore.op_norm(a) == pytest.approx(2.0, abs=1e-14)

    def test_block_diagonal_is_max(self):
        for _ in range(20):
            a = random_hermitian(2, RNG)
            b = random_hermitian(3, RNG)
            block = np.zeros((5, 5), dtype=complex)
            block[:2, :2] = a
            block[2:, 2:] = b
            expected = max(opcore.op_norm(a), opcore.op_norm(b))
            assert opcore.op_norm(block) == pytest.approx(expected, abs=1e-13)


class TestLoewner:
    def test_zero_below_identity(self):
        assert opcore.loewner_leq(np.zeros((2, 2)), np.diag([1.0, 1.0]))

    def test_eigenvalue_two_exceeds_one(self):
        assert not opcore.loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))

    def test_derived_difference(self):
        # [[2,1],[1,2]] - diag(1,0) = [[1,1],[1,2]] with eigenvalues
        # (3 +- sqrt5)/2, both positive.
        lo = np.diag([1.0, 0.0])
        hi = np.array([[2.0, 1.0], [1.0, 2.0]])
        eig = sorted(np.linalg.eigvalsh(hi - lo))
        assert eig == pytest.approx([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2], abs=1e-12)
        assert opcore.loewner_leq(lo, hi)

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            opcore.loewner_leq(np.eye(2), np.eye(3))

    def test_partial_order_samples(self):
        tol = opcore.TOL_PSD
        for _ in range(30):
            a = random_gram(3, RNG)
            b = a + random_gram(3, RNG)
            c = b + random_gram(3, RNG)
            assert opcore.loewner_leq(a, a, tol)
            assert opcore.loewner_leq(a, b, tol) and opcore.loewner_leq(b, c, tol)
            assert opcore.loewner_leq(a, c, 2 * tol)

    def test_antisymmetry_up_to_tolerance(self):
        tol = 1e-9
        for _ in range(30):
            a = random_gram(3, RNG)
            bump = random_gram(3, RNG)
            b = a + (tol / 10) * bump / max(1.0, opcore.op_norm(bump))
            if opcore.loewner_leq(a, b, tol) and opcore.loewner_leq(b, a, tol):
                scale = max(1.0, opcore.op_norm(a), opcore.op_norm(b))
                assert opcore.op_norm(a - b) <= 2 * tol * scale


class TestHermCoords:
    def test_identity_d2(self):
        assert np.allclose(opcore.herm_coords(np.eye(2)), [1.0, 1.0, 0.0, 0.0])

    def test_round_trip(self):
        for d in (1, 2, 3, 5):
            for _ in range(10):
                a = random_hermitian(d, RNG)
                back = opcore.coords_to_herm(opcore.herm_coords(a))
                assert opcore.op_norm(back - a) <= 1e-14 * max(1.0, opcore.op_norm(a))

    def test_trace_inner_product_isometry(self):
        # At least 100 random pairs across d <= 5.
        for d in (2, 3, 4, 5):
            for _ in range(30):
                a = random_hermitian(d, RNG)
                b = random_hermitian(d, RNG)
                dot = float(opcore.herm_coords(a) @ opcore.herm_coords(b))
                tr = complex(np.trace(a @ b))
                assert abs(tr.imag) <= 1e-12
                assert abs(dot - tr.real) <= 1e-12 * max(1.0, abs(tr.real))

    def test_bad_length_rejected(self):
        with pytest.raises(errors.InvalidInput):
            opcore.coords_to_herm(np.ones(5))

    def test_stack_matches_single_matrices(self):
        for d in (1, 2, 3, 4):
            stack = np.stack([random_hermitian(d, RNG) for _ in range(6)])
            coords = opcore.herm_coords(stack)
            assert coords.shape == (6, d * d)
            for a, row in zip(stack, coords):
                assert np.array_equal(row, opcore.herm_coords(a))
            nested = opcore.herm_coords(stack.reshape(2, 3, d, d))
            assert np.array_equal(nested, coords.reshape(2, 3, d * d))

    def test_stack_symmetrizes_round_off(self):
        a = random_hermitian(3, RNG)
        nudged = a.copy()
        nudged[0, 1] += 1e-15
        stack = opcore.herm_coords(np.stack([a, nudged]))
        assert np.array_equal(stack[1], opcore.herm_coords(nudged))

    def test_stack_validated(self):
        good = random_hermitian(2, RNG)
        bad = good.copy()
        bad[0, 1] += 1.0
        with pytest.raises(errors.InvalidInput):
            opcore.herm_coords(np.stack([good, bad]))
        with pytest.raises(errors.InvalidInput):
            opcore.herm_coords(np.stack([good, np.full((2, 2), np.nan)]))
        with pytest.raises(errors.InvalidInput):
            opcore.herm_coords(np.zeros((3, 2, 4)))


class TestTracePair:
    def test_half_identity(self):
        assert opcore.trace_pair(np.eye(2) / 2, np.diag([1.0, 3.0])) == pytest.approx(2.0)

    def test_any_state_identity(self):
        for d in (2, 4):
            rho = random_gram(d, RNG)
            rho /= rho.trace().real
            assert opcore.trace_pair(rho, np.eye(d)).real == pytest.approx(1.0, abs=1e-12)

    def test_entrywise_sum(self):
        # Direct entry products: sum_ij rho_ij A_ji = 0 for this pair.
        rho = np.diag([0.5, 0.5])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        manual = sum(rho[i, j] * a[j, i] for i in range(2) for j in range(2))
        assert manual == 0.0
        assert opcore.trace_pair(rho, a) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            opcore.trace_pair(np.eye(2), np.eye(3))


class TestHermitianConstruction:
    def test_small_asymmetry_symmetrized(self):
        a = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
        h = opcore.hermitian(a)
        assert np.allclose(h, h.conj().T)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(errors.InvalidInput):
            opcore.hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestState:
    def test_valid_state(self):
        rho = opcore.make_state(np.eye(3) / 3)
        assert rho.full_rank
        assert rho.dim == 3

    def test_rank_deficient_flag(self):
        rho = opcore.make_state(np.diag([1.0, 0.0]))
        assert not rho.full_rank

    def test_bad_trace(self):
        with pytest.raises(errors.InvalidInput):
            opcore.make_state(np.eye(2))

    def test_not_positive(self):
        with pytest.raises(errors.NotPositive):
            opcore.make_state(np.diag([1.5, -0.5]))


class TestOperatorInterval:
    def test_contains(self):
        box = opcore.OperatorInterval(np.zeros((2, 2)), np.eye(2))
        assert box.contains(np.eye(2) / 2)
        assert not box.contains(2 * np.eye(2))

    def test_invalid_interval(self):
        with pytest.raises(errors.NotPositive):
            opcore.OperatorInterval(np.eye(2), np.zeros((2, 2)))


class TestMatrixJson:
    def test_round_trip(self):
        a = random_hermitian(3, RNG) + 1j * 0  # keep complex dtype
        obj = opcore.matrix_to_json(a)
        assert set(obj) == {"dim", "re", "im"}
        back = opcore.matrix_from_json(obj)
        assert np.array_equal(back, a)

    def test_bad_payload(self):
        with pytest.raises(errors.InvalidInput):
            opcore.matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
