"""Linear-algebra kernel: frozen examples plus sampled invariants."""

import importlib
import itertools
import pkgutil
import warnings

import numpy as np
import pytest

from helpers import OperatorInterval, random_hermitian, trace_pair
import ovmkit
from ovmkit import errors, opcore
from ovmkit.models import rng_from_seed

RNG = rng_from_seed(20260810)


def random_gram(d, rng, ridge=0.0):
    x = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return x @ x.conj().T + ridge * np.eye(d)


class TestPsdCheck:
    def test_positive_diagonal(self):
        assert opcore.psd_check(np.diag([1.0, 2.0]))

    def test_negative_eigenvalue(self):
        assert not opcore.psd_check(np.diag([1.0, -1.0]))

    def test_off_diagonal_ones(self):
        # Characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3,
        # roots 1 and 3 by the quadratic formula: strictly positive.
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        roots = sorted(np.roots([1.0, -4.0, 3.0]).real)
        assert roots == pytest.approx([1.0, 3.0], abs=1e-12)
        assert opcore.psd_check(a)

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.InvalidInput):
            opcore.psd_check(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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

    @pytest.mark.parametrize("kind", ["exact", "near", "non"])
    def test_path_and_value_follow_hermitian_stack(self, kind, monkeypatch):
        # Whatever hermitian_stack accepts takes the eigenvalues of the matrix
        # it returns, bit for bit; whatever it rejects, the largest singular
        # value; and no exception is raised on the way.
        rng = rng_from_seed(4545)
        expected = []
        for d in (1, 2, 3, 5):
            for scale in (1e-3, 1.0, 1e4):
                a = scale * random_hermitian(d, rng)
                if kind != "exact" and d > 1:
                    bump = np.zeros((d, d), dtype=complex)
                    bump[0, 1] = (1e-14 if kind == "near" else 0.3) * np.linalg.norm(a)
                    a = a + bump
                try:
                    want = float(np.abs(np.linalg.eigvalsh(opcore.hermitian_stack(a))).max())
                    assert kind != "non" or d == 1
                except errors.InvalidInput:
                    assert kind == "non"
                    want = float(np.linalg.svd(a, compute_uv=False)[0])
                expected.append((a, want))

        def no_exceptions(*args, **kwargs):
            raise AssertionError("op_norm must not go through hermitian_stack")

        monkeypatch.setattr(opcore, "hermitian_stack", no_exceptions)
        for a, want in expected:
            assert opcore.op_norm(a) == want


class TestNearLimitEntries:
    # Near-Hermitian matrices whose entries are finite but whose A + A*
    # overflows: the symmetrized mean is taken as A/2 + A*/2.
    BIG = np.array([[1e308, 1e308], [1e308 * (1 + 1e-15), 1e308]])
    OFF_DIAGONAL = np.array([[0.0, 1e308], [1e308 * (1 + 1e-15), 0.0]])

    def test_symmetrized_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (self.BIG, self.OFF_DIAGONAL):
                sym = opcore.hermitian(a)
                assert np.isfinite(sym).all()
                assert np.array_equal(sym, a / 2 + a.T / 2)

    def test_norm_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Eigenvalues +-1.0000000000000006e308, finite.
            assert opcore.op_norm(self.OFF_DIAGONAL) == pytest.approx(1e308, rel=1e-14)
            # The norm of BIG is 2e308, past the float range: inf, not NaN.
            assert opcore.op_norm(self.BIG) == np.inf


class TestOpNorms:
    """The stack rule behind op_norm: each entry has op_norm's bits."""

    @staticmethod
    def kinds(d, rng):
        """Exact-Hermitian, near-Hermitian (within HERM_TOL), non-Hermitian,
        zero and negative-definite matrices of dimension d."""
        exact = random_hermitian(d, rng)
        near = exact.copy()
        near[0, -1] += 1e-14j  # on the diagonal too when d = 1
        non = exact + 0.3j * np.eye(d) + np.triu(np.ones((d, d)), 1)
        negative = -random_gram(d, rng, ridge=0.5)
        return [exact, near, non, np.zeros((d, d), dtype=complex), negative]

    def test_kinds_take_both_paths(self):
        for d in (1, 2, 3):
            exact, near, non, zero, negative = self.kinds(d, RNG)
            assert not np.array_equal(near, near.conj().T) and opcore.is_hermitian(near)
            assert not opcore.is_hermitian(non)
            assert np.linalg.eigvalsh(negative).max() < 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_entries_equal_op_norm_bit_for_bit(self, d):
        kinds = self.kinds(d, RNG)
        stacks = [
            np.stack(kinds),                           # (k, d, d), mixed
            np.stack([kinds[0], kinds[3], kinds[4]]),  # every matrix exactly Hermitian
            np.stack([kinds[2], 2 * kinds[2]]),        # no matrix accepted
            np.stack(kinds + [kinds[2]]).reshape(2, 3, d, d),
            np.zeros((0, d, d)),
        ]
        for stack in stacks:
            norms = opcore.op_norms(stack)
            assert norms.shape == stack.shape[:-2] and norms.dtype == np.float64
            for index in np.ndindex(stack.shape[:-2]):
                assert norms[index].tobytes() == np.float64(opcore.op_norm(stack[index])).tobytes()

    def test_mixed_one_by_one_stack(self):
        # 1e-14j is not Hermitian at any scale, and takes its singular value;
        # 1 + 1e-14j is within HERM_TOL of |1 + 1e-14j|: its symmetrization is 1.
        stack = np.array([2.0, -3.0, 1e-14j, 1.0 + 1e-14j, 4.0 + 1.0j, 0.0]).reshape(6, 1, 1)
        assert opcore.op_norms(stack).tolist() == [2.0, 3.0, 1e-14, 1.0, abs(4.0 + 1.0j), 0.0]

    def test_invalid_input(self):
        for bad in (np.full((2, 2, 2), np.nan), np.array([[[1.0, np.inf], [0.0, 1.0]]]),
                    np.ones((3, 2, 3)), np.ones(3), "abc"):
            with pytest.raises(errors.InvalidInput):
                opcore.op_norms(bad)

    def test_subnormal_stack_without_overflow(self):
        # A largest entry below 2^-1022 is scaled by 2^-1022, not by itself,
        # so 1 / scale stays finite: no overflow and no NaN asymmetry.  An
        # exactly Hermitian subnormal matrix is accepted and kept as it is
        # beside a near-Hermitian one, and its norm is its largest |eigenvalue|.
        near = np.eye(2) + 1e-14j * np.array([[0.0, 1.0], [1.0, 0.0]])
        smalls = [np.array([[0.0, 5e-324], [5e-324, 0.0]]), np.diag([1e-310, 0.0]),
                  np.array([[3e-323, 1e-323 + 5e-324j], [1e-323 - 5e-324j, 0.0]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for small in smalls:
                stack = np.stack([small, near])
                assert opcore.hermitian_flags(stack).tolist() == [True, True]
                assert np.array_equal(opcore.hermitian_stack(stack)[0], small)
                norms = opcore.op_norms(stack)
                assert norms[0] == np.abs(np.linalg.eigvalsh(small)).max() > 0.0
                assert norms.tolist() == [opcore.op_norm(small), 1.0]

    def test_exact_stack_takes_no_asymmetry_norm(self, monkeypatch):
        # The exact-equality fast path decides an exactly Hermitian stack
        # before any norm; a near-Hermitian one still takes them.
        stack = np.stack([random_hermitian(3, RNG) for _ in range(4)])
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
        assert opcore.hermitian_flags(stack).tolist() == [True] * 4
        opcore.op_norms(stack)
        assert not calls
        stack[1, 0, 2] += 1e-14
        assert opcore.hermitian_flags(stack).tolist() == [True] * 4
        assert calls


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
        for _ in range(30):
            a = random_gram(3, RNG)
            b = a + random_gram(3, RNG)
            c = b + random_gram(3, RNG)
            assert opcore.loewner_leq(a, a)
            assert opcore.loewner_leq(a, b) and opcore.loewner_leq(b, c)
            assert opcore.loewner_leq(a, c)

    def test_antisymmetry_up_to_tolerance(self):
        tol = opcore.TOL_PSD
        for _ in range(30):
            a = random_gram(3, RNG)
            bump = random_gram(3, RNG)
            b = a + (tol / 10) * bump / max(1.0, opcore.op_norm(bump))
            if opcore.loewner_leq(a, b) and opcore.loewner_leq(b, a):
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
        assert trace_pair(np.eye(2) / 2, np.diag([1.0, 3.0])) == pytest.approx(2.0)

    def test_any_state_identity(self):
        for d in (2, 4):
            rho = random_gram(d, RNG)
            rho /= rho.trace().real
            assert trace_pair(rho, np.eye(d)).real == pytest.approx(1.0, abs=1e-12)

    def test_entrywise_sum(self):
        # Direct entry products: sum_ij rho_ij A_ji = 0 for this pair.
        rho = np.diag([0.5, 0.5])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        manual = sum(rho[i, j] * a[j, i] for i in range(2) for j in range(2))
        assert manual == 0.0
        assert trace_pair(rho, a) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            trace_pair(np.eye(2), np.eye(3))


class TestAsArray:
    @pytest.mark.parametrize("bad", [
        [["2", "0"], ["0", "1"]], [[b"2"]], "2", np.array([["2"]]), np.array([[b"2"]]),
        np.array([[1, "2"]], dtype=object), [[2**70, "1"]]],
        ids=["str list", "bytes list", "str", "str array", "bytes array",
             "object array", "str beside a big int"])
    def test_strings_rejected_not_parsed(self, bad):
        with pytest.raises(errors.InvalidInput):
            opcore.as_array(bad, np.complex128)

    def test_ints_beyond_int64_pass(self):
        got = opcore.as_array([[2**70, 0], [0, 1]], np.complex128)
        assert got.dtype == np.complex128 and got[0, 0] == 2.0**70
        assert opcore.op_norm(np.array([[2**70, 0], [0, 1]], dtype=object)) == 2.0**70

    def test_array_of_the_dtype_returned_as_is(self):
        a = np.eye(2, dtype=np.complex128)
        assert opcore.as_array(a, np.complex128) is a


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
        box = OperatorInterval(np.zeros((2, 2)), np.eye(2))
        assert box.contains(np.eye(2) / 2)
        assert not box.contains(2 * np.eye(2))

    def test_invalid_interval(self):
        with pytest.raises(errors.NotPositive):
            OperatorInterval(np.eye(2), np.zeros((2, 2)))


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


class TestStackRules:
    """Each Hermitian/PSD rule is one stack function; the single-matrix
    functions apply it to one (d, d) matrix."""

    def probes(self):
        """Matrices at scales 1e-6 to 1e6 with asymmetries around the
        tolerance, non-Hermitian, PSD and indefinite ones."""
        out = []
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for d in (1, 2, 3):
                a = scale * random_hermitian(d, RNG)
                out += [a, scale * random_gram(d, RNG), scale * random_gram(d, RNG, 0.1)]
                for eps in (3e-13, 3e-12, 1e-6):
                    nudged = a.astype(complex)
                    nudged[0, -1] += eps * max(1.0, scale)
                    out.append(nudged)
        return out

    def test_is_hermitian_exactly_when_hermitian_returns(self):
        for a in self.probes():
            try:
                opcore.hermitian(a)
                accepted = True
            except errors.InvalidInput:
                accepted = False
            assert opcore.is_hermitian(a) == accepted

    def test_stack_forms_match_single_matrices(self):
        for d in (1, 2, 3, 4):
            stack = np.stack([random_gram(d, RNG) - 0.3 * np.eye(d) for _ in range(50)])
            stack[::7, 0, -1] += 1e-13
            flags = opcore.hermitian_flags(stack)
            sym = opcore.hermitian_stack(stack)
            psd = opcore.psd_flags(stack)
            assert psd.any() and not psd.all()
            for k, a in enumerate(stack):
                assert flags[k] == opcore.is_hermitian(a)
                assert np.array_equal(sym[k], opcore.hermitian(a))
                assert psd[k] == opcore.psd_check(a)
            roots = opcore.psd_roots(stack[psd])
            for a, root in zip(stack[psd], roots):
                assert np.array_equal(root, opcore.psd_sqrt(a))

    def test_stack_names_first_offender(self):
        good = random_hermitian(2, RNG)
        bad = good.copy()
        bad[0, 1] += 0.5
        worse = good.copy()
        worse[0, 1] += 2.0
        with pytest.raises(errors.InvalidInput, match=r"asymmetry 7\.071e-01"):
            opcore.hermitian_stack(np.stack([good, bad, worse]))
        with pytest.raises(errors.NotPositive, match=r"eigenvalue -1\.000e\+00"):
            opcore.psd_roots(np.stack([np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, -2.0])]))

    def test_single_matrix_functions_reject_stacks(self):
        stack = np.stack([np.eye(3)] * 3)
        for fn in (opcore.hermitian, opcore.is_hermitian, opcore.psd_check,
                   opcore.psd_sqrt, opcore.make_state, opcore.op_norm):
            with pytest.raises(errors.InvalidInput, match="square matrix"):
                fn(stack)
        for fn in (opcore.hermitian_stack, opcore.hermitian_flags, opcore.psd_flags,
                   opcore.psd_roots):
            with pytest.raises(errors.InvalidInput):
                fn(np.ones(3))

    def test_huge_entries_do_not_overflow(self):
        a = np.array([[1e160, 0.0], [5e159, 1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not opcore.is_hermitian(a)
            with pytest.raises(errors.InvalidInput):
                opcore.hermitian(a)
            largest = np.linalg.svd(a, compute_uv=False)[0]
            assert opcore.op_norm(a) == pytest.approx(largest, rel=1e-12)
            assert opcore.is_hermitian(a + a.T)
            assert opcore.op_norm(a + a.T) == pytest.approx(2.5e160, rel=1e-12)

    def test_tiny_asymmetry_absorbed_below_unit_norm(self):
        # ||A - A*||_F = 7.07e-16 <= HERM_TOL * ||A||_F = 2e-15: symmetrized,
        # and so a PSD step value rather than an error from psd_check.  An
        # asymmetry of 7.07e-13 is not absorbed at this norm, nor at c ||A||_F
        # for any power of two c: the verdict is relative, with no floor.
        a = np.array([[1e-3, 1e-3 + 5e-16], [1e-3, 1e-3]])
        assert opcore.is_hermitian(a)
        assert opcore.psd_check(a)
        assert np.array_equal(opcore.hermitian(a), opcore.hermitian(a).conj().T)
        wide = np.array([[1e-3, 1e-3 + 5e-13], [1e-3, 1e-3]])
        for k in (-900, -20, 0, 20, 900):
            assert not opcore.is_hermitian(np.ldexp(wide, k))
            assert opcore.is_hermitian(np.ldexp(a, k))


@pytest.mark.parametrize("first, second", itertools.permutations([True, [1], "x", None, b"y"], 2))
def test_as_reals_names_the_first_bad_entry(first, second):
    # Entry types are checked in order of first appearance, not in a set's
    # order, which follows their addresses and so varies between processes.
    with pytest.raises(errors.InvalidInput) as caught:
        opcore.as_reals([0, first, 1.0, second], "entry")
    assert str(caught.value) == f"entry must be a real number, got {first!r}"


class TestToleranceTable:
    def test_modules_rebind_the_tables_own_objects(self):
        # Each module reads opcore's constants, re-bound by import, so none can
        # define a tolerance of its own beside the table.
        names = {}
        for info in pkgutil.iter_modules(ovmkit.__path__):
            module = importlib.import_module(f"ovmkit.{info.name}")
            for name, value in vars(module).items():
                if name.isupper() and isinstance(value, float) and (
                        "TOL" in name or "RCOND" in name or "SLACK" in name):
                    assert value is getattr(opcore, name, None), (info.name, name)
                    names.setdefault(info.name, set()).add(name)
        assert len(names.pop("opcore")) == 17
        assert names == {
            "lyapunov": {"SNAP_TOL", "KERNEL_RCOND", "KERNEL_TOL", "SIGN_TOL", "SIMPLEX_TOL",
                         "PIVOT_TOL", "DISTINCT_TOL", "CERT_TOL"},
            "ovm": {"MASS_TOL", "SNAP_TOL", "SPECTRAL_TOL", "UNIT_TOL", "WIDTH_TOL"},
            "qintegrate": {"DEDUP_TOL", "MASS_TOL", "NORM_SLACK"},
        }
