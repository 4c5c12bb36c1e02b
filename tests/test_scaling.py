"""Verdicts on c nu are the verdicts on nu: bit for bit for c = 2^k, whose
scaling is exact, and as accepted or rejected for c = 10^k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian, random_state
from ovmkit import errors, opcore
from ovmkit.lyapunov import attain, kernel_witness
from ovmkit.models import random_povm, rng_from_seed
from ovmkit.ovm import SampleSpace, grid_ovm
from ovmkit.qintegrate import QuantumRandomVariable
from ovmkit.rnderiv import rn_exists


def _case(seed, d, m, defect, null, asym, pure):
    """A random POVM's masses with mass 0's least eigenvalue set to -defect
    times its norm and the last mass scaled by ``null``; step values with
    an asymmetry of ``asym`` times their Frobenius norm; a state, pure or
    full rank, and with a pure state mass 1 blind to it (rn_exists fails
    there); and targets inside (0.3 and 0.7 of nu(X)) and outside (-0.5
    and 1.5 of it) the range."""
    rng = rng_from_seed(seed)
    masses = random_povm(d, m, rng).masses.copy()
    w, v = np.linalg.eigh(masses[0])
    w[0] = -defect * np.abs(w).max()
    masses[0] = (v * w) @ v.conj().T
    masses[-1] *= null
    if pure and d > 1 and m > 2:
        masses[1] = np.diag(np.eye(d)[-1]) * np.abs(masses[1]).max()
    values = np.stack([random_hermitian(d, rng) for _ in range(m)])
    if d > 1:
        values[:, 0, 1] += asym * np.linalg.norm(values, axis=(-2, -1))
    rho = np.diag(np.eye(d)[0]) if pure else random_state(d, rng).matrix
    total = masses.sum(axis=0)
    return masses, values, rho, [lam * total for lam in (0.3, 0.7, -0.5, 1.5)]


def _verdicts(masses, values, rho, targets, c):
    """Every verdict on c nu: flags, arrays as bytes, rn_exists' pair, or an
    exception's name."""
    nu = grid_ovm(SampleSpace.uniform(len(masses)), c * masses)
    f = QuantumRandomVariable(nu.space, c * values)
    witness = kernel_witness(nu, range(nu.space.n_cells))
    out = [nu.positive, f.self_adjoint, nu.massive.tobytes(),
           None if witness is None else (witness.support, witness.coefficients.tobytes())]
    for target in targets:
        try:
            out.append(np.array(attain(nu, c * target).intervals).tobytes())
        except (errors.NotPositive, errors.TargetNotInHull) as exc:
            out.append(type(exc).__name__)
    try:
        out.append(rn_exists(nu, rho))
    except errors.NotPositive as exc:
        out.append(type(exc).__name__)
    return out


def _cases():
    return st.tuples(
        st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12),
        st.sampled_from([0.0, 1e-12, 1e-10, 2e-9, 1e-6, 1e-3]),
        st.sampled_from([1.0, 1e-9, 1e-15]),
        st.sampled_from([0.0, 1e-14, 1e-13, 1e-11, 1e-6]),
        st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cases(), st.integers(-900, 900))
def test_verdicts_on_a_power_of_two_multiple_are_bit_for_bit(case, k):
    # Scaling by 2^k is exact, and every tolerance that judges a matrix or a
    # measure is relative to its norm: positive, self_adjoint, massive, the
    # kernel witness, attain's intervals or its rejection, and rn_exists on
    # 2^k nu are those on nu.  k = +-900 reach past LAPACK's safe range.
    case = _case(*case)
    want = _verdicts(*case, 1.0)
    for j in (k, -900, 900):
        assert _verdicts(*case, np.ldexp(1.0, j)) == want, j


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_cases(), st.integers(-30, 30))
def test_verdicts_on_a_power_of_ten_multiple_match(case, k):
    # 10^k nu is nu rounded entry by entry, so attain's intervals may move by
    # round-off; whether a target is attained or rejected, and every flag,
    # may not.
    case = _case(*case)
    want = _verdicts(*case, 1.0)
    got = _verdicts(*case, 10.0**k)
    attained = slice(4, 8)
    for verdicts in (want, got):
        verdicts[3] = verdicts[3] is not None and verdicts[3][0]
        verdicts[attained] = [v if isinstance(v, str) else "attained" for v in verdicts[attained]]
    assert got == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_povm_total_mass_is_the_identity_in_loewner_order(d):
    # loewner_leq judges B - A against the operands' own norm, not against
    # ||B - A||, which for nu(X) = I up to round-off is round-off itself.
    rng = rng_from_seed(7000 + d)
    for _ in range(30):
        total = random_povm(d, int(rng.integers(1, 200)), rng).total_mass()
        assert opcore.loewner_leq(total, np.eye(d))
        assert opcore.loewner_leq(np.eye(d), total)
