"""Seeded random inputs that only the tests draw: Hermitian matrices,
full-rank states and step-function values, the reference loops that
vectorized, one-shot or stacked library code must match, and the references the
tests check results against: tr(rho A), Loewner intervals and the
positive/negative and real/imaginary parts of a step function."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ovmkit import opcore
from ovmkit.errors import DimMismatch, NotPositive, NotSelfAdjoint
from ovmkit.errors import AtomicObstruction
from ovmkit.lyapunov import CertificateReport, TrialFailure, convex_combine, kernel_witness
from ovmkit.models import random_complex
from ovmkit.ovm import MeasurableSet, PropertyReport, evaluate, set_to_json
from ovmkit.qintegrate import DEDUP_TOL, QuantumRandomVariable


def count_decompositions(monkeypatch) -> list:
    """The shapes of the arrays that np.linalg.eigvalsh and eigh decompose
    from now on (for the rest of the test), in call order."""
    shapes = []
    for name in ("eigvalsh", "eigh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _fn=fn, **kw: shapes.append(np.shape(a))
                            or _fn(a, *args, **kw))
    return shapes


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    x = random_complex(rng, (dim, dim))
    return scale * (x + x.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> opcore.State:
    """Full-rank random density operator (Gram plus a ridge)."""
    x = random_complex(rng, (dim, dim))
    rho = x @ x.conj().T + 0.1 * np.eye(dim)
    return opcore.make_state(rho / rho.trace().real)


def random_qrv_values(dim: int, count: int, rng: np.random.Generator,
                      positive: bool = False, scale: float = 1.0) -> np.ndarray:
    """Stack of random Hermitian (optionally PSD) step values."""
    out = np.empty((count, dim, dim), dtype=np.complex128)
    for k in range(count):
        x = random_complex(rng, (dim, dim))
        out[k] = scale * (x @ x.conj().T if positive else (x + x.conj().T) / 2)
    return out


def sum_in_item_order(stack: np.ndarray, selected) -> np.ndarray:
    """The reference set function: the selected matrices of ``stack`` added
    one at a time, in item order, into zeros."""
    out = np.zeros(stack.shape[1:], dtype=np.complex128)
    for k in np.flatnonzero(selected):
        out += stack[k]
    return out


def signed_zero_masses(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD masses over six orders of magnitude with -0.0 entries:
    every third one has -0.0 off its diagonal and in its diagonal's
    imaginary parts, and the last one is all -0.0, a null item."""
    x = random_complex(rng, (count, dim, dim))
    masses = x @ x.conj().swapaxes(-1, -2) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    masses[::3, ~np.eye(dim, dtype=bool)] = complex(-0.0, -0.0)
    masses.imag[::3] = -0.0
    masses[-1] = complex(-0.0, -0.0)
    return masses


def intervals_cell_by_cell(breakpoints, fractions) -> tuple:
    """The reference interval realization, one cell at a time: each chosen
    cell's leftmost [lo, lo + t * width), its whole width when t is 1,
    extends the last interval when lo equals that interval's end bit for bit."""
    intervals: list[list[float]] = []
    bp = breakpoints
    for k, frac_k in enumerate(fractions):
        if frac_k == 0.0:
            continue
        lo = bp[k]
        hi = bp[k + 1] if frac_k == 1.0 else lo + frac_k * (bp[k + 1] - lo)
        if intervals and intervals[-1][1] == lo:
            intervals[-1][1] = hi
        else:
            intervals.append([lo, hi])
    return tuple((lo, hi) for lo, hi in intervals)


def ess_range_greedy(f, nu) -> list:
    """The reference essential range: each live value against every value
    kept so far in one batched op_norms, kept when all are farther than
    DEDUP_TOL times the largest live norm."""
    live = f.values[nu.massive]
    tol = DEDUP_TOL * opcore.op_norms(live).max(initial=0.0)
    kept: list[int] = []
    for i, value in enumerate(live):
        if not kept or opcore.op_norms(value - live[kept]).min() > tol:
            kept.append(i)
    return list(live[kept])


def supports_with_kernel(nu) -> list[tuple[int, ...]]:
    """The reference kernel search: kernel_witness on each of the 2^m - 1
    nonempty cell supports, one call each; the supports with a witness."""
    m = nu.space.n_cells
    return [support for size in range(1, m + 1) for support in combinations(range(m), size)
            if kernel_witness(nu, support) is not None]


def certificate_trial_by_trial(nu, trials: int, seed: int, redraws=None,
                               draws=None) -> CertificateReport:
    """The reference convexity certificate: each trial drawn, then realized
    by one convex_combine call, before the next is drawn.  The index of
    each trial whose first pair of sets had equal values is appended to
    the list ``redraws``, and each trial's (E1, E2, t) to the list
    ``draws``, when they are given."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m, n = nu.space.n_cells, nu.space.n_atoms
    distinct_tol = 1e-12 * max(1.0, nu.total_norm)

    def draw_set():
        return MeasurableSet(rng.integers(0, 2, m) == 1, rng.integers(0, 2, n) == 1)

    failures = []
    max_residual = 0.0
    max_intervals = 0
    for trial in range(trials):
        e1, e2 = draw_set(), draw_set()
        for check in range(1000):
            if opcore.op_norm(evaluate(nu, e1) - evaluate(nu, e2)) > distinct_tol:
                break
            if check == 0 and redraws is not None:
                redraws.append(trial)
            e1, e2 = draw_set(), draw_set()
        t = float(rng.random())
        if draws is not None:
            draws.append((e1, e2, t))
        try:
            result = convex_combine(nu, e1, e2, t)
        except AtomicObstruction as exc:
            reason = f"AtomicObstruction: {exc}"
        else:
            max_residual = max(max_residual, result.residual)
            max_intervals = max(max_intervals, result.interval_count)
            reason = f"residual {result.residual:.3e}" if result.residual > 1e-6 else None
        if reason:
            failures.append(TrialFailure(trial, set_to_json(e1), set_to_json(e2), t, reason))
    return CertificateReport(trials=trials, seed=seed, max_residual=max_residual,
                             max_interval_count=max_intervals, failures=tuple(failures))


def spectral_tol(nu) -> float:
    """check_ovm_properties' spectrality tolerance for ``nu``."""
    return 1e-9 * max(1.0, nu.total_norm) * max(1.0, nu.total_norm)


def properties_pair_by_pair(nu, sample_sets) -> PropertyReport:
    """The reference axiom check: spectrality tested on one ordered pair of
    sets at a time, with an evaluate and an op_norm per pair."""
    tol = spectral_tol(nu)
    values = [evaluate(nu, e) for e in sample_sets]
    spectral = all(opcore.op_norm(evaluate(nu, e1.intersection(e2)) - v1 @ v2) <= tol
                   for e1, v1 in zip(sample_sets, values) for e2, v2 in zip(sample_sets, values))
    probability = opcore.op_norm(nu.total_mass() - np.eye(nu.dim)) <= 1e-12
    return PropertyReport(positive=nu.positive, spectral=spectral, probability=probability)


def trace_pair(rho, a) -> complex:
    """tr(rho A), summed over entry products."""
    r = opcore.as_matrix(getattr(rho, "matrix", rho))
    m = opcore.as_matrix(a)
    if r.shape != m.shape:
        raise DimMismatch(f"dimensions {r.shape[0]} vs {m.shape[0]}")
    return complex(np.einsum("ij,ji->", r, m))


@dataclass(frozen=True)
class OperatorInterval:
    """Loewner interval [lower, upper]; upper - lower must be PSD."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = opcore.hermitian(self.lower)
        hi = opcore.hermitian(self.upper)
        if lo.shape != hi.shape:
            raise DimMismatch("interval endpoints have different dimensions")
        if not opcore.psd_check(hi - lo):
            raise NotPositive("upper - lower is not PSD")
        object.__setattr__(self, "lower", opcore.readonly(lo, np.complex128))
        object.__setattr__(self, "upper", opcore.readonly(hi, np.complex128))

    def contains(self, a) -> bool:
        return opcore.loewner_leq(self.lower, a) and opcore.loewner_leq(a, self.upper)


def _split_psd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise spectral positive/negative parts of a Hermitian stack."""
    w, v = np.linalg.eigh(stack)
    vh = v.conj().transpose(0, 2, 1)
    plus = (v * np.maximum(w, 0.0)[:, None, :]) @ vh
    minus = (v * np.maximum(-w, 0.0)[:, None, :]) @ vh
    return plus, minus


def pos_neg_parts(f: QuantumRandomVariable):
    """f = f_plus - f_minus with both parts PSD and f_plus f_minus = 0 cellwise."""
    if not f.self_adjoint:
        raise NotSelfAdjoint("positive/negative parts need a self-adjoint step function")
    plus, minus = _split_psd(f.values)
    return QuantumRandomVariable(f.space, plus), QuantumRandomVariable(f.space, minus)


def real_imag_parts(f: QuantumRandomVariable):
    """Cellwise Hermitian decomposition f = Re f + i Im f."""
    def herm(stack):
        return (stack + stack.conj().transpose(0, 2, 1)) / 2

    def skew(stack):
        return (stack - stack.conj().transpose(0, 2, 1)) / (2j)

    return (QuantumRandomVariable(f.space, herm(f.values)),
            QuantumRandomVariable(f.space, skew(f.values)))
