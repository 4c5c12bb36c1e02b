"""Seeded random inputs that only the tests draw: Hermitian matrices,
full-rank states and step-function values, the reference loops that
vectorized, one-shot or stacked library code must match, the numpy
formulas that list-based library code must match, and the references the
tests check results against: tr(rho A), Loewner intervals and the
positive/negative and real/imaginary parts of a step function."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ovmkit import opcore
from ovmkit.errors import DimMismatch, InvalidInput, NotPositive, OvmError
from ovmkit.errors import AtomicObstruction
from ovmkit.lyapunov import CertificateReport, TrialFailure, convex_combine, kernel_witness
from ovmkit.ovm import (OVM, FractionalSet, MeasurableSet, PropertyReport, SampleSpace, evaluate,
                        grid_ovm, set_to_json)
from ovmkit.qintegrate import DEDUP_TOL, QuantumRandomVariable


def count_decompositions(monkeypatch, names: bool = False) -> list:
    """The shapes of the arrays that np.linalg.eigvalsh and eigh decompose
    from now on (for the rest of the test), in call order; with ``names``,
    (function name, shape) pairs."""
    shapes = []
    for name in ("eigvalsh", "eigh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _fn=fn, _name=name, **kw:
                            shapes.append((_name, np.shape(a)) if names else np.shape(a))
                            or _fn(a, *args, **kw))
    return shapes


def step_verdicts_whole_stack(values: np.ndarray) -> tuple[bool, bool, np.ndarray]:
    """The reference step-function verdicts: (self-adjoint, PSD, norms) of a
    finite (k, d, d) stack from one _spectrum of the whole stack, every
    value decomposed however often it repeats."""
    sym, w, norms = opcore._spectrum(values)
    return sym is not None, sym is not None and bool(opcore._psd_ok(w, norms).all()), norms


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def random_povm_cell_by_cell(dim: int, m: int, rng: np.random.Generator) -> OVM:
    """The reference random_povm on SampleSpace.uniform(m): each cell's Gram
    matrix from its own two random_complex draws, then the joint
    renormalization."""
    grams = np.empty((m, dim, dim), dtype=np.complex128)
    for k in range(m):
        x = random_complex(rng, (dim, dim))
        grams[k] = x @ x.conj().T + 0.01 * np.eye(dim)
    inv_root = np.linalg.inv(opcore.psd_sqrt(np.add.reduce(grams, axis=0)))
    return grid_ovm(SampleSpace.uniform(m), inv_root @ grams @ inv_root)


def matrix_from_json_alone(obj) -> np.ndarray:
    """The reference decode of one matrix JSON form on its own: its keys
    (no other, then all three), its dim, its d x d "re" and "im" lists,
    then its entries (as_reals) and their finiteness (as_matrix)."""
    if not isinstance(obj, dict):
        raise InvalidInput("matrix JSON must be a JSON object")
    for key in obj:
        if key not in ("dim", "re", "im"):
            raise InvalidInput(f"unknown key {key!r} for matrix JSON")
    if not {"dim", "re", "im"} <= set(obj):
        raise InvalidInput("matrix JSON must have keys dim, re, im")
    d = opcore.as_int(obj["dim"], "matrix JSON dim", low=1)
    rows = [row for part in (obj["re"], obj["im"]) if isinstance(part, list) and len(part) == d
            for row in part]
    if len(rows) != 2 * d or not all(isinstance(row, list) and len(row) == d for row in rows):
        raise InvalidInput(f"matrix JSON arrays must be {d}x{d} lists")
    entries = opcore.as_reals([x for row in rows for x in row], "matrix JSON entry")
    m = np.empty((d, d), np.complex128)
    m.real, m.imag = entries.reshape(2, d, d)
    return opcore.as_matrix(m)


def matrix_stacks_one_by_one(*lists) -> list:
    """The reference mass decode: every item of every list decoded by
    matrix_from_json_alone, in order, then each list stacked by np.stack,
    None for an empty list."""
    decoded = [[matrix_from_json_alone(obj) for obj in objs] for objs in lists]
    return [np.stack(x) if x else None for x in decoded]


def fractional_from_measurable(e: MeasurableSet) -> FractionalSet:
    """The fractional set with the cell fractions 1 on E and 0 elsewhere, and E's atoms."""
    return FractionalSet(e.cell_mask.astype(float), e.atom_mask)


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


def ratio_test_numpy(xb, ub, fall, limit):
    """The reference ratio test of a simplex push, in numpy over the rows:
    room x / f where f > PIVOT_TOL, (x - u) / f where f < -PIVOT_TOL, inf
    elsewhere; t is the least room, clamped to +0.0 when not positive and
    to ``limit``.  Returns (t, room)."""
    room = np.full(len(xb), np.inf)
    np.divide(xb, fall, out=room, where=fall > opcore.PIVOT_TOL)
    np.divide(xb - ub, fall, out=room, where=fall < -opcore.PIVOT_TOL)
    t = float(room.min())
    return min(t if t > 0.0 else 0.0, limit), room


def blocking_numpy(room, fall, basis, n_cols: int, t: float, bland: bool) -> int:
    """The reference leaving row, in numpy over the rows: of the rows with
    room within SIMPLEX_TOL of t, the first with the largest |fall|, or
    under Bland's rule the lowest basic column (row 0 when none ties)."""
    ties = room <= t + opcore.SIMPLEX_TOL
    return int(np.where(ties, basis, n_cols).argmin() if bland
               else np.where(ties, np.abs(fall), -1.0).argmax())


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


def first_copies_structured(flat: np.ndarray) -> np.ndarray:
    """The reference exact-copy pass: numpy's structured row unique, which
    compares each row's real and imaginary parts one at a time by value, and
    the first index of each distinct row, ascending."""
    return np.sort(np.unique(flat, axis=0, return_index=True)[1])


def supports_with_kernel(nu) -> list[tuple[int, ...]]:
    """The reference kernel search: kernel_witness on each of the 2^m - 1
    nonempty cell supports, one call each; the supports with a witness."""
    m = nu.space.n_cells
    return [support for size in range(1, m + 1) for support in combinations(range(m), size)
            if kernel_witness(nu, support) is not None]


def draw_trial(nu, rng, trial: int = 0, redraws=None) -> tuple:
    """The reference draw of one convexity trial from ``rng``: sets drawn
    cells then atoms, a pair redrawn until its values differ (up to 1000
    checks, then a 1001st pair unchecked), then the weight; (E1, E2, t).
    ``trial`` is appended to the list ``redraws``, when given, if the first
    pair had equal values."""
    m, n = nu.space.n_cells, nu.space.n_atoms
    distinct_tol = 1e-12 * nu.total_norm

    def draw_set():
        return MeasurableSet(rng.integers(0, 2, m) == 1, rng.integers(0, 2, n) == 1)

    e1, e2 = draw_set(), draw_set()
    for check in range(1000):
        if opcore.op_norm(evaluate(nu, e1) - evaluate(nu, e2)) > distinct_tol:
            break
        if check == 0 and redraws is not None:
            redraws.append(trial)
        e1, e2 = draw_set(), draw_set()
    return e1, e2, float(rng.random())


def certificate_trial_by_trial(nu, trials: int, seed: int, redraws=None,
                               draws=None) -> CertificateReport:
    """The reference convexity certificate: each trial drawn (draw_trial),
    then realized by one convex_combine call, before the next is drawn.
    The index of each trial whose first pair of sets had equal values is
    appended to the list ``redraws``, and each trial's (E1, E2, t) to the
    list ``draws``, when they are given."""
    rng = np.random.Generator(np.random.PCG64(seed))
    failures = []
    max_residual = 0.0
    max_intervals = 0
    for trial in range(trials):
        e1, e2, t = draw_trial(nu, rng, trial, redraws)
        if draws is not None:
            draws.append((e1, e2, t))
        try:
            result = convex_combine(nu, e1, e2, t)
        except AtomicObstruction as exc:
            reason = f"AtomicObstruction: {exc}"
        else:
            max_residual = max(max_residual, result.residual)
            max_intervals = max(max_intervals, result.interval_count)
            reason = (f"residual {result.residual:.3e}" if result.residual > 1e-6 * nu.total_norm
                      else None)
        if reason:
            failures.append(TrialFailure(trial, set_to_json(e1), set_to_json(e2), t, reason))
    return CertificateReport(trials=trials, seed=seed, max_residual=max_residual,
                             max_interval_count=max_intervals, failures=tuple(failures))


def spectral_tol(nu) -> float:
    """check_ovm_properties' spectrality tolerance for ``nu``."""
    return 1e-9 * nu.total_norm * nu.total_norm


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


class NotSelfAdjoint(OvmError):
    """A step function that pos_neg_parts splits is not self-adjoint."""


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
