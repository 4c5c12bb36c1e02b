"""Constructive Lyapunov engine for nonatomic operator-valued measures.

Any operator in the fractional hull {sum_k h_k M_k : 0 <= h_k <= 1} of a
divisible grid measure can be attained as nu(E) for an explicit interval
set E.  The route is the classical extreme-point argument for ranges of
nonatomic measures, made algorithmic:

1.  attain: phase 1 of Dantzig's bounded-variable revised simplex on the
    d^2 coordinate rows sum_k h_k M_k = A, 0 <= h_k <= 1, one artificial
    per row.  It starts at the prefix vertex 1_[0, j) whose value is
    nearest A (one cumsum over the cells), so an interior target at
    d = 4, m = 2000 takes about 100 steps, 0.05 m.  Its basic solution is
    a vertex of the fiber, with at most d^2 fractional cells, and goes
    straight to step 3.  At a phase-1 optimum with positive artificial
    sum the simplex multipliers give a witness W separating A from the
    range (see TargetNotInHull).
2.  convex_combine: the mix t nu(E1) + (1 - t) nu(E2) lies in the range;
    step 1 over the massive cells where E1 and E2 differ realizes it; a
    mix with an indivisible one among them is rejected before any solve.
    It is the one-mix case of _combine, which convexity_certificate runs
    on stacks of trials, each drawn by one read of the stream (_draw_mixes)
    and set up once, its phase-1 programs stepping in lockstep
    (_phase_one_stack), bit for bit a convex_combine call per trial.
3.  Realize the final fractions as leftmost sub-intervals of their cells,
    exact under the constant-density convention (_realized).

Every step reads the masses as rows of one m + n item stack in Hermitian
coordinates (OVM.coords), scales tolerances by ||nu(X)||, and drops null
cells, norm at most MASS_TOL * ||nu(X)|| (OVM.massive); all are cached.

No library path calls purify; it stays public for its contract.  Its
kernel test (kernel_witness) is one SVD of the support's coordinate
columns C.  By interlacing (R. C. Thompson, Linear Algebra Appl. 5, 1972)
a column subset has sigma_min >= sigma_min(C) and sigma_max <= sigma_max(C):
when C clears the KERNEL_RCOND cut, every subset does, and one call
decides them all (demos.uhl_demo).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from . import opcore
from .errors import (
    AtomicObstruction,
    InvalidInput,
    NotPositive,
    NumericalFailure,
    ShapeMismatch,
    TargetNotInHull,
)
from .opcore import (CERT_TOL, DISTINCT_TOL, KERNEL_RCOND, KERNEL_TOL, PIVOT_TOL, SIGN_TOL,
                     SIMPLEX_TOL, SNAP_TOL)
from .ovm import (
    OVM,
    FractionalSet,
    MeasurableSet,
    _as_list,
    _check_measure,
    _set_values,
    direct_sum,
    evaluate_fractional,
    is_nonatomic,
    set_to_json,
)

# Exchanges between refactorizations of the D x D basis inverse (D = d^2)
# that _Basis and _phase_one_stack keep by product-form updates, for
# attain's simplex, purify's crossover and the stacked mixes alike.  A
# refactor also solves the basic values afresh from the nonbasic ones.
REFACTOR_EVERY = 64
# Degenerate pivots in a row after which pricing follows Bland's rule
# until a pivot makes progress; Bland's rule cannot cycle.
BLAND_AFTER = 8
# Mixes convexity_certificate draws and solves as one stack, which bounds
# the memory its phase-1 programs take.
_STACK_MIXES = 128


@dataclass(frozen=True, eq=False)
class KernelWitness:
    """Nonzero coefficients c with sum_k c_k M_k = 0, max |c_k| = 1.

    Integrating the scalar step function sum c_k chi_k against the
    measure kills it: the conjugation M^(1/2) (cI) M^(1/2) is just cM.
    """

    coefficients: np.ndarray
    support: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PurifyResult:
    h_final: FractionalSet
    iterations: int
    target_residual: float

    @property
    def fractional_indices(self) -> tuple[int, ...]:
        """The cells of ``h_final`` strictly between 0 and 1."""
        return tuple(_fractional_indices(self.h_final.cell_fractions).tolist())


@dataclass(frozen=True, eq=False)
class AttainResult:
    """Interval realization of a target operator.

    ``interval_count`` is len(intervals), read-only.  ``fractional_count``
    is how many cells were strictly fractional in the realized set, i.e.
    how many cells had to be split.
    """

    intervals: tuple[tuple[float, float], ...]
    atom_indices: tuple[int, ...]
    achieved: np.ndarray
    residual: float
    iterations: int
    fractional_count: int = 0
    # Taken and dropped, so that callers naming it (dataclasses.replace
    # passes the property's value back in) keep working.
    interval_count: InitVar[int | None] = None


AttainResult.interval_count = property(lambda self: len(self.intervals),
                                       doc="The number of intervals.")


def coordinate_matrix(nu: OVM, support) -> np.ndarray:
    """Columns herm_coords(M_k) for k in support; shape (d^2, |support|)."""
    return nu.cell_coords[list(support)].T


def _null_direction(cols: np.ndarray) -> np.ndarray | None:
    """The canonical unit-peak null vector of the (D, n) real matrix
    ``cols``, or None when the SVD, cut at KERNEL_RCOND of its largest
    singular value, finds its columns independent.  With V_r an
    orthonormal basis of the row space, the vector is the projection
    e_pick - V_r^T V_r e_pick of the lowest e_k whose projector diagonal
    1 - ||V_r e_k||^2 is at least half the largest, re-projected once
    against round-off, first nonzero entry positive.  The projector, and
    so the output, does not depend on how LAPACK picks V_r."""
    sing, vt = opcore._kernel_svd(cols)
    rank = int(np.sum(sing > KERNEL_RCOND * sing.max(initial=0.0)))
    if rank == cols.shape[1]:
        return None
    rows = vt[:rank].T
    diag = 1.0 - np.einsum("ij,ij->i", rows, rows)
    pick = int(np.argmax(diag >= 0.5 * diag.max()))
    c = -(rows @ rows[pick])
    c[pick] += 1.0
    c -= rows @ (rows.T @ c)
    c /= np.abs(c).max()
    lead = int(np.argmax(np.abs(c) > SIGN_TOL))
    return -c if c[lead] < 0 else c


def kernel_witness(nu: OVM, support) -> KernelWitness | None:
    """A canonical null vector of the cell masses on ``support``, or None.

    Dependence is detected by an SVD of the coordinate matrix, singular
    values cut at KERNEL_RCOND relative to the largest (_null_direction);
    the witness is additionally validated to keep sum c_k M_k below
    KERNEL_TOL * ||nu(X)||.  A support that is not a nonempty sequence
    of in-range indices raises InvalidInput.
    """
    _check_measure(nu)
    try:
        cells = sorted({opcore.as_int(k, "kernel support index") for k in support})
    except TypeError:
        raise InvalidInput(f"kernel support must be a sequence, got {support!r}") from None
    if not cells or cells[0] < 0 or cells[-1] >= nu.space.n_cells:
        raise InvalidInput(f"kernel support must be nonempty indices in [0, {nu.space.n_cells})")
    c = _null_direction(nu.cell_coords[cells].T)
    if c is None or (opcore.op_norm(np.tensordot(c, nu.cell_masses[cells], 1))
                     > KERNEL_TOL * nu.total_norm):
        return None
    coeffs = np.zeros(nu.space.n_cells)
    coeffs[cells] = c
    coeffs.setflags(write=False)
    return KernelWitness(coefficients=coeffs, support=tuple(cells))


def _snap(h: np.ndarray) -> np.ndarray:
    """A copy of h with entries up to SNAP_TOL (negative ones too) set to 0
    and entries from 1 - SNAP_TOL (above 1 too) set to 1."""
    h = np.array(h, dtype=float)
    h[h <= SNAP_TOL] = 0.0
    h[h >= 1.0 - SNAP_TOL] = 1.0
    return h


def _fractional_indices(h: np.ndarray) -> np.ndarray:
    return np.flatnonzero((h > 0.0) & (h < 1.0))


def _cell_fractions(nu: OVM, h: FractionalSet) -> np.ndarray:
    """The cell fractions of ``h`` as _snapped gives them."""
    return _snapped(nu, nu.space.selector(h)[: nu.space.n_cells])


def _snapped(nu: OVM, cells: np.ndarray) -> np.ndarray:
    """A copy of the (..., m) cell fractions ``cells``, snapped onto {0, 1}
    within SNAP_TOL, with fractions on null cells (OVM.massive) dropped to 0:
    they change no value of the measure."""
    vec = _snap(cells)
    vec[(vec > 0.0) & (vec < 1.0) & ~nu.massive[: nu.space.n_cells]] = 0.0
    return vec


def _obstructions(nu: OVM, vecs: np.ndarray) -> list:
    """Per row of the (B, m) cell fractions ``vecs``: the AtomicObstruction
    naming its fractional cells that are indivisible, or None."""
    blocked = (vecs > 0.0) & (vecs < 1.0) & nu.space._indivisible
    out = [None] * len(vecs)
    for b in np.flatnonzero(blocked.any(axis=1)):
        cells = np.flatnonzero(blocked[b]).tolist()
        out[b] = AtomicObstruction(f"fractional cells {cells} are indivisible", cells=cells)
    return out


class _Basis:
    """A bounded-variable simplex basis over the columns of ``cols``, the
    artificials last: the engine of attain's phase 1 and purify's crossover.
    Row i holds basic column ``basis[i]``, its value ``xb[i]``, its upper
    bound ``ub[i]`` and its phase-1 cost ``cost[i]`` (1 for an artificial),
    updated in place at the exchanged row only.  ``value`` holds every
    column's value in [0, ``upper``], the basic ones as of the last
    ``settle`` (refactor settles).  The inverse binv is kept by product-form
    updates, refactored when ``due``.  The ratio test and the leaving row
    run on Python floats over the D = d^2 <= 16 rows, by numpy's IEEE
    operations in order: a phase-1 step takes about 16 us, not 18.6 us with
    numpy's fixed call costs (2-vCPU Xeon, any m from 200 to 2000)."""

    def __init__(self, cols, value, upper, basis):
        self.cols, self.value, self.upper, self.basis = cols, value, upper, basis
        self.xb, self.ub = value[basis], upper[basis].tolist()
        self.cost = (basis >= cols.shape[1] - len(basis)).astype(float)
        self.binv, self.since_refactor = None, REFACTOR_EVERY

    @property
    def due(self) -> bool:
        return self.since_refactor >= REFACTOR_EVERY

    def settle(self) -> np.ndarray:
        """``value`` with the basic values written back."""
        self.value[self.basis] = self.xb
        return self.value

    def refactor(self, rhs: np.ndarray):
        """Invert the basic columns afresh and solve the basic values from
        ``rhs``, the goal less the nonbasic columns' share."""
        self.binv = np.linalg.inv(self.cols[:, self.basis])
        self.xb = self.binv @ rhs
        self.settle()
        self.since_refactor = 0

    def push(self, q: int, sign: float, limit: float):
        """Move nonbasic column q by sign * t, and the basic values with it,
        for the longest t <= limit that keeps each basic value whose rate f
        exceeds PIVOT_TOL in its bounds.  Returns t, B^(-1) a_q and as lists
        the rates and their room: x / f, (x - u) / f if f < -PIVOT_TOL, inf if
        |f| <= PIVOT_TOL.  Only t is clamped, to +0.0 when not positive: a
        negative room ties with any t >= 0 in blocking as a clamped one would."""
        column = self.binv @ self.cols[:, q]
        fall = sign * column
        falls = fall.tolist()
        room = [x / f if f > PIVOT_TOL else (x - u) / f if f < -PIVOT_TOL else np.inf
                for x, u, f in zip(self.xb.tolist(), self.ub, falls)]
        t = min(room)
        t = min(t if t > 0.0 else 0.0, limit)
        self.xb -= t * fall
        self.value[q] += sign * t
        return t, column, falls, room

    def blocking(self, room: list, fall: list, t: float, bland: bool = False) -> int:
        """The row that blocks a push of length t: of the rows with room
        within SIMPLEX_TOL of t, the first with the largest |fall|, or under
        Bland's rule the one with the lowest basic column."""
        cut = t + SIMPLEX_TOL
        ties = [i for i, x in enumerate(room) if x <= cut]
        key = self.basis.tolist().__getitem__ if bland else lambda i: -abs(fall[i])
        return min(ties, key=key, default=0)

    def exchange(self, r: int, q: int, column: np.ndarray, fall: list) -> int:
        """Column q, never an artificial, with basis column ``column``, takes
        row r; the column leaving it is set to the bound it reached (its upper
        one when fall[r] < 0) and returned."""
        out = int(self.basis[r])
        self.value[out] = self.ub[r] if fall[r] < 0.0 else 0.0
        self.basis[r], self.xb[r], self.cost[r] = q, self.value[q], 0.0
        self.ub[r] = float(self.upper[q])
        self.binv[r] /= column[r]
        column[r] = 0.0
        self.binv -= column[:, None] * self.binv[r]
        self.since_refactor += 1
        return out


def purify(nu: OVM, h: FractionalSet) -> PurifyResult:
    """Drive a fractional set to an extreme point of its fiber.

    A bounded-variable primal crossover on _Basis over the divisible
    fractional cells, in Hermitian coordinates scaled by ||nu(X)||, from a
    basis of artificials fixed at 0.  Each step pushes the leftmost
    undecided cell toward its left neighbour's value when that is 0 or 1,
    else up when its fraction is at least 1/2 and down when not.  A cell
    that reaches its bound, ratio ties included, is pinned there; else the
    blocking basic value leaves at its bound and the rightmost undecided
    cell enters (the pushed one when the rightmost has no pivot in that
    row).  So each O(D^2) step (D = d^2) decides or enters a cell.  The
    value is conserved, and the cells left fractional, at most
    rank <= d^2, have independent masses.  ``iterations`` counts steps of
    positive length.

    AtomicObstruction is raised when indivisible cells are fractional too
    and the masses on all fractional cells have a kernel (kernel_witness):
    moving on would split an atom.  Otherwise they stay as they are (the
    non-injectivity hypothesis fails at this resolution).  Fractions on
    zero-mass cells are dropped to 0 up front: they change no value.
    """
    _check_measure(nu)
    if not nu.positive:
        raise NotPositive("purification is defined for positive OVMs")
    vec = _cell_fractions(nu, h)
    start_value = evaluate_fractional(nu, FractionalSet(vec, h.atom_mask))

    divisible = np.asarray(nu.space.divisible, dtype=bool)
    frac = _fractional_indices(vec)
    support = frac[divisible[frac]]
    cols = nu.cell_coords[support].T / (nu.total_norm or 1.0)
    big_d, n = cols.shape
    full = np.hstack([cols, np.eye(big_d)])
    goal = cols @ vec[support]
    value = np.concatenate([vec[support], np.zeros(big_d)])
    basis = _Basis(full, value, np.concatenate([np.ones(n), np.zeros(big_d)]),
                   np.arange(n, n + big_d))
    basis.binv, basis.since_refactor = np.eye(big_d), 0  # the artificials, at 0

    def rhs():
        y = value[:n].copy()
        y[basis.basis[basis.basis < n]] = 0.0
        return goal - cols @ y

    lo, hi, iterations = 0, n - 1, 0
    while lo <= hi:
        if basis.due:
            basis.refactor(rhs())
        k = support[lo]
        neighbour = (basis.settle()[lo - 1] if lo and support[lo - 1] == k - 1
                     else vec[k - 1] if k else None)
        up = neighbour == 1.0 if neighbour in (0.0, 1.0) else value[lo] >= 0.5
        own = 1.0 - value[lo] if up else value[lo]
        t, column, fall, room = basis.push(lo, 1.0 if up else -1.0, own)
        iterations += int(t > 0.0)
        if t >= own - SIMPLEX_TOL:
            value[lo] = float(up)
            lo += 1
            continue
        r, q = basis.blocking(room, fall, t), lo
        if hi > lo and abs(basis.binv[r] @ full[:, hi]) > PIVOT_TOL:
            q, column = hi, basis.binv @ full[:, hi]
            hi -= 1
        else:
            lo += 1
        basis.exchange(r, q, column, fall)
    if iterations:
        basis.refactor(rhs())
        vec[support] = _snap(value[:n])

    frac = _fractional_indices(vec)
    if not divisible[frac].all() and kernel_witness(nu, frac) is not None:
        blocked = tuple(int(k) for k in frac if not divisible[k])
        raise AtomicObstruction(
            f"kernel move requires splitting indivisible cells {blocked}", cells=blocked)
    final = FractionalSet(vec, h.atom_mask)
    residual = opcore.op_norm(evaluate_fractional(nu, final) - start_value)
    return PurifyResult(
        h_final=final,
        iterations=iterations,
        target_residual=residual,
    )


def realize_intervals(nu: OVM, h: FractionalSet, target=None) -> AttainResult:
    """Canonical Borel realization of a fractional set.

    Whole cells stay whole; a fraction t becomes the leftmost sub-interval
    of length t * w_k, legal only on divisible cells.  A cell whose start
    equals the last interval's end, bit for bit, extends it.  Under constant
    densities the realized set carries exactly evaluate_fractional(nu, h).
    """
    _check_measure(nu)
    if target is not None:
        target = opcore.as_matrix(target)
        if target.shape[0] != nu.dim:
            raise ShapeMismatch(f"target dim {target.shape[0]} vs measure dim {nu.dim}")
    vec = _cell_fractions(nu, h)
    if (obstruction := _obstructions(nu, vec[None])[0]) is not None:
        raise obstruction
    return _realized(nu, vec, h.atom_mask, target, 0)


def _intervals(nu: OVM, vecs: np.ndarray):
    """The interval realization of each row of the (B, m) cell fractions
    ``vecs``, which _cell_fractions has snapped and cleared of null cells:
    over the nonzero cells in row-major order, their rows, interval pieces
    [lo, hi) and whether each starts or ends an interval (see
    realize_intervals)."""
    bp = nu.space._edges
    rows, cells = np.nonzero(vecs)
    frac = vecs[rows, cells]
    lo, right = bp[cells], bp[cells + 1]
    hi = np.where(frac == 1.0, right, lo + frac * (right - lo))
    starts = np.concatenate(([np.inf], hi[:-1])) != lo
    starts[1:] |= rows[1:] != rows[:-1]
    ends = np.ones_like(starts)
    ends[:-1] = starts[1:]
    return rows, lo, hi, starts, ends


def _result(nu: OVM, vec: np.ndarray, atom_mask, achieved, residual, iterations) -> AttainResult:
    """The AttainResult of realizing cell fractions ``vec`` (see _intervals)
    and the atoms of ``atom_mask``, with the value, residual and step count given."""
    _, lo, hi, starts, ends = _intervals(nu, vec[None])
    return AttainResult(
        intervals=tuple(zip(lo[starts].tolist(), hi[ends].tolist())),
        atom_indices=tuple(np.flatnonzero(atom_mask).tolist()),
        achieved=achieved,
        residual=residual,
        iterations=iterations,
        fractional_count=int(_fractional_indices(vec).size),
    )


def _realized(nu: OVM, vec: np.ndarray, atom_mask, target, iterations) -> AttainResult:
    """_result of snapped cell fractions ``vec`` and the atoms of ``atom_mask``,
    valued by one ovm._set_values row, its residual taken against ``target``
    (0.0 for None)."""
    achieved = _set_values(nu.masses, np.concatenate([vec, atom_mask])[None])[0]
    residual = 0.0 if target is None else opcore.op_norm(achieved - target)
    return _result(nu, vec, atom_mask, achieved, residual, iterations)


def convex_combine(nu: OVM, e1: MeasurableSet, e2: MeasurableSet, t: float) -> AttainResult:
    """Realize t * nu(E1) + (1 - t) * nu(E2) as nu(E) for an interval set E.

    Atoms and indivisible cells are never split: for t strictly inside
    (0, 1) nu must be positive and the sets must agree on every massive atom
    and indivisible cell (t within SNAP_TOL of 0 or 1 counts as 0 or 1).
    E1 & E2 <= E <= E1 | E2; ``iterations`` counts phase-1 steps (step 2).
    """
    _check_measure(nu)
    if not 0.0 <= opcore.as_real(t, "mixing weight") <= 1.0:
        raise InvalidInput(f"mixing weight {t!r} outside [0, 1]")
    mixes = _combine(nu, np.array([[nu.space.mask(e1), nu.space.mask(e2)]]), np.array([t]))
    if mixes.obstructions[0] is not None:
        raise mixes.obstructions[0]
    return mixes.result(nu, 0)


class _Mixes(NamedTuple):
    """_combine's realizations, one row per mix: the cell fractions and atom
    mask realized, the value achieved, its residual against the mix and the
    phase-1 steps; ``obstructions`` holds each mix's AtomicObstruction or
    None, and an obstructed mix's other entries are placeholders."""

    vecs: np.ndarray
    atoms: np.ndarray
    achieved: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    obstructions: list

    def result(self, nu: OVM, b: int) -> AttainResult:
        """The AttainResult of unobstructed mix b."""
        return _result(nu, self.vecs[b], self.atoms[b], self.achieved[b],
                       float(self.residuals[b]), int(self.iterations[b]))


def _combine(nu: OVM, picks: np.ndarray, t: np.ndarray) -> _Mixes:
    """convex_combine of each mix b: the sets with the (m + n) selectors
    picks[b, 0] and picks[b, 1], weight t[b] in [0, 1].

    The mixes are prepared as (B, m) arrays; every program needing phase 1
    is solved at once, by _phase_one for one and _phase_one_stack, set up
    once (_solve_stack), for more; the values achieved and the targets take
    one stacked evaluation (ovm._set_values), and the residuals one op_norms
    call.  Each mix gets what it would get alone, bit for bit.  Other errors
    are raised as a loop of convex_combine calls would raise them, at the
    lowest mix: NotPositive before any solve (every mix that reaches one
    passes that check first), NumericalFailure for a step limit or a
    positive phase-1 optimum.
    """
    m = nu.space.n_cells
    s1, s2, a1, a2 = picks[:, 0, :m], picks[:, 1, :m], picks[:, 0, m:], picks[:, 1, m:]
    count, obstructions = len(t), [None] * len(t)
    at_zero, at_one = t == 0.0, t == 1.0
    end = (at_zero | at_one).tolist()
    differing = (a1 != a2) & nu.massive[m:]
    for b in np.flatnonzero(differing.any(axis=1)).tolist():
        if not end[b]:
            cells = np.flatnonzero(differing[b]).tolist()
            obstructions[b] = AtomicObstruction(
                f"atom selections differ on massive sites {cells}", cells=cells)
    if not nu.positive and obstructions.count(None) > sum(end):  # a mix to solve
        raise NotPositive("convex combination is defined for positive OVMs")

    # Every mix, formed in t's precision, held in float64 and clamped as
    # FractionalSet holds it: at t = 0 or 1 that is E2's or E1's cell mask
    # exactly.  The atoms are E1's at t = 1, E2's at t = 0 and E1 & E2's
    # otherwise.
    tc = t[:, None]
    h0 = np.asarray(tc * s1 + (1.0 - tc) * s2, dtype=float)
    h0 = np.where(h0 > 0.0, np.minimum(h0, 1.0), 0.0)
    atoms = (a1 | at_zero[:, None]) & (a2 | at_one[:, None])
    vecs = _snapped(nu, h0)
    for b, obstruction in enumerate(_obstructions(nu, vecs)):
        if obstructions[b] is None:
            obstructions[b] = obstruction
    solve = [b for b in range(count) if not end[b] and obstructions[b] is None]

    iterations = np.zeros(count, dtype=int)
    if len(solve) > 1:
        _solve_stack(nu, vecs, solve, iterations)
    elif solve:
        b = solve[0]
        cells = _fractional_indices(vecs[b])
        coords = nu.cell_coords[cells].T / (nu.total_norm or 1.0)
        h, iterations[b] = _solved(_phase_one(coords, coords @ vecs[b, cells]))
        vecs[b, cells] = _snap(h)

    # The values achieved, then the solved mixes' targets, from one call; at
    # t = 0 or 1 the target is the value achieved, and the residual is 0.
    values = _set_values(nu.masses, np.concatenate(
        [np.concatenate([vecs, h0[solve]]), np.concatenate([atoms, atoms[solve]])], axis=1))
    residuals = np.zeros(count)
    if solve:
        residuals[solve] = opcore.op_norms(values[solve] - values[count:])
    return _Mixes(vecs, atoms, values[:count], residuals, iterations, obstructions)


def _solved(lp) -> tuple:
    """A mix's phase-1 fractions and steps; raises its NumericalFailure."""
    if isinstance(lp, NumericalFailure):
        raise lp
    h, _, objective, steps = lp
    if objective > SIMPLEX_TOL:
        raise NumericalFailure(f"phase-1 optimum {objective:.3e} on a mix in the range")
    return h, steps


def _solve_stack(nu: OVM, vecs: np.ndarray, solve: list, iterations: np.ndarray):
    """_combine's phase 1 for two or more mixes, the rows ``solve`` of the
    snapped fractions ``vecs``, set up once: their fractional cells from one
    mask, their scaled coordinates in one zero-padded (B, W, D) array whose
    F-ordered views c[b, :w].T are laid out as nu.cell_coords[cells].T /
    scale is (same goal products), the fractions snapped and scattered back
    in one pass; raises the lowest mix's failure (_solved)."""
    frac = vecs[solve]
    rows, cells = np.nonzero((frac > 0.0) & (frac < 1.0))
    width = np.bincount(rows, minlength=len(solve))
    first = np.cumsum(width) - width
    c = np.zeros((len(solve), int(width.max()), nu.cell_coords.shape[1]))
    c[rows, np.arange(rows.size) - first[rows]] = nu.cell_coords[cells] / (nu.total_norm or 1.0)
    x = frac[rows, cells]
    problems = [(c[b, :w].T, c[b, :w].T @ x[o : o + w])
                for b, (w, o) in enumerate(zip(width.tolist(), first.tolist()))]
    solved = [_solved(lp) for lp in _phase_one_stack(problems)]
    iterations[solve] = [steps for _, steps in solved]
    vecs[np.asarray(solve)[rows], cells] = _snap(np.concatenate([h for h, _ in solved]))


def _entering(gain: np.ndarray, bland: bool) -> int | None:
    """Dantzig's largest gain, lowest index on ties, or under Bland's rule
    the lowest index with any gain; None at a phase-1 optimum."""
    q = int((gain > SIMPLEX_TOL).argmax() if bland else gain.argmax())
    return q if gain[q] > SIMPLEX_TOL else None


def _prefix_starts(cells: np.ndarray, goals: np.ndarray) -> np.ndarray:
    """Phase 1's start for the programs whose coords fill the (..., D, W)
    stack ``cells`` from the left, zero-padded, and whose goals are the
    (..., D) ``goals``: the prefix vertex h = 1_[0, j) whose value is
    nearest the goal, shape (..., W).  The prefix sums are one cumsum into
    a fresh C-ordered array, so the distances add over the rows in sequence
    whatever the layout of ``cells``, as each program's own; a pad repeats
    the last prefix, so the lowest nearest j is within the program."""
    gap = np.zeros((*cells.shape[:-1], cells.shape[-1] + 1))
    np.cumsum(cells, axis=-1, out=gap[..., 1:])
    gap -= goals[..., None]
    nearest = np.argmin(np.sqrt(np.add.reduce(gap * gap, axis=-2)), axis=-1)
    return (np.arange(cells.shape[-1]) < nearest[..., None]).astype(float)


def _signs(coords: np.ndarray, goal: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The artificials' signs s at the start h (see _phase_one), from the
    program's own coords @ h: a stacked product over padded columns would
    add in another order."""
    return np.where(goal - coords @ h >= 0.0, 1.0, -1.0)


def _program_limit(n_rows: int, m: int) -> None:
    """SizeLimit when _phase_one's columns for n_rows rows and m cells,
    n_rows * (m + n_rows) entries, exceed PROGRAM_ENTRIES."""
    opcore.within_limit(n_rows * (m + n_rows), opcore.PROGRAM_ENTRIES, "phase-1 program entries")


def _phase_one(coords: np.ndarray, goal: np.ndarray):
    """Phase 1 of the bounded-variable revised simplex on _Basis: minimize
    the sum of artificials a_i >= 0, one per row, subject to
    coords h + s a = goal and 0 <= h <= 1 (s_i = +-1 makes the starting a_i
    nonnegative).

    Cells start at the prefix vertex 1_[0, j) whose value, the column sum
    of the first j coords, is nearest the goal (Euclidean, lowest j on
    ties).  The prefix curve j -> nu([0, x_j)) runs from 0 to nu(X) in
    steps of one cell's mass: in the scalar case it meets every target
    within one cell (Lyapunov's intermediate-value argument), and in any
    dimension it stays near targets that spread weight over the whole
    space, such as sum_k h_k M_k for fractions h drawn independently of
    the cells.  So the walk from it is short, and j = m is already the
    vertex for nu(X).  A face target, far from the curve, costs about as
    many steps as from any other vertex.  A bound flip moves a nonbasic
    cell across its box and keeps the basis; a departing artificial never
    re-enters.  Returns (h, duals, objective, steps): a basic solution, the
    simplex multipliers, sum a, and the pivots plus bound flips taken.
    """
    n_rows, m = coords.shape
    _program_limit(n_rows, m)
    h = _prefix_starts(coords, goal)
    cols = np.zeros((n_rows, m + n_rows))  # the program, filled once in C order
    cols[:, :m], cols[:, m:] = coords, np.diag(_signs(coords, goal, h))
    value = np.concatenate([h, np.zeros(n_rows)])
    upper = np.concatenate([np.ones(m), np.full(n_rows, np.inf)])
    move = np.concatenate([1.0 - 2.0 * h, np.zeros(n_rows)])  # +1 at 0, -1 at 1, else 0
    basis = _Basis(cols, value, upper, np.arange(m, m + n_rows))
    steps, degenerate, gain = 0, 0, np.empty(m + n_rows)
    while True:
        if basis.due:
            basis.refactor(goal - cols[:, move < 0].sum(axis=1))
        objective = float(basis.cost @ basis.xb)
        if objective <= SIMPLEX_TOL:
            break
        bland = degenerate >= BLAND_AFTER
        np.matmul(basis.cost @ basis.binv, cols, out=gain)
        gain *= move
        q = _entering(gain, bland)
        if q is None:
            if basis.since_refactor == 0:
                break
            basis.since_refactor = REFACTOR_EVERY  # confirm the optimum on a fresh factor
            continue
        steps += 1
        if steps > 100 * (m + n_rows):
            raise NumericalFailure(f"simplex took more than {100 * (m + n_rows)} steps")
        t, column, fall, room = basis.push(q, move[q], 1.0)
        if t == 1.0:  # bound flip
            move[q] = -move[q]
            degenerate = 0
            continue
        r = basis.blocking(room, fall, t, bland)
        out = basis.exchange(r, q, column, fall)
        move[out] = -1.0 if fall[r] < 0.0 else float(out < m)
        move[q] = 0.0
        degenerate = degenerate + 1 if t <= SIMPLEX_TOL else 0
    return basis.settle()[:m], basis.cost @ basis.binv, objective, steps


def _phase_one_stack(problems) -> list:
    """_phase_one on every (coords, goal) pair of ``problems``, all with the
    same row count D, stepped in lockstep: one pass of the loop advances
    every unfinished program by one _phase_one iteration, under the same
    rules, and finished ones leave the stack.  Narrower programs are padded
    with zero columns between their cells and their artificials; a pad has
    no move, so it never enters.  Products over the D rows are stacked
    np.matmul calls, which run the BLAS kernels of _phase_one's 2-d ones;
    work over one program's cells (start, refactor right-hand side) runs
    per program.  So each entry is _phase_one's (h, duals, objective,
    steps) bit for bit, or the NumericalFailure it raises.  A pass reads the
    basic values once, applies Bland's rule only while a program follows
    it, and updates B^(-1) on one gathered block.
    """
    n_rows = problems[0][1].size
    width = np.array([coords.shape[1] for coords, _ in problems])
    wide = int(width.max())
    n_cols = wide + n_rows
    opcore.within_limit(len(problems) * n_rows * n_cols, opcore.PROGRAM_ENTRIES,
                        "phase-1 stack entries")
    cols = np.zeros((len(problems), n_rows, n_cols))
    value = np.zeros((len(problems), n_cols))
    upper = np.concatenate([np.ones(wide), np.full(n_rows, np.inf)])
    move = np.zeros((len(problems), n_cols))
    for b, (coords, _) in enumerate(problems):
        cols[b, :, :width[b]] = coords
    value[:, :wide] = _prefix_starts(cols[:, :, :wide], np.array([g for _, g in problems]))
    cols[:, np.arange(n_rows), wide + np.arange(n_rows)] = [
        _signs(coords, goal, h[:w]) for (coords, goal), h, w in zip(problems, value, width)]
    move[:, :wide] = np.where(np.arange(wide) < width[:, None], 1.0 - 2.0 * value[:, :wide], 0.0)
    basis = np.tile(np.arange(wide, n_cols), (len(problems), 1))
    binv = np.empty((len(problems), n_rows, n_rows))
    since = np.full(len(problems), REFACTOR_EVERY)
    steps, degenerate = np.zeros(len(problems), dtype=int), np.zeros(len(problems), dtype=int)
    limit = 100 * (width + n_rows)
    live = np.arange(len(problems))  # the program in each row of the arrays above
    row = np.arange(len(problems))
    results = [None] * len(problems)
    while live.size:
        due = np.flatnonzero(since >= REFACTOR_EVERY)
        if due.size:
            binv[due] = np.linalg.inv(cols[due[:, None], :, basis[due]].transpose(0, 2, 1))
            rhs = np.stack([problems[live[r]][1] - cols[r][:, move[r] < 0].sum(axis=1)
                            for r in due])
            value[due[:, None], basis[due]] = (binv[due] @ rhs[:, :, None])[:, :, 0]
            since[due] = 0
        xb = value[row[:, None], basis]
        cost = (basis >= wide).astype(float)[:, None, :]
        objective = (cost @ xb[:, :, None])[:, 0, 0]
        duals = cost @ binv
        gain = (duals @ cols)[:, 0, :] * move
        bland = degenerate >= BLAND_AFTER
        q = np.argmax(gain, axis=1)
        if bland.any():
            q = np.where(bland, np.argmax(gain > SIMPLEX_TOL, axis=1), q)
        enters = (objective > SIMPLEX_TOL) & (gain[row, q] > SIMPLEX_TOL)
        optimum = ~enters & ((objective <= SIMPLEX_TOL) | (since == 0))
        since[~enters & ~optimum] = REFACTOR_EVERY  # confirm the optimum on a fresh factor
        steps[enters] += 1
        over = enters & (steps > limit)
        for r in np.flatnonzero(optimum):
            results[live[r]] = (value[r, :width[r]].copy(), duals[r, 0],
                                float(objective[r]), int(steps[r]))
        for r in np.flatnonzero(over):
            results[live[r]] = NumericalFailure(f"simplex took more than {limit[r]} steps")

        p = np.flatnonzero(enters & ~over)  # _Basis.push, then a bound flip
        qp, sign, bp, at = q[p], move[p, q[p]], basis[p], xb[p]
        column = (binv[p] @ cols[p, :, qp][:, :, None])[:, :, 0]
        fall = sign[:, None] * column
        room = np.full(fall.shape, np.inf)
        np.divide(at, fall, out=room, where=fall > PIVOT_TOL)
        np.divide(at - upper[bp], fall, out=room, where=fall < -PIVOT_TOL)
        t = room.min(axis=1)
        t = np.minimum(np.where(t > 0.0, t, 0.0), 1.0)  # as _Basis.push clamps t
        value[p[:, None], bp] = at - t[:, None] * fall
        value[p, qp] += sign * t
        flip = t == 1.0
        if flip.any():
            move[p[flip], qp[flip]] = -sign[flip]
            degenerate[p[flip]] = 0

        x = np.flatnonzero(~flip)  # or _Basis.blocking and exchange
        px, qx, fx, cx, bx = p[x], qp[x], fall[x], column[x], bp[x]
        ties = room[x] <= t[x, None] + SIMPLEX_TOL
        k = np.arange(x.size)
        r = np.argmax(np.where(ties, np.abs(fx), -1.0), axis=1)
        if bland[px].any():
            r = np.where(bland[px], np.argmin(np.where(ties, bx, n_cols), axis=1), r)
        out, down = bx[k, r], fx[k, r] < 0.0
        value[px, out] = np.where(down, upper[out], 0.0)
        basis[px, r] = qx
        block = binv[px]
        block[k, r] /= cx[k, r][:, None]
        cx[k, r] = 0.0
        block -= cx[:, :, None] * block[k, r][:, None, :]
        binv[px] = block
        since[px] += 1
        move[px, out] = np.where(down, -1.0, (out < width[px]).astype(float))
        move[px, qx] = 0.0
        degenerate[px] = np.where(t[x] <= SIMPLEX_TOL, degenerate[px] + 1, 0)

        keep = ~(optimum | over)
        if not keep.all():
            live, cols, value, move, basis, binv, since, steps, degenerate, limit, width = (
                a[keep] for a in (live, cols, value, move, basis, binv, since, steps,
                                  degenerate, limit, width))
            row = row[: live.size]
    return results


def attain(nu: OVM, target) -> AttainResult:
    """Realize a target operator in the range of a nonatomic measure.

    Phase 1 of the bounded-variable simplex finds a vertex h of the fiber
    {h in [0,1]^m : sum_k h_k M_k = target} in Hermitian coordinates; it
    has at most d^2 fractional cells, snapped (_snapped) and realized as
    leftmost sub-intervals by _realized, as realize_intervals realizes them.
    ``iterations`` counts the simplex steps (pivots plus bound flips).
    Tolerances are relative to ||nu(X)||.  A phase-1 optimum with positive
    artificial sum raises TargetNotInHull with a separating witness W:
    tr(W A) exceeds sum_k max(0, tr(W M_k)), the largest tr(W B) over the
    range, by ``gap`` > 0.
    """
    _check_measure(nu)
    if not nu.positive:
        raise NotPositive("attainment is defined for positive OVMs")
    if not is_nonatomic(nu):
        raise AtomicObstruction("attainment needs a nonatomic measure "
                                "(divisible cells, no massive atoms)")
    a_mat = opcore.hermitian(target)
    if a_mat.shape[0] != nu.dim:
        raise ShapeMismatch(f"target dim {a_mat.shape[0]} vs measure dim {nu.dim}")
    goal = opcore._herm_coords(a_mat)
    scale = nu.total_norm or 1.0
    h, duals, objective, steps = _phase_one(nu.cell_coords.T / scale, goal / scale)
    if objective > SIMPLEX_TOL:
        witness = opcore.coords_to_herm(duals)
        gap = check_separation(nu, a_mat, witness)
        if not gap > 0.0:
            raise NumericalFailure(f"phase-1 optimum {objective:.3e} without a separation")
        raise TargetNotInHull(
            f"target outside the range: separation gap {gap:.3e} after {steps} simplex steps",
            witness=witness, gap=gap)
    return _realized(nu, _snapped(nu, h), np.zeros(nu.space.n_atoms, bool), a_mat, steps)


def check_separation(nu: OVM, target, witness) -> float:
    """TargetNotInHull's ``gap``: tr(W A) - sum_k max(0, tr(W M_k)) over cells
    and atoms, for (d, d) A and Hermitian W.  The sum is the largest tr(W B)
    over the range, so a positive gap certifies that no set attains A."""
    _check_measure(nu)
    a_mat = opcore.hermitian(target)
    w = opcore.herm_coords(opcore.as_matrix(witness))
    if a_mat.shape[0] != nu.dim or w.size != nu.dim * nu.dim:
        raise ShapeMismatch(f"target and witness must be {nu.dim} x {nu.dim}")
    return float(w @ opcore._herm_coords(a_mat) - np.maximum(nu.coords @ w, 0.0).sum())


def joint_attain(ovms, targets) -> AttainResult:
    """One set E with nu_i(E) = A_i for every component, via the direct sum."""
    ovms = _as_list(ovms, "ovms", "OVMs")
    targets = _as_list(targets, "targets", "matrices")
    if len(ovms) != len(targets):
        raise InvalidInput("need one target per measure")
    if not ovms:
        raise InvalidInput("need at least one measure")
    for nu in ovms:
        _check_measure(nu)
    joint = direct_sum(*ovms) if len(ovms) > 1 else ovms[0]
    block = np.zeros((joint.dim, joint.dim), dtype=np.complex128)
    lo = 0
    for d, t in zip([o.dim for o in ovms], targets):
        t_mat = opcore.as_matrix(np.atleast_2d(opcore.as_array(t, np.complex128)))
        if t_mat.shape[0] != d:
            raise ShapeMismatch(f"target dim {t_mat.shape[0]} vs component dim {d}")
        block[lo:lo + d, lo:lo + d] = t_mat
        lo += d
    return attain(joint, block)


def brute_force_range(nu: OVM) -> list[tuple[MeasurableSet, np.ndarray]]:
    """All 2^(m + #atoms) evaluations over whole cells and atoms.

    Item k of the concatenated (cells, atoms) list corresponds to bit k
    of the enumeration index.
    """
    _check_measure(nu)
    m, count = nu.space.n_cells, len(nu.masses)
    opcore.within_limit(count, opcore.ENUMERATION_ITEMS, "enumerated items")
    values = np.zeros((1, nu.dim, nu.dim), dtype=np.complex128)
    masks = np.zeros((1, count), dtype=bool)
    for item, mass in zip(np.eye(count, dtype=bool), nu.masses):
        values = np.concatenate([values, values + mass])
        masks = np.concatenate([masks, masks | item])
    return [(MeasurableSet(mask[:m], mask[m:]), value) for mask, value in zip(masks, values)]


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    e1: dict
    e2: dict
    t: float
    reason: str


@dataclass(frozen=True, eq=False)
class CertificateReport:
    trials: int
    seed: int
    max_residual: float
    max_interval_count: int
    failures: tuple[TrialFailure, ...]


def convexity_certificate(nu: OVM, trials: int, seed: int) -> CertificateReport:
    """Stress the convexity claim on seeded random mixes.

    Each trial draws sets until their measures differ (mixing equal range
    points tests nothing), then a strictly interior weight, all from one
    PCG64 stream in trial order.  Trials are drawn up to _STACK_MIXES at a
    time by _draw_mixes, which leaves the stream, and every set and weight,
    as drawing trial by trial leaves them.  Each stack is then realized as
    convex_combine realizes each mix (_combine), with phase-1 programs
    solved as one lockstep stack.  A failure is an AtomicObstruction or a
    residual above CERT_TOL * ||nu(X)||, recorded with its inputs.  Trials
    aggregate in index order, and every value is bit for bit that of a
    convex_combine call per trial, so reports are reproducible and equal
    to the trial-by-trial loop's.
    """
    _check_measure(nu)
    trials = opcore.as_int(trials, "trials", low=0)
    opcore.within_limit(trials, opcore.CERT_TRIALS, "certificate trials")
    seed = opcore.as_int(seed, "seed", low=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    m, cert_tol = nu.space.n_cells, CERT_TOL * nu.total_norm
    failures, max_residual, max_intervals = [], 0.0, 0
    for first in range(0, trials, _STACK_MIXES):
        picks, weights = _draw_mixes(nu, rng, min(_STACK_MIXES, trials - first))
        mixes = _combine(nu, picks, weights)
        rows, _, _, starts, _ = _intervals(nu, mixes.vecs)
        counts = np.bincount(rows[starts], minlength=len(weights)).tolist()
        for b, (obstruction, residual) in enumerate(zip(mixes.obstructions,
                                                        mixes.residuals.tolist())):
            if obstruction is not None:
                reason = f"AtomicObstruction: {obstruction}"
            else:
                max_residual = max(max_residual, residual)
                max_intervals = max(max_intervals, counts[b])
                reason = f"residual {residual:.3e}" if residual > cert_tol else None
            if reason:
                e1, e2 = (set_to_json(MeasurableSet(s[:m], s[m:])) for s in picks[b])
                failures.append(TrialFailure(first + b, e1, e2, float(weights[b]), reason))
    return CertificateReport(trials=trials, seed=seed, max_residual=max_residual,
                             max_interval_count=max_intervals, failures=tuple(failures))


def _draw_mixes(nu: OVM, rng: np.random.Generator, count: int):
    """``count`` trials of convexity_certificate drawn from ``rng``, a PCG64
    generator holding no buffered half word: their (count, 2, m + n)
    selector pairs and weights, the generator's state left as drawing them
    one by one leaves it.

    Drawn one by one, a trial takes m + n + 1 words: integers(0, 2) gives
    bit 31 of each 32-bit half, low half first (E1's items, then E2's), and
    random() gives (word >> 11) * 2**-53.  So a window of trials is one
    random_raw read, and its pairs are checked at once.  At the first pair
    whose values are equal within the certificate's tolerance the stream
    rewinds to just after it (the window's start state, advanced), and the
    trial redraws one pair at a time: up to 1000 pairs are checked, the
    first distinct one kept (or else a 1001st, unchecked), then its weight
    drawn.  A window runs at most about twice past where the last stopped.
    """
    m, n = nu.space.n_cells, nu.space.n_atoms
    items, distinct_tol = m + n, DISTINCT_TOL * nu.total_norm
    picks, weights = np.empty((count, 2, items), dtype=bool), np.empty(count)
    halves = np.array([31, 63], dtype=np.uint64)  # bit 31 of the low, then the high half

    def distinct(pairs):
        values = _set_values(nu.masses, pairs.reshape(-1, items))
        return opcore.op_norms(values[::2] - values[1::2]) > distinct_tol

    def redraw(k):
        for check in range(1000):  # the first pair took the first of 1000 checks
            picks[k] = (rng.integers(0, 2, 2 * items) == 1).reshape(2, items)
            if check == 999 or distinct(picks[k : k + 1])[0]:
                return

    k, window, last = 0, count, None
    while k < count:
        size = min(window, count - k)
        start = rng.bit_generator.state
        words = rng.bit_generator.random_raw(size * (items + 1)).reshape(size, items + 1)
        picks[k : k + size] = ((words[:, :items, None] >> halves) & 1).reshape(size, 2, items) == 1
        weights[k : k + size] = (words[:, items] >> 11) * 2.0**-53
        equal = np.flatnonzero(~distinct(picks[k : k + size]))
        if not equal.size:
            k, window, last = k + size, 2 * window, words[-1, items - 1]
            continue
        j = int(equal[0])
        rng.bit_generator.state = start
        rng.bit_generator.advance(j * (items + 1) + items)
        redraw(k + j)
        weights[k + j] = rng.random()
        k, window, last = k + j + 1, 2 * (j + 1), None
    if last is not None:  # integers leaves the last high half in its spent buffer
        state = rng.bit_generator.state
        state["uinteger"] = int(last >> 32)
        rng.bit_generator.state = state
    return picks, weights


def attain_to_json(result: AttainResult) -> dict:
    return {
        "intervals": [[lo, hi] for lo, hi in result.intervals],
        "atoms": list(result.atom_indices),
        "achieved": opcore.matrix_to_json(result.achieved),
        "residual": result.residual,
        "interval_count": result.interval_count,
        "iterations": result.iterations,
    }
