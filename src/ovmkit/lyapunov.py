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
    step 1 over the massive cells where E1 and E2 differ realizes it.  A
    mix with an indivisible differing cell is purified instead: a crossover
    on _Basis walks it to a fiber vertex, at most rank <= d^2 fractional.
3.  Realize the final fractions as leftmost sub-intervals of their cells,
    exact under the constant-density convention.

Every step reads the masses as rows of one m + n item stack in Hermitian
coordinates (OVM.coords), scales tolerances by ||nu(X)||, and drops null
cells, norm at most MASS_TOL * ||nu(X)|| (OVM.massive); all are cached.

Atoms obstruct purify: when the fractional cells, indivisible ones
included, still carry a kernel, AtomicObstruction is raised instead of
silently splitting an atom.  The kernel test is one SVD per stack of
supports (_kernel); kernel_witness and purify call it with a stack of
one, demos.uhl_demo with stacks of 32 supports of one size.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace

import numpy as np

from . import opcore
from .errors import (
    AtomicObstruction,
    InvalidInput,
    NotPositive,
    NumericalFailure,
    ShapeMismatch,
    SizeLimit,
    TargetNotInHull,
)
from .ovm import (
    OVM,
    FractionalSet,
    MeasurableSet,
    direct_sum,
    evaluate,
    evaluate_fractional,
    is_nonatomic,
)

# Fractions within this of a bound snap onto it.
SNAP_TOL = 1e-12
# Relative singular-value cutoff of the SVD kernel test.
KERNEL_RCOND = 1e-10
# Simplex tolerance in units of ||nu(X)||: the artificial sum that counts
# as attained, the least entering gain and the ratio-test tie width.
SIMPLEX_TOL = 1e-12
# Smallest basis-column entry a ratio test divides by.
PIVOT_TOL = 1e-9
# Exchanges between refactorizations of the D x D basis inverse (D = d^2)
# that _Basis keeps by product-form updates, for attain's simplex and
# purify's crossover alike.
REFACTOR_EVERY = 64
# Degenerate pivots in a row after which pricing follows Bland's rule
# until a pivot makes progress; Bland's rule cannot cycle.
BLAND_AFTER = 8


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


def _null_direction(stack: np.ndarray) -> list[np.ndarray | None]:
    """For each (D, n) real matrix of the (g, D, n) ``stack``, its canonical
    unit-peak null vector, or None when the SVD, cut at KERNEL_RCOND of its
    largest singular value, finds its columns independent.  One batched
    SVD gives each matrix the same bits as a lone one.  With V_r an
    orthonormal basis of the row space, the vector is the projection
    e_pick - V_r^T V_r e_pick of the lowest e_k whose projector diagonal
    1 - ||V_r e_k||^2 is at least half the largest, re-projected once
    against round-off, first nonzero entry positive.  The projector, and
    so the output, does not depend on how LAPACK picks V_r."""
    _, sing, vt = np.linalg.svd(stack, full_matrices=False)
    ranks = np.sum(sing > KERNEL_RCOND * sing.max(axis=-1, initial=0.0)[:, None], axis=-1)
    out = [None] * len(stack)
    for i in np.flatnonzero(ranks < stack.shape[2]):
        rows = vt[i, : ranks[i]].T
        diag = 1.0 - np.einsum("ij,ij->i", rows, rows)
        pick = int(np.argmax(diag >= 0.5 * diag.max()))
        c = -(rows @ rows[pick])
        c[pick] += 1.0
        c -= rows @ (rows.T @ c)
        c /= np.abs(c).max()
        lead = int(np.argmax(np.abs(c) > 1e-12))
        out[i] = -c if c[lead] < 0 else c
    return out


def _kernel(nu: OVM, supports: np.ndarray) -> list[np.ndarray | None]:
    """For each row of the (g, n) index array ``supports``: the m
    coefficients, zero off that row, of the canonical null vector c of the
    cell masses on it (_null_direction, one batched SVD for all g), or None
    when there is none or ||sum_k c_k M_k|| exceeds 1e-10 * max(1, ||nu(X)||)."""
    directions = _null_direction(nu.cell_coords[supports].transpose(0, 2, 1))
    drift_tol = 1e-10 * max(1.0, nu.total_norm)
    out = []
    for support, c in zip(supports, directions):
        if c is None or opcore.op_norm(np.tensordot(c, nu.cell_masses[support], 1)) > drift_tol:
            out.append(None)
            continue
        coeffs = np.zeros(nu.space.n_cells)
        coeffs[support] = c
        out.append(coeffs)
    return out


def kernel_witness(nu: OVM, support) -> KernelWitness | None:
    """A canonical null vector of the cell masses on ``support``, or None.

    The indices are checked, then _kernel tests them as a stack of one:
    dependence is detected by an SVD of the coordinate matrix, singular
    values with cutoff KERNEL_RCOND relative to the largest (see
    _null_direction); the witness is additionally validated to keep
    sum c_k M_k below 1e-10 of the total mass scale.
    """
    support = tuple(sorted({opcore.as_int(k, "kernel support index") for k in support}))
    if not support:
        raise InvalidInput("kernel support must be nonempty")
    if any(not 0 <= k < nu.space.n_cells for k in support):
        raise InvalidInput("kernel support indices out of range")
    [coeffs] = _kernel(nu, np.array([support]))
    if coeffs is None:
        return None
    coeffs.setflags(write=False)
    return KernelWitness(coefficients=coeffs, support=support)


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
    """The cell fractions of ``h``, snapped onto {0, 1} within SNAP_TOL,
    with fractions on null cells (OVM.massive) dropped to 0: they change no
    value of the measure."""
    vec = _snap(nu.space.selector(h)[: nu.space.n_cells])
    frac = _fractional_indices(vec)
    vec[frac[~nu.massive[frac]]] = 0.0
    return vec


class _Basis:
    """A bounded-variable simplex basis over the columns of ``cols``, the
    engine of attain's phase 1 and purify's crossover: ``basis[i]`` is row
    i's basic column, ``value`` every column's value in [0, ``upper``].  Its
    inverse binv is kept by product-form updates, refactored when ``due``."""

    def __init__(self, cols, value, upper, basis):
        self.cols, self.value, self.upper, self.basis = cols, value, upper, basis
        self.binv, self.since_refactor = None, REFACTOR_EVERY

    @property
    def due(self) -> bool:
        return self.since_refactor >= REFACTOR_EVERY

    def refactor(self, rhs: np.ndarray):
        """Invert the basic columns afresh and solve the basic values from
        ``rhs``, the goal less the nonbasic columns' share."""
        self.binv = np.linalg.inv(self.cols[:, self.basis])
        self.value[self.basis] = self.binv @ rhs
        self.since_refactor = 0

    def push(self, q: int, sign: float, limit: float):
        """Move nonbasic column q by sign * t, and the basic values with it,
        for the longest t <= limit that keeps each basic value whose rate
        exceeds PIVOT_TOL in its bounds.  Returns t, the basis column
        B^(-1) a_q, the rates ``fall`` of the basic values and their room."""
        column = self.binv @ self.cols[:, q]
        fall = sign * column
        basis, value = self.basis, self.value
        room = np.full(len(basis), np.inf)
        down, up = fall > PIVOT_TOL, fall < -PIVOT_TOL
        room[down] = value[basis[down]] / fall[down]
        room[up] = (value[basis[up]] - self.upper[basis[up]]) / fall[up]
        room = np.maximum(room, 0.0)
        t = min(float(room.min()), limit)
        value[basis] -= t * fall
        value[q] += sign * t
        return t, column, fall, room

    def blocking(self, room: np.ndarray, fall: np.ndarray, t: float, bland: bool = False) -> int:
        """The row that blocks a push of length t: of the rows with room
        within SIMPLEX_TOL of t, the largest |fall|, or under Bland's rule
        the lowest basic column."""
        ties = np.flatnonzero(room <= t + SIMPLEX_TOL)
        return int(ties[np.argmin(self.basis[ties])] if bland
                   else ties[np.argmax(np.abs(fall[ties]))])

    def exchange(self, r: int, q: int, column: np.ndarray, fall: np.ndarray) -> int:
        """Column q, with basis column ``column``, takes row r; the column
        leaving it is set to the bound it reached (its upper one when
        fall[r] < 0) and returned."""
        out = self.basis[r]
        self.value[out] = self.upper[out] if fall[r] < 0.0 else 0.0
        self.basis[r] = q
        self.binv[r] /= column[r]
        column[r] = 0.0
        self.binv -= np.outer(column, self.binv[r])
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
    and the masses on all fractional cells have a kernel (_kernel):
    moving on would split an atom.  Otherwise they stay as they are (the
    non-injectivity hypothesis fails at this resolution).  Fractions on
    zero-mass cells are dropped to 0 up front: they change no value.
    """
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
        neighbour = value[lo - 1] if lo and support[lo - 1] == k - 1 else vec[k - 1] if k else None
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
    if not divisible[frac].all() and _kernel(nu, frac[None])[0] is not None:
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
    if target is not None:
        target = opcore.as_matrix(target)
        if target.shape[0] != nu.dim:
            raise ShapeMismatch(f"target dim {target.shape[0]} vs measure dim {nu.dim}")
    vec = _cell_fractions(nu, h)
    blocked = [int(k) for k in _fractional_indices(vec) if not nu.space.divisible[k]]
    if blocked:
        raise AtomicObstruction(
            f"fractional cells {blocked} are indivisible", cells=blocked)

    bp, cells = np.asarray(nu.space.breakpoints), np.flatnonzero(vec)
    lo, right = bp[cells], bp[cells + 1]
    hi = np.where(vec[cells] == 1.0, right, lo + vec[cells] * (right - lo))
    starts = np.flatnonzero(np.concatenate(([np.inf], hi[:-1])) != lo)
    ends = np.flatnonzero(hi != np.concatenate((lo[1:], [np.inf])))

    final = FractionalSet(vec, h.atom_mask)
    achieved = evaluate_fractional(nu, final)
    residual = 0.0 if target is None else opcore.op_norm(achieved - target)
    return AttainResult(
        intervals=tuple(zip(lo[starts].tolist(), hi[ends].tolist())),
        atom_indices=tuple(np.flatnonzero(final.atom_mask).tolist()),
        achieved=achieved,
        residual=residual,
        iterations=0,
        fractional_count=int(_fractional_indices(vec).size),
    )


def convex_combine(nu: OVM, e1: MeasurableSet, e2: MeasurableSet, t: float) -> AttainResult:
    """Realize t * nu(E1) + (1 - t) * nu(E2) as nu(E) for an interval set E.

    Atom selections cannot be mixed fractionally: for t strictly inside
    (0, 1) the sets must agree on every massive atom, and nu must be
    positive.  E1 & E2 <= E <= E1 | E2; ``iterations`` counts phase-1 steps
    (step 2 above), or purify's when a differing cell is indivisible.
    """
    if not 0.0 <= opcore.as_real(t, "mixing weight") <= 1.0:
        raise InvalidInput(f"mixing weight {t!r} outside [0, 1]")
    s1, s2 = nu.space.selector(e1), nu.space.selector(e2)
    if t in (0.0, 1.0):
        e = e1 if t else e2
        return realize_intervals(nu, FractionalSet.from_measurable(e), target=evaluate(nu, e))

    m = nu.space.n_cells
    differ = (s1 != s2) & nu.massive
    differing = [int(k) for k in np.flatnonzero(differ[m:])]
    if differing:
        raise AtomicObstruction(
            f"atom selections differ on massive sites {differing}", cells=differing)
    h0 = FractionalSet(t * s1[:m] + (1.0 - t) * s2[:m], (s1 & s2)[m:])
    target = evaluate_fractional(nu, h0)
    moving = np.flatnonzero(differ[:m])
    if not (nu.positive and np.asarray(nu.space.divisible)[moving].all()):
        pure = purify(nu, h0)  # raises NotPositive when nu is not positive
        return replace(realize_intervals(nu, pure.h_final, target=target),
                       iterations=pure.iterations)
    coords = nu.cell_coords[moving].T / (nu.total_norm or 1.0)
    h, _, objective, steps = _phase_one(coords, coords @ h0.cell_fractions[moving])
    if objective > SIMPLEX_TOL:
        raise NumericalFailure(f"phase-1 optimum {objective:.3e} on a mix in the range")
    vec = (s1 & s2)[:m].astype(float)
    vec[moving] = _snap(h)
    h_set = FractionalSet(vec, h0.atom_mask)
    return replace(realize_intervals(nu, h_set, target=target), iterations=steps)


def _entering(gain: np.ndarray, bland: bool) -> int | None:
    """Dantzig's largest gain, lowest index on ties, or under Bland's rule
    the lowest index with any gain; None at a phase-1 optimum."""
    q = int(np.argmax(gain > SIMPLEX_TOL) if bland else np.argmax(gain))
    return q if gain[q] > SIMPLEX_TOL else None


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
    prefix = np.hstack([np.zeros((n_rows, 1)), np.cumsum(coords, axis=1)])
    h = (np.arange(m) < np.argmin(np.linalg.norm(prefix - goal[:, None], axis=0))).astype(float)
    sign = np.where(goal - coords @ h >= 0.0, 1.0, -1.0)
    cols = np.hstack([coords, np.diag(sign)])
    value = np.concatenate([h, np.zeros(n_rows)])
    upper = np.concatenate([np.ones(m), np.full(n_rows, np.inf)])
    move = np.concatenate([1.0 - 2.0 * h, np.zeros(n_rows)])  # +1 at 0, -1 at 1, else 0
    basis = _Basis(cols, value, upper, np.arange(m, m + n_rows))
    steps = degenerate = 0
    while True:
        if basis.due:
            basis.refactor(goal - cols[:, move < 0].sum(axis=1))
        cost = (basis.basis >= m).astype(float)
        objective = float(cost @ value[basis.basis])
        if objective <= SIMPLEX_TOL:
            break
        bland = degenerate >= BLAND_AFTER
        q = _entering((cost @ basis.binv @ cols) * move, bland)
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
    return value[:m], cost @ basis.binv, objective, steps


def attain(nu: OVM, target) -> AttainResult:
    """Realize a target operator in the range of a nonatomic measure.

    Phase 1 of the bounded-variable simplex finds a vertex h of the fiber
    {h in [0,1]^m : sum_k h_k M_k = target} in Hermitian coordinates; it
    has at most d^2 fractional cells, realized as leftmost sub-intervals.
    ``iterations`` counts the simplex steps (pivots plus bound flips).
    Tolerances are relative to ||nu(X)||.  A phase-1 optimum with positive
    artificial sum raises TargetNotInHull with a separating witness W:
    tr(W A) exceeds sum_k max(0, tr(W M_k)), the largest tr(W B) over the
    range, by ``gap`` > 0.
    """
    if not nu.positive:
        raise NotPositive("attainment is defined for positive OVMs")
    if not is_nonatomic(nu):
        raise AtomicObstruction("attainment needs a nonatomic measure "
                                "(divisible cells, no massive atoms)")
    a_mat = opcore.hermitian(target)
    if a_mat.shape[0] != nu.dim:
        raise ShapeMismatch(f"target dim {a_mat.shape[0]} vs measure dim {nu.dim}")
    goal = opcore.herm_coords(a_mat)
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
    h_set = FractionalSet(_snap(h), np.zeros(nu.space.n_atoms, bool))
    return replace(realize_intervals(nu, h_set, target=a_mat), iterations=steps)


def check_separation(nu: OVM, target, witness) -> float:
    """TargetNotInHull's ``gap``: tr(W A) - sum_k max(0, tr(W M_k)) over cells
    and atoms, for (d, d) A and Hermitian W.  The sum is the largest tr(W B)
    over the range, so a positive gap certifies that no set attains A."""
    a_mat = opcore.hermitian(target)
    w = opcore.herm_coords(opcore.as_matrix(witness))
    if a_mat.shape[0] != nu.dim or w.size != nu.dim * nu.dim:
        raise ShapeMismatch(f"target and witness must be {nu.dim} x {nu.dim}")
    return float(w @ opcore.herm_coords(a_mat) - np.maximum(nu.coords @ w, 0.0).sum())


def joint_attain(ovms, targets) -> AttainResult:
    """One set E with nu_i(E) = A_i for every component, via the direct sum."""
    ovms = tuple(ovms)
    targets = tuple(targets)
    if len(ovms) != len(targets):
        raise InvalidInput("need one target per measure")
    if not ovms:
        raise InvalidInput("need at least one measure")
    joint = direct_sum(*ovms) if len(ovms) > 1 else ovms[0]
    dims = [o.dim for o in ovms]
    block = np.zeros((joint.dim, joint.dim), dtype=np.complex128)
    lo = 0
    for d, t in zip(dims, targets):
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
    m, count = nu.space.n_cells, len(nu.masses)
    if count > 22:
        raise SizeLimit(f"{count} items exceed the enumeration limit of 22")
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
    points tests nothing), then a strictly interior weight, and runs
    convex_combine.  A failure is an AtomicObstruction or a residual
    above 1e-6, recorded with its inputs.  Trials run and aggregate in
    index order, so reports are reproducible bit for bit.
    """
    from .ovm import set_to_json

    trials = opcore.as_int(trials, "trials", low=0)
    seed = opcore.as_int(seed, "seed", low=0)
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
        for _ in range(1000):
            if opcore.op_norm(evaluate(nu, e1) - evaluate(nu, e2)) > distinct_tol:
                break
            e1, e2 = draw_set(), draw_set()
        t = float(rng.random())
        try:
            result = convex_combine(nu, e1, e2, t)
        except AtomicObstruction as exc:
            failures.append(TrialFailure(trial, set_to_json(e1), set_to_json(e2),
                                         t, f"AtomicObstruction: {exc}"))
            continue
        max_residual = max(max_residual, result.residual)
        max_intervals = max(max_intervals, result.interval_count)
        if result.residual > 1e-6:
            failures.append(TrialFailure(trial, set_to_json(e1), set_to_json(e2),
                                         t, f"residual {result.residual:.3e}"))
    return CertificateReport(
        trials=trials,
        seed=seed,
        max_residual=max_residual,
        max_interval_count=max_intervals,
        failures=tuple(failures),
    )


def attain_to_json(result: AttainResult) -> dict:
    return {
        "intervals": [[lo, hi] for lo, hi in result.intervals],
        "atoms": list(result.atom_indices),
        "achieved": opcore.matrix_to_json(result.achieved),
        "residual": result.residual,
        "interval_count": result.interval_count,
        "iterations": result.iterations,
    }
