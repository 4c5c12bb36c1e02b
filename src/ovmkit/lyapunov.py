"""Constructive Lyapunov engine for nonatomic operator-valued measures.

Any operator in the fractional hull {sum_k h_k M_k : 0 <= h_k <= 1} of a
divisible grid measure can be attained as nu(E) for an explicit interval
set E.  The route is the classical extreme-point argument for ranges of
nonatomic measures, made algorithmic:

1.  attain: phase 1 of Dantzig's bounded-variable revised simplex on the
    d^2 coordinate rows sum_k h_k M_k = A, 0 <= h_k <= 1, one artificial
    per row.  Its basic solution is a vertex of the fiber, with at most
    d^2 fractional cells, and goes straight to step 3.  At a phase-1
    optimum with positive artificial sum the simplex multipliers give a
    witness W separating A from the range (see TargetNotInHull).
2.  Purify (convex_combine's mixed set): while the cell masses on the
    fractional support are linearly dependent, move h along a kernel
    direction until a coordinate hits {0, 1}.  The fiber value is
    conserved; at most d^2 fractional cells survive (the coordinate matrix
    has rank at most d^2).  The direction is the null-space projection of
    a basis vector: with n rows R spanning the row space of the support's
    coordinate matrix and G = R^T R, it is e_pick - R G^(-1) r_pick,
    picked by the projector diagonal 1 - r_k^T G^(-1) r_k.  R is the
    coordinate rows themselves, with G^(-1) from one D x D
    eigendecomposition (D = d^2), or for rank-deficient blocks (such as
    the zero coordinate rows of a direct sum) and n <= D an orthonormal
    basis from an SVD, with G = I.  One loop takes every pivot from one
    such factorization and downdates G^(-1) and the diagonal by
    Sherman-Morrison as cells pin, O(D n) per pivot; it refactors every
    REFACTOR_EVERY pivots, when the downdates no longer certify the
    conditioning, when no more live cells than the rank are left and when
    a direction from a stale factor fails the drift test, and ends when a
    fresh factor finds no kernel.  A move is accepted when sum c_k M_k
    stays below the drift tolerance: first through its Frobenius norm
    (the length of its coordinates), an upper bound, and only when that
    fails through the operator norm itself.
3.  Realize the final fractions as leftmost sub-intervals of their cells,
    exact under the constant-density convention.

Every step reads the cell masses in Hermitian coordinates and scales its
tolerances by ||nu(X)||; both are computed once per measure and cached on
it (OVM.cell_coords, OVM.total_norm).

Atoms obstruct step 2: a kernel direction that must move an indivisible
cell raises AtomicObstruction instead of silently splitting an atom.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    MASS_TOL,
    OVM,
    FractionalSet,
    MeasurableSet,
    _check_masks,
    direct_sum,
    evaluate,
    evaluate_fractional,
    is_nonatomic,
)

# Fractions within this of a bound snap onto it.
SNAP_TOL = 1e-12
# Relative singular-value cutoff for kernel detection.
KERNEL_RCOND = 1e-10
# Relative eigenvalue floor of the Gram matrix above which the D x D
# projector replaces the SVD; sqrt(GRAM_RCOND) >> KERNEL_RCOND, so full
# row rank is certain under the singular-value cut.
GRAM_RCOND = 1e-6
# Simplex tolerance in units of ||nu(X)||: the artificial sum that counts
# as attained, the least entering gain and the ratio-test tie width.
SIMPLEX_TOL = 1e-12
# Smallest basis-column entry a ratio test divides by.
PIVOT_TOL = 1e-9
# Pivots between refactorizations of a D x D inverse (D = d^2) kept up to
# date by rank-one updates: attain's simplex basis inverse and the Gram
# inverse purify downdates as cells pin.
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
    fractional_indices: tuple[int, ...]
    iterations: int
    target_residual: float


@dataclass(frozen=True, eq=False)
class AttainResult:
    """Interval realization of a target operator.

    ``fractional_count`` is how many cells were strictly fractional in the
    realized set, i.e. how many cells had to be split.
    """

    intervals: tuple[tuple[float, float], ...]
    atom_indices: tuple[int, ...]
    achieved: np.ndarray
    residual: float
    interval_count: int
    iterations: int
    fractional_count: int = 0


def coordinate_matrix(nu: OVM, support) -> np.ndarray:
    """Columns herm_coords(M_k) for k in support; shape (d^2, |support|)."""
    return nu.cell_coords[list(support)].T


def _factor(cols: np.ndarray):
    """The factors every kernel direction of a (D, n) real matrix is built
    from, or None when its columns are independent: n rows R spanning its
    row space, the inverse of their Gram matrix R^T R, the null-projector
    diagonal 1 - r_k^T (R^T R)^(-1) r_k and a headroom >= 1.

    When n > D and G = cols cols^T is well conditioned,
    lam_min >= GRAM_RCOND * lam_max > 0, R = cols^T and the inverse comes
    from the D x D eigendecomposition of G, D^2 n flops.  Otherwise
    (rank-deficient blocks such as the zero coordinate rows of a direct
    sum, n <= D) R is the orthonormal basis V_r of an SVD with the
    KERNEL_RCOND cut and the inverse is I.  Deleting row j scales the
    least eigenvalue of R^T R by at least 1 - l_j; the headroom,
    lam_min / (GRAM_RCOND * lam_max), is how far such factors stay
    certified as cells pin (see purify).
    """
    big_d, n = cols.shape
    headroom = 0.0
    if n > big_d:
        lam, q = np.linalg.eigh(cols @ cols.T)
        if lam[-1] > 0.0:
            headroom = lam[0] / (GRAM_RCOND * lam[-1])
    if headroom >= 1.0:
        rows, ginv = cols.T, (q / lam) @ q.T
    else:
        _, sing, vt = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(sing > KERNEL_RCOND * sing.max(initial=0.0)))
        if rank >= n:
            return None
        rows, ginv, headroom = vt[:rank].T, np.eye(rank), 1.0 / GRAM_RCOND
    return rows, ginv, 1.0 - np.einsum("ij,ij->i", rows @ ginv, rows), headroom


def _direction(rows: np.ndarray, ginv: np.ndarray, diag: np.ndarray) -> np.ndarray | None:
    """The canonical kernel direction from _factor's factors, or None when
    it is zero: the null-space projection e_pick - R G^(-1) r_pick of the
    lowest standard basis vector whose projector diagonal is at least half
    the largest, re-projected once to strip what round-off left in the row
    space, then scaled to unit peak with its first nonzero entry positive.
    The projector does not depend on the basis R, so neither does the
    output, nor on how LAPACK orders a degenerate null basis."""
    pick = int(np.argmax(diag >= 0.5 * diag.max()))
    c = -(rows @ (ginv @ rows[pick]))
    c[pick] += 1.0
    c -= rows @ (ginv @ (rows.T @ c))
    peak = np.abs(c).max()
    if peak <= 0.0:
        return None
    c /= peak
    lead = int(np.argmax(np.abs(c) > 1e-12))
    return -c if c[lead] < 0 else c


def _null_direction(cols: np.ndarray) -> np.ndarray | None:
    """Canonical unit-peak null vector of a (D, n) real matrix, or None:
    the first direction of a fresh factorization."""
    factors = _factor(cols)
    return None if factors is None else _direction(*factors[:3])


def _within_drift(nu: OVM, support: np.ndarray, cols: np.ndarray, c: np.ndarray) -> bool:
    """Does sum_k c_k M_k over ``support`` stay within the drift tolerance
    1e-10 * max(1, ||nu(X)||) in operator norm?

    herm_coords is an isometry for the Frobenius norm, so ||cols c||_2 is
    the Frobenius norm of the sum, an upper bound on its operator norm;
    the eigenvalue test runs only when that bound exceeds the tolerance.
    """
    tol = 1e-10 * max(1.0, nu.total_norm)
    frobenius = cols @ c
    return (np.sqrt(frobenius @ frobenius) <= tol
            or opcore.op_norm(np.tensordot(c, nu.cell_masses[support], axes=1)) <= tol)


def _kernel(nu: OVM, support: np.ndarray) -> np.ndarray | None:
    """m coefficients, zero off the index array ``support``, of the
    canonical null vector c of the cell masses on it (see _null_direction),
    or None when there is none or it fails _within_drift."""
    cols = nu.cell_coords[support].T
    c = _null_direction(cols)
    if c is None or not _within_drift(nu, support, cols, c):
        return None
    coeffs = np.zeros(nu.space.n_cells)
    coeffs[support] = c
    return coeffs


def kernel_witness(nu: OVM, support) -> KernelWitness | None:
    """A canonical null vector of the cell masses on ``support``, or None.

    Dependence is detected through the coordinate matrix (full row rank
    through its Gram matrix, otherwise singular values with cutoff
    KERNEL_RCOND relative to the largest; see _factor); the witness is
    additionally validated to keep sum c_k M_k below 1e-10 of the total
    mass scale.
    """
    support = tuple(sorted({opcore.as_int(k, "kernel support index") for k in support}))
    if not support:
        raise InvalidInput("kernel support must be nonempty")
    if any(not 0 <= k < nu.space.n_cells for k in support):
        raise InvalidInput("kernel support indices out of range")
    coeffs = _kernel(nu, np.array(support))
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
    with fractions on zero-mass cells dropped to 0: they change no value
    of the measure."""
    if len(h.cell_fractions) != nu.space.n_cells or len(h.atom_mask) != nu.space.n_atoms:
        raise ShapeMismatch("fractional set does not match the sample space")
    vec = _snap(h.fractions())
    frac = _fractional_indices(vec)
    vec[frac[nu.cell_norms()[frac] <= MASS_TOL]] = 0.0
    return vec


def _ratio_step(vec: np.ndarray, c: np.ndarray) -> float:
    """The step t along c that first pins a coordinate of vec + t c to
    {0, 1}: the forward one when positive, else minus the backward one;
    inf when c moves nothing.  Entries with |c_k| <= 1e-14 do not move."""
    moving = np.abs(c) > 1e-14
    cm, xm = c[moving], vec[moving]
    up = cm > 0.0
    speed = np.abs(cm)
    t_plus = np.minimum.reduce(np.where(up, 1.0 - xm, xm) / speed, initial=np.inf)
    t_minus = np.minimum.reduce(np.where(up, xm, 1.0 - xm) / speed, initial=np.inf)
    return t_plus if t_plus > 0.0 else -t_minus


def purify(nu: OVM, h: FractionalSet) -> PurifyResult:
    """Drive a fractional set to a near-extreme point of its fiber.

    Each pivot moves the divisible fractional cells along the canonical
    kernel direction of their masses (see _direction) until a cell pins to
    {0, 1}, at most m + 1 pivots in all.  One loop takes every pivot from
    one factorization of that support (see _factor: its Gram inverse, or
    an orthonormal row basis for rank-deficient and narrow supports); a
    cell j that pins leaves by Sherman-Morrison, u = G^(-1) r_j:
    G^(-1) += u u^T / (1 - l_j) and 1 - l_k -= (r_k^T u)^2 / (1 - l_j),
    O(D n), and its row is zeroed, so it drops out of every product.
    Pinning never lowers the rank: a cell whose column leaves the span of
    the others has c_j = 0 and never moves.  The support is refactored
    every REFACTOR_EVERY pivots, as soon as the headroom times
    prod(1 - l_j) falls below 1, when no more live cells than the rank are
    left and when a direction from a stale factor fails the drift test; a
    fresh factor without a kernel ends the loop.

    When no kernel move exists on the divisible fractional cells but one
    exists once indivisible fractional cells are included, the
    purification is atomically stuck and AtomicObstruction is raised.
    With no kernel at all the loop ends gracefully, fractional cells and
    all (the non-injectivity hypothesis simply fails at this resolution).

    Fractional values on zero-mass cells are dropped to 0 up front: they
    change no value of the measure.
    """
    if not nu.positive:
        raise NotPositive("purification is defined for positive OVMs")
    vec = _cell_fractions(nu, h)
    start_value = evaluate_fractional(nu, FractionalSet(tuple(vec), h.atom_mask))

    divisible = np.asarray(nu.space.divisible, dtype=bool)
    limit = nu.space.n_cells + 1
    iterations, since_refactor = 0, REFACTOR_EVERY
    support, x = np.zeros(0, dtype=int), np.zeros(0)
    while True:
        if since_refactor >= REFACTOR_EVERY:
            vec[support] = x
            frac = _fractional_indices(vec)
            support = frac[divisible[frac]]
            x, cols = vec[support], nu.cell_coords[support].T
            factors = _factor(cols)
            if factors is None:
                break
            rows, ginv, diag, headroom = factors
            live, since_refactor = np.ones(support.size, dtype=bool), 0
        c = _direction(rows, ginv, diag)
        if c is None or not _within_drift(nu, support, cols, c):
            if since_refactor == 0:
                break
            since_refactor = REFACTOR_EVERY
            continue
        x = _snap(x + _ratio_step(x, c) * c)
        iterations += 1
        if iterations >= limit:
            raise NumericalFailure("purification failed to pin a coordinate per step")
        since_refactor += 1
        keep = (x > 0.0) & (x < 1.0)  # pinned and dropped cells sit at 0 or 1
        for j in np.flatnonzero(live ^ keep):
            slack = diag[j]
            headroom *= slack
            if not headroom >= 1.0:
                since_refactor = REFACTOR_EVERY
                break
            u = ginv @ rows[j]
            ginv += (u / slack)[:, None] * u
            diag -= (rows @ u) ** 2 / slack
            rows[j], diag[j] = 0.0, 0.0
        live = keep
        if np.count_nonzero(live) <= rows.shape[1]:
            since_refactor = REFACTOR_EVERY
    vec[support] = x

    frac = _fractional_indices(vec)
    if not divisible[frac].all() and _kernel(nu, frac) is not None:
        blocked = tuple(int(k) for k in frac if not divisible[k])
        raise AtomicObstruction(
            f"kernel move requires splitting indivisible cells {blocked}", cells=blocked)
    final = FractionalSet(tuple(vec), h.atom_mask)
    residual = opcore.op_norm(evaluate_fractional(nu, final) - start_value)
    return PurifyResult(
        h_final=final,
        fractional_indices=tuple(int(k) for k in _fractional_indices(vec)),
        iterations=iterations,
        target_residual=residual,
    )


def realize_intervals(nu: OVM, h: FractionalSet, target=None) -> AttainResult:
    """Canonical Borel realization of a fractional set.

    Whole cells stay whole; a fraction t becomes the leftmost sub-interval
    of length t * w_k, legal only on divisible cells.  Adjacent intervals
    merge.  Under constant densities the realized set carries exactly
    evaluate_fractional(nu, h).
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

    intervals: list[list[float]] = []
    bp = nu.space.breakpoints
    for k, frac_k in enumerate(vec):
        if frac_k == 0.0:
            continue
        lo = bp[k]
        hi = bp[k + 1] if frac_k == 1.0 else lo + frac_k * (bp[k + 1] - lo)
        if intervals and intervals[-1][1] == lo:
            intervals[-1][1] = hi
        else:
            intervals.append([lo, hi])

    final = FractionalSet(tuple(vec), h.atom_mask)
    achieved = evaluate_fractional(nu, final)
    residual = 0.0 if target is None else opcore.op_norm(achieved - target)
    return AttainResult(
        intervals=tuple((lo, hi) for lo, hi in intervals),
        atom_indices=tuple(k for k, x in enumerate(h.atom_mask) if x),
        achieved=achieved,
        residual=residual,
        interval_count=len(intervals),
        iterations=0,
        fractional_count=int(_fractional_indices(vec).size),
    )


def convex_combine(nu: OVM, e1: MeasurableSet, e2: MeasurableSet, t: float) -> AttainResult:
    """Realize t * nu(E1) + (1 - t) * nu(E2) as nu(E) for an interval set E.

    Atom selections cannot be mixed fractionally: for t strictly inside
    (0, 1) the two sets must agree on every atom of nonzero mass.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInput(f"mixing weight {t!r} outside [0, 1]")
    for e in (e1, e2):
        _check_masks(nu.space, e)
    if t == 0.0:
        return realize_intervals(nu, FractionalSet.from_measurable(e2), target=evaluate(nu, e2))
    if t == 1.0:
        return realize_intervals(nu, FractionalSet.from_measurable(e1), target=evaluate(nu, e1))

    atom_norms = nu.atom_norms()
    differing = [k for k, (x, y) in enumerate(zip(e1.atom_mask, e2.atom_mask))
                 if x != y and atom_norms[k] > MASS_TOL]
    if differing:
        raise AtomicObstruction(
            f"atom selections differ on massive sites {differing}", cells=differing)
    atom_mask = tuple(x and y for x, y in zip(e1.atom_mask, e2.atom_mask))
    h0 = FractionalSet(
        tuple(t * float(x) + (1.0 - t) * float(y)
              for x, y in zip(e1.cell_mask, e2.cell_mask)),
        atom_mask,
    )
    target = evaluate_fractional(nu, h0)
    pure = purify(nu, h0)
    return replace(realize_intervals(nu, pure.h_final, target=target),
                   iterations=pure.iterations)


def _entering(gain: np.ndarray, bland: bool) -> int | None:
    """Dantzig's largest gain, lowest index on ties, or under Bland's rule
    the lowest index with any gain; None at a phase-1 optimum."""
    q = int(np.argmax(gain > SIMPLEX_TOL) if bland else np.argmax(gain))
    return q if gain[q] > SIMPLEX_TOL else None


def _phase_one(coords: np.ndarray, goal: np.ndarray):
    """Phase 1 of the bounded-variable revised simplex: minimize the sum of
    artificials a_i >= 0, one per row, subject to coords h + s a = goal
    and 0 <= h <= 1 (s_i = +-1 makes the starting a_i nonnegative).

    Cells start at the bound the goal favours over the centre nu(X)/2,
    which is already the vertex for nu(X).  A bound flip moves a nonbasic
    cell across its box and keeps the basis; a departing artificial never
    re-enters.  Returns (h, duals, objective, steps): a basic solution, the
    simplex multipliers, sum a, and the pivots plus bound flips taken.
    """
    n_rows, m = coords.shape
    h = (((goal - coords.sum(axis=1) / 2) @ coords) > 0.0).astype(float)
    sign = np.where(goal - coords @ h >= 0.0, 1.0, -1.0)
    cols = np.hstack([coords, np.diag(sign)])
    value = np.concatenate([h, np.zeros(n_rows)])
    upper = np.concatenate([np.ones(m), np.full(n_rows, np.inf)])
    move = np.concatenate([1.0 - 2.0 * h, np.zeros(n_rows)])  # +1 at 0, -1 at 1, else 0
    basis = np.arange(m, m + n_rows)
    steps = degenerate = 0
    since_refactor = REFACTOR_EVERY
    while True:
        if since_refactor >= REFACTOR_EVERY:
            binv = np.linalg.inv(cols[:, basis])
            value[basis] = binv @ (goal - cols[:, move < 0].sum(axis=1))
            since_refactor = 0
        cost = (basis >= m).astype(float)
        objective = float(cost @ value[basis])
        if objective <= SIMPLEX_TOL:
            break
        bland = degenerate >= BLAND_AFTER
        q = _entering((cost @ binv @ cols) * move, bland)
        if q is None:
            if since_refactor == 0:
                break
            since_refactor = REFACTOR_EVERY  # confirm the optimum on a fresh factor
            continue
        steps += 1
        if steps > 100 * (m + n_rows):
            raise NumericalFailure(f"simplex took more than {100 * (m + n_rows)} steps")
        column = binv @ cols[:, q]
        fall = move[q] * column  # basic values fall by t * fall as cell q moves by t
        room = np.full(n_rows, np.inf)
        down, up = fall > PIVOT_TOL, fall < -PIVOT_TOL
        room[down] = value[basis[down]] / fall[down]
        room[up] = (value[basis[up]] - upper[basis[up]]) / fall[up]
        room = np.maximum(room, 0.0)
        t = min(float(room.min()), 1.0)
        value[basis] -= t * fall
        value[q] += move[q] * t
        if t == 1.0:  # bound flip
            move[q] = -move[q]
            degenerate = 0
            continue
        ties = np.flatnonzero(room <= t + SIMPLEX_TOL)
        r = int(ties[np.argmin(basis[ties])] if bland else ties[np.argmax(np.abs(fall[ties]))])
        out = basis[r]
        value[out] = 1.0 if fall[r] < 0.0 else 0.0
        move[out] = -1.0 if fall[r] < 0.0 else float(out < m)
        basis[r], move[q] = q, 0.0
        binv[r] /= column[r]
        column[r] = 0.0
        binv -= np.outer(column, binv[r])
        since_refactor += 1
        degenerate = degenerate + 1 if t <= SIMPLEX_TOL else 0
    return value[:m], cost @ binv, objective, steps


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
    h_set = FractionalSet(tuple(_snap(h)), (False,) * nu.space.n_atoms)
    return replace(realize_intervals(nu, h_set, target=a_mat), iterations=steps)


def check_separation(nu: OVM, target, witness) -> float:
    """TargetNotInHull's ``gap``: tr(W A) - sum_k max(0, tr(W M_k)) over cells
    and atoms, for (d, d) A and Hermitian W.  The sum is the largest tr(W B)
    over the range, so a positive gap certifies that no set attains A."""
    a_mat = opcore.hermitian(target)
    w = opcore.herm_coords(opcore.as_matrix(witness))
    if a_mat.shape[0] != nu.dim or w.size != nu.dim * nu.dim:
        raise ShapeMismatch(f"target and witness must be {nu.dim} x {nu.dim}")
    masses = np.concatenate([nu.cell_coords, opcore.herm_coords(nu.atom_masses)])
    return float(w @ opcore.herm_coords(a_mat) - np.maximum(masses @ w, 0.0).sum())


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
        t_mat = opcore.as_matrix(np.atleast_2d(t))
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
    m = nu.space.n_cells
    n = nu.space.n_atoms
    count = m + n
    if count > 22:
        raise SizeLimit(f"{count} items exceed the enumeration limit of 22")
    items = list(nu.cell_masses) + list(nu.atom_masses)
    values = np.zeros((1, nu.dim, nu.dim), dtype=np.complex128)
    for mass in items:
        values = np.concatenate([values, values + mass])
    out = []
    for idx in range(1 << count):
        cells = tuple(bool(idx >> k & 1) for k in range(m))
        atom_bits = tuple(bool(idx >> (m + k) & 1) for k in range(n))
        out.append((MeasurableSet(cells, atom_bits), values[idx]))
    return out


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
        return MeasurableSet(
            tuple(bool(b) for b in rng.integers(0, 2, m)),
            tuple(bool(b) for b in rng.integers(0, 2, n)),
        )

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
