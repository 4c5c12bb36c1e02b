"""Constructive Lyapunov engine for nonatomic operator-valued measures.

Any operator in the fractional hull {sum_k h_k M_k : 0 <= h_k <= 1} of a
divisible grid measure can be attained as nu(E) for an explicit interval
set E.  The route is the classical extreme-point argument for ranges of
nonatomic measures, made algorithmic:

1.  Find a feasible fractional set h (alternating projections between the
    affine fiber and the unit box, Dykstra-corrected).
2.  Purify: while the cell masses on the fractional support are linearly
    dependent, move h along a kernel direction until a coordinate hits
    {0, 1}.  The fiber value is conserved; at most d^2 fractional cells
    survive (the coordinate matrix has rank at most d^2).  The direction
    is the null-space projection of a basis vector.  When the D x n
    coordinate block (D = d^2) has n > D and a well-conditioned Gram
    matrix G = cols cols^T, the projector is I - cols^T G^(-1) cols,
    built from one D x D eigendecomposition; rank-deficient blocks (zero
    coordinate rows of a direct sum, say) and blocks with n <= D take an
    SVD.  A move is accepted when sum c_k M_k stays below the drift
    tolerance: first through its Frobenius norm ||cols c||, an upper
    bound, and only when that fails through the operator norm itself.
3.  Realize the final fractions as leftmost sub-intervals of their cells,
    exact under the constant-density convention.

Atoms obstruct step 2: a kernel direction that must move an indivisible
cell raises AtomicObstruction instead of silently splitting an atom.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    SampleSpace,
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

    ``fractional_count`` is how many cells were still strictly fractional
    after purification, i.e. how many cells had to be split.
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
    support = list(support)
    if not support:
        return np.zeros((nu.dim * nu.dim, 0))
    return opcore.herm_coords(nu.cell_masses[support]).T


def _row_basis(cols: np.ndarray) -> np.ndarray | None:
    """Orthonormal rows spanning the row space of a (D, n) real matrix, or
    None when its columns are independent.

    With n > D and a well-conditioned Gram matrix G = cols cols^T
    (lambda_min >= GRAM_RCOND * lambda_max), cols has full row rank under
    KERNEL_RCOND, and Lambda^(-1/2) Q^T cols from G = Q Lambda Q^T is such
    a basis: D^2 n flops instead of an SVD of the whole block.  Rank-
    deficient blocks and n <= D take the SVD with the KERNEL_RCOND cut.
    """
    d_rows, n = cols.shape
    if n > d_rows:
        lam, q = np.linalg.eigh(cols @ cols.T)
        if lam[0] >= GRAM_RCOND * lam[-1] > 0.0:
            return (q.T @ cols) / np.sqrt(lam)[:, None]
    _, sing, vt = np.linalg.svd(cols, full_matrices=False)
    smax = sing[0] if sing.size else 0.0
    rank = int(np.sum(sing > KERNEL_RCOND * smax)) if smax > 0 else 0
    if rank >= n:
        return None
    return vt[:rank]


def _null_direction(cols: np.ndarray) -> np.ndarray | None:
    """Canonical unit-peak null vector of a (D, n) real matrix, or None.

    The vector is the null-space projection of the lowest standard basis
    vector whose projection is not degenerate; the projector is basis
    independent, so the output does not depend on how LAPACK orders a
    degenerate null basis.  Sign is fixed so the first nonzero entry is
    positive.

    The projector is I - Vr^T Vr for an orthonormal row-space basis Vr
    (see _row_basis).  On the Gram branch Vr^T Vr = cols^T G^(-1) cols
    exactly, so the leverage diagonal is 1 - colsum(cols * G^(-1) cols)
    and the direction is e_pick - cols^T G^(-1) cols[:, pick], followed
    by one re-projection that strips what round-off left in the row space.
    """
    n = cols.shape[1]
    if n == 0:
        return None
    vr = _row_basis(cols)
    if vr is None:
        return None
    rank = vr.shape[0]
    # diag of the null projector I - Vr^T Vr without forming it.
    diag = np.clip(1.0 - (vr * vr).sum(axis=0), 0.0, None)
    pick = int(np.argmax(diag >= 0.5 * diag.max()))
    c = -(vr.T @ vr[:, pick]) if rank else np.zeros(n)
    c[pick] += 1.0
    if rank:
        c -= vr.T @ (vr @ c)  # strip residual row-space components
    peak = np.abs(c).max()
    if peak <= 0.0:
        return None
    c = c / peak
    lead = int(np.argmax(np.abs(c) > 1e-12))
    if c[lead] < 0:
        c = -c
    return c


def _drift_within(nu: OVM, support, cols: np.ndarray, c: np.ndarray, tol: float) -> bool:
    """Whether ||sum_k c_k M_k|| <= tol in operator norm, k over support.

    herm_coords is an isometry for the Frobenius norm, so ||cols c||_2 is
    the Frobenius norm of the sum, an upper bound on its operator norm;
    the eigenvalue test runs only when that bound exceeds tol.
    """
    if np.linalg.norm(cols @ c) <= tol:
        return True
    return opcore.op_norm(np.tensordot(c, nu.cell_masses[support], axes=1)) <= tol


def kernel_witness(nu: OVM, support) -> KernelWitness | None:
    """A canonical null vector of the cell masses on ``support``, or None.

    Dependence is detected through the coordinate matrix (full row rank
    through its Gram matrix, otherwise singular values with cutoff
    KERNEL_RCOND relative to the largest; see _row_basis); the witness is
    additionally validated to keep sum c_k M_k below 1e-10 of the total
    mass scale.
    """
    support = tuple(sorted(set(int(k) for k in support)))
    if not support:
        raise InvalidInput("kernel support must be nonempty")
    if any(not 0 <= k < nu.space.n_cells for k in support):
        raise InvalidInput("kernel support indices out of range")
    cols = coordinate_matrix(nu, support)
    c = _null_direction(cols)
    if c is None:
        return None
    drift_tol = 1e-10 * max(1.0, opcore.op_norm(nu.total_mass()))
    if not _drift_within(nu, list(support), cols, c, drift_tol):
        return None
    coeffs = np.zeros(nu.space.n_cells)
    coeffs[list(support)] = c
    coeffs.setflags(write=False)
    return KernelWitness(coefficients=coeffs, support=support)


def _snap(h: np.ndarray) -> np.ndarray:
    h = np.clip(h, 0.0, 1.0)
    h[h <= SNAP_TOL] = 0.0
    h[h >= 1.0 - SNAP_TOL] = 1.0
    return h


def _fractional_indices(h: np.ndarray) -> np.ndarray:
    return np.flatnonzero((h > 0.0) & (h < 1.0))


def purify(nu: OVM, h: FractionalSet) -> PurifyResult:
    """Drive a fractional set to a near-extreme point of its fiber.

    Kernel moves are searched on the divisible fractional cells first;
    when none exists there but one exists once indivisible fractional
    cells are included, the purification is atomically stuck and
    AtomicObstruction is raised.  With no kernel at all the loop ends
    gracefully, fractional cells and all (the non-injectivity hypothesis
    simply fails at this resolution).

    Fractional values on zero-mass cells are dropped to 0 up front: they
    change no value of the measure.
    """
    if not nu.positive:
        raise NotPositive("purification is defined for positive OVMs")
    if len(h.cell_fractions) != nu.space.n_cells or len(h.atom_mask) != nu.space.n_atoms:
        raise ShapeMismatch("fractional set does not match the sample space")
    vec = _snap(h.fractions().copy())
    live = nu.cell_norms() > MASS_TOL
    frac = _fractional_indices(vec)
    vec[frac[~live[frac]]] = 0.0
    start_value = evaluate_fractional(nu, FractionalSet(tuple(vec), h.atom_mask))

    divisible = np.asarray(nu.space.divisible, dtype=bool)
    all_coords = opcore.herm_coords(nu.cell_masses).T
    drift_tol = 1e-10 * max(1.0, opcore.op_norm(nu.total_mass()))

    def witness_on(indices):
        if indices.size == 0:
            return None
        cols = all_coords[:, indices]
        c_sub = _null_direction(cols)
        if c_sub is None:
            return None
        if not _drift_within(nu, indices, cols, c_sub, drift_tol):
            return None
        c = np.zeros(nu.space.n_cells)
        c[indices] = c_sub
        return c

    iterations = 0
    limit = nu.space.n_cells + 1
    while True:
        frac = _fractional_indices(vec)
        movable = frac[divisible[frac]]
        c = witness_on(movable)
        if c is None:
            if movable.size != frac.size and witness_on(frac) is not None:
                blocked = tuple(int(k) for k in frac if not divisible[k])
                raise AtomicObstruction(
                    f"kernel move requires splitting indivisible cells {blocked}",
                    cells=blocked,
                )
            break
        up = np.flatnonzero(c > 1e-14)
        down = np.flatnonzero(c < -1e-14)
        t_plus = min(
            ((1.0 - vec[up]) / c[up]).min() if up.size else np.inf,
            (vec[down] / -c[down]).min() if down.size else np.inf,
        )
        t_minus = min(
            (vec[up] / c[up]).min() if up.size else np.inf,
            ((1.0 - vec[down]) / -c[down]).min() if down.size else np.inf,
        )
        step = t_plus if t_plus > 0.0 else -t_minus
        if not np.isfinite(step):
            break
        vec = _snap(vec + step * c)
        iterations += 1
        if iterations >= limit:
            raise NumericalFailure("purification failed to pin a coordinate per step")

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
    if len(h.cell_fractions) != nu.space.n_cells or len(h.atom_mask) != nu.space.n_atoms:
        raise ShapeMismatch("fractional set does not match the sample space")
    vec = _snap(h.fractions().copy())
    live = nu.cell_norms() > MASS_TOL
    frac = _fractional_indices(vec)
    vec[frac[~live[frac]]] = 0.0
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
    residual = 0.0 if target is None else opcore.op_norm(achieved - opcore.as_matrix(target))
    return AttainResult(
        intervals=tuple((lo, hi) for lo, hi in intervals),
        atom_indices=tuple(k for k, x in enumerate(h.atom_mask) if x),
        achieved=achieved,
        residual=residual,
        interval_count=len(intervals),
        iterations=0,
        fractional_count=int(_fractional_indices(vec).size),
    )


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


def convex_combine(nu: OVM, e1: MeasurableSet, e2: MeasurableSet, t: float) -> AttainResult:
    """Realize t * nu(E1) + (1 - t) * nu(E2) as nu(E) for an interval set E.

    Atom selections cannot be mixed fractionally: for t strictly inside
    (0, 1) the two sets must agree on every atom of nonzero mass.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInput(f"mixing weight {t!r} outside [0, 1]")
    for e in (e1, e2):
        if len(e.cell_mask) != nu.space.n_cells or len(e.atom_mask) != nu.space.n_atoms:
            raise ShapeMismatch("set masks do not match the sample space")
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
    result = realize_intervals(nu, pure.h_final, target=target)
    return AttainResult(
        intervals=result.intervals,
        atom_indices=result.atom_indices,
        achieved=result.achieved,
        residual=result.residual,
        interval_count=result.interval_count,
        iterations=pure.iterations,
        fractional_count=len(pure.fractional_indices),
    )


def attain(nu: OVM, target, *, stop_tol: float = 1e-10, fail_tol: float = 1e-6,
           max_iter: int = 100000) -> AttainResult:
    """Realize a target operator in the range hull of a nonatomic measure.

    Feasibility (find h in [0,1]^m with sum h_k M_k = target) runs as
    Dykstra-corrected alternating projections between the affine fiber,
    applied through a precomputed least-squares factorization in Hermitian
    coordinates, and the unit box.  Failure to converge below ``fail_tol``
    raises TargetNotInHull; that is a heuristic report, never a
    certificate that the target lies outside the hull.
    """
    if not nu.positive:
        raise NotPositive("attainment is defined for positive OVMs")
    if not is_nonatomic(nu):
        raise AtomicObstruction("attainment needs a nonatomic measure "
                                "(divisible cells, no massive atoms)")
    a_mat = opcore.hermitian(target)
    if a_mat.shape[0] != nu.dim:
        raise ShapeMismatch(f"target dim {a_mat.shape[0]} vs measure dim {nu.dim}")
    coords = coordinate_matrix(nu, range(nu.space.n_cells))
    goal = opcore.herm_coords(a_mat)
    scale = max(1.0, float(np.linalg.norm(goal)))

    u, sing, vt = np.linalg.svd(coords, full_matrices=False)
    keep = sing > 1e-12 * (sing[0] if sing.size else 0.0)
    ur, sr, vr = u[:, keep], sing[keep], vt[keep]

    def project_fiber(x):
        # x - pinv(coords) @ (coords @ x - goal)
        resid = coords @ x - goal
        return x - vr.T @ ((ur.T @ resid) / sr)

    x = np.clip(project_fiber(np.zeros(nu.space.n_cells)), 0.0, 1.0)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    best = np.inf
    stall = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = project_fiber(x + p)
        p = x + p - y
        xb = np.clip(y + q, 0.0, 1.0)
        q = y + q - xb
        x = xb
        resid = float(np.linalg.norm(coords @ x - goal))
        if resid <= stop_tol * scale:
            break
        # Plateau detection: alternating projections have stabilized at a
        # positive gap, so the box and the fiber do not intersect.
        if resid < best - 1e-15 * scale:
            best = resid
            stall = 0
        else:
            stall += 1
            if stall >= 500:
                break
    resid = float(np.linalg.norm(coords @ x - goal))
    if resid > fail_tol * scale:
        raise TargetNotInHull(
            f"projection residual {resid:.3e} after {iterations} iterations",
            residual=resid,
        )

    h = FractionalSet(tuple(_snap(x)), (False,) * nu.space.n_atoms)
    pure = purify(nu, h)
    result = realize_intervals(nu, pure.h_final, target=a_mat)
    return AttainResult(
        intervals=result.intervals,
        atom_indices=result.atom_indices,
        achieved=result.achieved,
        residual=result.residual,
        interval_count=result.interval_count,
        iterations=iterations + pure.iterations,
        fractional_count=len(pure.fractional_indices),
    )


def joint_attain(ovms, targets, **opts) -> AttainResult:
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
    return attain(joint, block, **opts)


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

    rng = np.random.Generator(np.random.PCG64(int(seed)))
    m, n = nu.space.n_cells, nu.space.n_atoms
    total_norm = opcore.op_norm(nu.total_mass())
    distinct_tol = 1e-12 * max(1.0, total_norm)

    def draw_set():
        return MeasurableSet(
            tuple(bool(b) for b in rng.integers(0, 2, m)),
            tuple(bool(b) for b in rng.integers(0, 2, n)),
        )

    failures = []
    max_residual = 0.0
    max_intervals = 0
    for trial in range(int(trials)):
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
        trials=int(trials),
        seed=int(seed),
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
