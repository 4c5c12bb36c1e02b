"""Correctness checks for every benchmark operation, in plain numpy.

Each check recomputes what the operation should have produced from the
benchmark's own inputs and returns None when the output is right, or a
one-line reason when it is not.  The output under test is always the
last argument.  Tolerances are the library's acceptance tolerances and
are not loosened to make a run pass.
"""

from __future__ import annotations

import json

import numpy as np

REALIZE_TOL = 1e-9      # ||nu(E) - A|| <= REALIZE_TOL * max(1, ||A||)
IDENTITY_TOL = 1e-9     # criterion 2: integration identity, relative
INDICATOR_TOL = 1e-12   # criterion 3: indicator identity, relative
EXACT_TOL = 1e-12       # set function, induced measure, density, ess_sup
RN_CONSISTENCY_TOL = 1e-11
MASS_TOL = 1e-12        # below this operator norm a mass or value is zero


def opnorm(a) -> float:
    return float(np.linalg.norm(a, 2))


def _rel_gap(want, tol, what, got):
    gap = opnorm(np.asarray(got) - want)
    limit = tol * max(1.0, opnorm(want))
    if not gap <= limit:
        return f"{what}: gap {gap:.3e} > {limit:.3e}"
    return None


def measure_of_intervals(masses: np.ndarray, intervals) -> np.ndarray:
    """nu(E) for a union of intervals of [0, 1) over m equal cells, under
    the constant-density convention."""
    m = masses.shape[0]
    bounds = np.asarray(intervals, dtype=float).reshape(-1, 2)
    cum = np.concatenate([np.zeros((1,) + masses.shape[1:], complex), np.cumsum(masses, axis=0)])

    def mass_below(x):
        k = np.clip(np.floor(x * m).astype(int), 0, m - 1)
        part = (x - k / m) * m
        return cum[k] + part[:, None, None] * masses[k]

    return (mass_below(bounds[:, 1]) - mass_below(bounds[:, 0])).sum(axis=0)


def realization(masses: np.ndarray, target: np.ndarray, result) -> str | None:
    """An AttainResult realizes ``target``: well-formed disjoint intervals
    inside [0, 1), at most m + d^2 of them, carrying the target mass."""
    m, d = masses.shape[0], masses.shape[1]
    intervals = list(result.intervals)
    if len(intervals) > m + d * d or result.interval_count != len(intervals):
        return f"{len(intervals)} intervals (reported {result.interval_count}), limit {m + d * d}"
    prev = 0.0
    for lo, hi in intervals:
        if not prev <= lo < hi <= 1.0:
            return f"interval [{lo}, {hi}) is empty, unordered or outside [0, 1)"
        prev = hi
    got = measure_of_intervals(masses, intervals) if intervals else np.zeros((d, d))
    return _rel_gap(target, REALIZE_TOL, "nu(E) vs target", got)


def same_stack(want, what, got) -> str | None:
    if not np.array_equal(np.asarray(got), want):
        return f"{what} differ from the inputs"
    return None


def set_value(masses, selector, what, got) -> str | None:
    """nu(E) or sum h_k M_k against the numpy sum (selector is a mask or
    fraction vector), relative to ||nu(X)||."""
    want = np.tensordot(np.asarray(selector, dtype=float), masses, axes=1)
    gap = opnorm(np.asarray(got) - want)
    limit = EXACT_TOL * max(1.0, opnorm(masses.sum(axis=0)))
    return None if gap <= limit else f"{what}: gap {gap:.3e} > {limit:.3e}"


def traces(rho, masses) -> np.ndarray:
    return np.einsum("ij,kji->k", rho, masses).real


def induced(rho, masses, got_cells) -> str | None:
    gap = float(np.abs(np.asarray(got_cells) - traces(rho, masses)).max())
    return None if gap <= EXACT_TOL else f"induced traces off by {gap:.3e}"


def density(rho, masses, dens_cells) -> str | None:
    """Defined exactly on the massive cells; R_k tr(rho M_k) = M_k and
    tr(rho R_k) = 1 there."""
    live = np.array([opnorm(x) > MASS_TOL for x in masses])
    defined = np.array([r is not None for r in dens_cells])
    if not np.array_equal(live, defined):
        return "density defined on the wrong cells"
    tr = traces(rho, masses)
    for k in np.flatnonzero(live):
        r = np.asarray(dens_cells[k])
        if opnorm(r * tr[k] - masses[k]) > EXACT_TOL * max(1.0, opnorm(masses[k])):
            return f"density cell {k} does not reconstruct its mass"
        if abs(np.trace(rho @ r) - 1.0) > EXACT_TOL * max(1.0, opnorm(r)):
            return f"tr(rho R_{k}) != 1"
    return None


def at_most(limit, what, value) -> str | None:
    return None if value <= limit else f"{what} {value:.3e} > {limit:.1e}"


def psd_root(stack: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(stack)
    return (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)


def integral(masses, values) -> np.ndarray:
    """sum_k M_k^(1/2) F_k M_k^(1/2)."""
    roots = psd_root(masses)
    return (roots @ values @ roots).sum(axis=0)


def integrated(want, got) -> str | None:
    return _rel_gap(want, IDENTITY_TOL, "integral", got)


def indicator_identity(masses, mask, got) -> str | None:
    """Criterion 3: integrate(chi_E I) == nu(E), relative to ||nu(X)||."""
    gap = opnorm(np.asarray(got) - masses[np.asarray(mask, bool)].sum(axis=0))
    limit = INDICATOR_TOL * max(1.0, opnorm(masses.sum(axis=0)))
    return None if gap <= limit else f"indicator integral gap {gap:.3e} > {limit:.3e}"


def integration_identity(s, rho, masses, want_integral, fs_cells) -> str | None:
    """Criterion 2: sum_k f_s(k) nu_rho(k) == tr(s * integral f)."""
    lhs = complex(np.dot(np.asarray(fs_cells), traces(rho, masses)))
    rhs = complex(np.trace(s @ want_integral))
    limit = IDENTITY_TOL * max(1.0, opnorm(want_integral))
    return None if abs(lhs - rhs) <= limit else f"f_s identity gap {abs(lhs - rhs):.3e}"


def live_cells(masses, values) -> np.ndarray:
    mass_norm = np.abs(np.linalg.eigvalsh(masses)).max(axis=1)
    value_norm = np.abs(np.linalg.eigvalsh(values)).max(axis=1)
    return (mass_norm > MASS_TOL) & (value_norm > MASS_TOL)


def support(masses, values, got_mask) -> str | None:
    if not np.array_equal(np.asarray(got_mask, bool), live_cells(masses, values)):
        return "essential support differs"
    return None


def ess_values(masses, values, labels, got) -> str | None:
    """One value per distinct label on massive cells, first occurrence
    first, each equal to its input value."""
    massive = np.abs(np.linalg.eigvalsh(masses)).max(axis=1) > MASS_TOL
    firsts = []
    seen = set()
    for k in np.flatnonzero(massive):
        if labels[k] not in seen:
            seen.add(labels[k])
            firsts.append(k)
    if len(got) != len(firsts):
        return f"{len(got)} essential values, expected {len(firsts)}"
    for value, k in zip(got, firsts):
        if not np.array_equal(value, values[k]):
            return f"essential value for cell {k} differs"
    return None


def ess_sup(masses, values, got) -> str | None:
    massive = np.abs(np.linalg.eigvalsh(masses)).max(axis=1) > MASS_TOL
    norms = np.abs(np.linalg.eigvalsh(values[massive])).max(axis=1)
    want = float(norms.max()) if norms.size else 0.0
    if abs(got - want) > EXACT_TOL * max(1.0, want):
        return f"ess_sup {got!r} != largest live value norm {want!r}"
    return None


def scenario(expected_code, reference_bytes, code, report_bytes) -> str | None:
    """Exit code as expected, a parseable report (an error report for exit
    1), and byte-identical to the first run of the same config."""
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    try:
        report = json.loads(report_bytes)
    except (TypeError, ValueError):
        return "report is not JSON"
    if not isinstance(report, dict) or "schema" not in report:
        return "report has no schema"
    if (code == 1) != ("error" in report):
        return "error report does not match the exit code"
    if report_bytes != reference_bytes:
        return "report differs from the first run of the same config"
    return None
