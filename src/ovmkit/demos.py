"""The paper's worked examples: each demo returns ``(results, checks)``, a
JSON-ready results object and named pass/fail checks with their limits."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import models, opcore
from .errors import AtomicObstruction, InvalidInput, SpaceMismatch, TargetNotInHull
from .lyapunov import _program_limit, attain, attain_to_json, joint_attain, kernel_witness
from .ovm import OVM, MeasurableSet, check_ovm_properties, direct_sum
from .rnderiv import rn_consistency, rn_derivative


def check(name, passed, value, limit=None) -> dict:
    """One named check of a report."""
    entry = {"name": name, "passed": bool(passed), "value": value}
    if limit is not None:
        entry["limit"] = limit
    return entry


def failed(exc: Exception) -> tuple[dict, list]:
    """Results and checks of an operation that raised ``exc``."""
    reason = f"{type(exc).__name__}: {exc}"
    return {"error": reason}, [check("attained", False, reason)]


_RN_NOTE = (
    "The familiar closed form for this derivative displays only the (n, n) "
    "diagonal entries; the definitional entrywise formula also places the "
    "same coefficient in entry (0, 0), because the first coordinate's "
    "measure is supported on every cell. Both entries are reported here."
)


def paper_example_13(levels: int):
    """Reproduce the harmonic-cell diagonal model's induced density and
    operator derivative coefficients; returns (results, checks)."""
    nu, rho = models.harmonic_diag_model(levels)
    dens = rn_derivative(nu, rho)
    levels = nu.space.n_cells
    n = np.arange(levels, 0, -1)  # cell k is I_n, n = levels - k
    power = np.ldexp(1.0, n)  # 2^n
    density = dens.reference.cells / nu.space.weights
    expected_density = (power + 1.0) / (2.0 * power)
    rn_00, rn_nn = dens.values[:, 0, 0].real, dens.values[np.arange(levels), n, n].real
    expected_rn = 2.0 * power / (power + 1.0)
    worst_density = float(np.abs(density - expected_density).max(initial=0.0))
    worst_entry = float(np.abs(np.stack([rn_00, rn_nn]) - expected_rn).max(initial=0.0))
    bp = nu.space.breakpoints
    columns = zip(n.tolist(), bp, bp[1:], density.tolist(), expected_density.tolist(),
                  rn_00.tolist(), rn_nn.tolist(), expected_rn.tolist())
    rows = [{"n": k, "cell": [lo, hi], "density": d, "expected_density": ed,
             "rn_entry_00": r00, "rn_entry_nn": rnn, "expected_rn_entry": er}
            for k, lo, hi, d, ed, r00, rnn, er in columns]
    if levels <= 12:
        masks = (np.arange(1 << levels)[:, None] >> np.arange(levels) & 1) == 1
    else:
        # Each cell alone, then each prefix [0, j]
        masks = np.vstack([np.eye(levels, dtype=bool), np.tri(levels, dtype=bool)])
    sets = [MeasurableSet(mask) for mask in masks]
    consistency = rn_consistency(nu, rho, sets)
    results = {
        "levels": levels,
        "cells": rows,
        "rn_consistency_residual": consistency,
        "display_formula_discrepancy": {"flagged": True, "note": _RN_NOTE},
    }
    checks = [
        check("density_error", worst_density <= 1e-12, worst_density, 1e-12),
        check("rn_entry_error", worst_entry <= 1e-12, worst_entry, 1e-12),
        check("rn_consistency", consistency <= 1e-11, consistency, 1e-11),
    ]
    return results, checks


def uhl_demo(cells: int):
    """Indicator-valued model: no kernel on any support, range bounded away
    from the midpoint of [0, nu(X)], spectral; returns (results, checks).
    One kernel_witness call on all m cells decides the 2^m - 1 supports:
    by interlacing (see lyapunov), subsets of independent columns stay so."""
    m = opcore.as_int(cells, "cells")
    if not 2 <= m <= 20:
        raise InvalidInput("cells must lie in [2, 20]")
    nu = models.uhl_model(m)
    witnesses = int(kernel_witness(nu, range(m)) is not None)

    # The model is diagonal, so ||nu(E) - nu(X)/2|| is the largest entry
    # of |diag nu(E) - diag nu(X)/2|; enumerate the 2^m sets E in chunks.
    diag = nu.cell_masses.diagonal(axis1=1, axis2=2).real  # (m, m)
    half_diag = nu.total_mass().diagonal().real / 2
    min_distance = np.inf
    for start in range(0, 1 << m, 1 << 16):
        bits = np.arange(start, min(start + (1 << 16), 1 << m))[:, None] >> np.arange(m) & 1
        min_distance = min(min_distance, float(np.abs(bits @ diag - half_diag).max(axis=1).min()))

    sample_sets = [MeasurableSet.empty(nu.space), MeasurableSet.full(nu.space)]
    sample_sets += [MeasurableSet.from_indices(nu.space, cells=[k]) for k in range(m)]
    sample_sets += [MeasurableSet(np.arange(m) % 2 == 0), MeasurableSet(np.arange(m) < m // 2)]
    props = check_ovm_properties(nu, sample_sets)

    results = {
        "cells": m,
        "supports_tested": (1 << m) - 1,
        "kernel_witnesses_found": witnesses,
        "min_distance_to_half_total": min_distance,
        "properties": asdict(props),
    }
    checks = [
        check("kernel_absent", witnesses == 0, witnesses, 0),
        check("min_distance", abs(min_distance - 0.5) <= 1e-12, min_distance, 0.5),
        check("spectral", props.spectral, props.spectral),
    ]
    return results, checks


def singular_demo(measures: int, lambdas, cells_per_block: int = 4,
                  tol: float = 1e-10):
    """Joint attainment over mutually singular scalar measures; the achieved
    operator is the diagonal of the requested tuple, its residual held to
    ``tol``."""
    n = opcore.as_int(measures, "measures")
    if n < 2:
        raise InvalidInput("need at least two measures")
    lam = [opcore.as_real(x, "lambda") for x in lambdas]
    if len(lam) != n or any(not 0.0 <= x <= 1.0 for x in lam):
        raise InvalidInput("lambdas must be n values in [0, 1]")
    mus = models.singular_blocks(n, cells_per_block)
    targets = [np.array([[x]], dtype=np.complex128) for x in lam]
    try:
        result = joint_attain(mus, targets)
    except (TargetNotInHull, AtomicObstruction) as exc:
        return failed(exc)
    achieved_diag = [float(x) for x in result.achieved.diagonal().real]
    component_error = max(abs(a - x) for a, x in zip(achieved_diag, lam))
    results = {
        "measures": n,
        "lambdas": lam,
        "achieved_diagonal": achieved_diag,
        "attain": attain_to_json(result),
    }
    checks = [
        check("residual", result.residual <= tol, result.residual, tol),
        check("component_error", component_error <= 1e-9, component_error, 1e-9),
    ]
    return results, checks


def classical_demo(measures, cells: int = 64, trials: int = 1, seed: int = 0,
                   targets=None, tol: float = 1e-9):
    """Classical Lyapunov attainment on scalar measures: ``measures`` seeded
    random ones on ``cells`` cells, or the given list or tuple of OVMs, all
    targets attained on their one direct sum; returns (results, checks).
    When there is a target, the joint phase-1 program (n^2 rows for n
    measures) is sized before any measure or direct sum is built: past
    PROGRAM_ENTRIES it raises attain's SizeLimit."""
    rng = models.rng_from_seed(seed)
    if isinstance(measures, (list, tuple)):
        mus = list(measures)
        if not mus:
            raise InvalidInput("need at least one measure")
        if not all(isinstance(mu, OVM) for mu in mus):
            raise InvalidInput("classical measures must be OVMs")
        if any(mu.dim != 1 for mu in mus):
            raise InvalidInput("classical measures must have dimension 1")
        if any(mu.space != mus[0].space for mu in mus):
            raise SpaceMismatch("classical measures must share one sample space")
        n, m = len(mus), mus[0].space.n_cells
    else:
        n = opcore.as_int(measures, "measures", low=1)
        m = opcore.as_int(cells, "cell count", low=1)
        mus = None
    drawn = opcore.as_int(trials, "trials", low=0) if targets is None else 0
    targets = None if targets is None else list(targets)
    if drawn or targets:
        _program_limit(n * n, m)
    if mus is None:
        mus = models.overlapping_measures(n, m, rng)
    totals = [float(mu.total_mass()[0, 0].real) for mu in mus]

    if targets is None:
        targets = [[float(np.tensordot(h, mu.cell_masses[:, 0, 0].real, axes=1)) for mu in mus]
                   for h in (rng.random(m) for _ in range(drawn))]
    joint = direct_sum(mus) if n > 1 and targets else mus[0]  # built only for a target
    rows = []
    worst_residual = 0.0
    worst_fractional = 0
    failure = None
    for tup in targets:
        if not isinstance(tup, (list, tuple)):
            raise InvalidInput(f"each target must be a list or tuple of values, got {tup!r}")
        tup = [opcore.as_real(x, "target value") for x in tup]
        if len(tup) != n:
            raise InvalidInput("each target tuple needs one value per measure")
        try:
            result = attain(joint, np.diag(tup))
        except (TargetNotInHull, AtomicObstruction) as exc:
            failure = f"{type(exc).__name__}: {exc}"
            rows.append({"target": tup, "error": failure})
            break
        worst_residual = max(worst_residual, result.residual)
        worst_fractional = max(worst_fractional, result.fractional_count)
        rows.append({
            "target": tup,
            "achieved": [float(x) for x in result.achieved.diagonal().real],
            "residual": result.residual,
            "fractional_count": result.fractional_count,
            "interval_count": result.interval_count,
        })
    results = {
        "measures": n,
        "cells": m,
        "totals": totals,
        "targets": rows,
    }
    if failure is not None:
        return results, [check("attained", False, failure)]
    checks = [
        check("max_residual", worst_residual <= tol, worst_residual, tol),
        check("max_fractional", worst_fractional <= n, worst_fractional, n),
    ]
    return results, checks
