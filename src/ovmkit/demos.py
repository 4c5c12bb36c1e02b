"""The paper's worked examples: each demo returns ``(results, checks)``, a
JSON-ready results object and named pass/fail checks with their limits."""

from __future__ import annotations

from dataclasses import asdict
from itertools import combinations

import numpy as np

from . import models, opcore
from .errors import AtomicObstruction, InvalidInput, SpaceMismatch, TargetNotInHull
from .lyapunov import _kernel, attain_to_json, joint_attain
from .ovm import OVM, MeasurableSet, check_ovm_properties, induced_measure
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
    levels = opcore.as_int(levels, "levels")
    nu, rho = models.harmonic_diag_model(levels)
    ind = induced_measure(nu, rho)
    dens = rn_derivative(nu, rho)
    rows = []
    worst_density = 0.0
    worst_entry = 0.0
    for cell in range(nu.space.n_cells):
        n = levels - cell
        width = float(nu.space.weights[cell])
        density = float(ind.cells[cell]) / width
        expected_density = (2.0**n + 1.0) / 2.0 ** (n + 1)
        r = dens.values[cell]
        rn_00 = float(r[0, 0].real)
        rn_nn = float(r[n, n].real)
        expected_rn = 2.0 ** (n + 1) / (2.0**n + 1.0)
        worst_density = max(worst_density, abs(density - expected_density))
        worst_entry = max(worst_entry,
                          abs(rn_00 - expected_rn), abs(rn_nn - expected_rn))
        rows.append({
            "n": n,
            "cell": [nu.space.breakpoints[cell], nu.space.breakpoints[cell + 1]],
            "density": density,
            "expected_density": expected_density,
            "rn_entry_00": rn_00,
            "rn_entry_nn": rn_nn,
            "expected_rn_entry": expected_rn,
        })
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
    from the midpoint of [0, nu(X)], spectral; returns (results, checks)."""
    m = opcore.as_int(cells, "cells")
    if not 2 <= m <= 20:
        raise InvalidInput("cells must lie in [2, 20]")
    nu = models.uhl_model(m)

    # Every size up to m = 12, else sizes 1, 2 and m and 200 seeded masks.
    # Supports of one size share a shape, so they are tested in stacks of
    # 32, one SVD per stack: a stack per size would take megabytes more.
    sizes = range(1, m + 1) if m <= 12 else (1, 2, m)
    by_size = {s: list(combinations(range(m), s)) for s in sizes}
    if m > 12:
        rng = models.rng_from_seed(0)
        for _ in range(200):
            mask = rng.integers(0, 2, m).astype(bool)
            if mask.any():
                by_size.setdefault(int(mask.sum()), []).append(tuple(np.flatnonzero(mask)))
    supports_tested = witnesses = 0
    for group in by_size.values():
        group = np.array(group)
        supports_tested += len(group)
        for start in range(0, len(group), 32):
            witnesses += sum(c is not None for c in _kernel(nu, group[start:start + 32]))

    # The model is diagonal, so ||nu(E) - nu(X)/2|| is the largest entry
    # of |diag nu(E) - diag nu(X)/2|; enumerate the 2^m sets E in chunks.
    diag = nu.cell_masses.diagonal(axis1=1, axis2=2).real  # (m, m)
    half_diag = nu.total_mass().diagonal().real / 2
    min_distance = np.inf
    for start in range(0, 1 << m, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << m))
        bits = (idx[:, None] >> np.arange(m)[None, :]) & 1
        min_distance = min(min_distance,
                           float(np.abs(bits @ diag - half_diag).max(axis=1).min()))

    sample_sets = [MeasurableSet.empty(nu.space), MeasurableSet.full(nu.space)]
    sample_sets += [MeasurableSet.from_indices(nu.space, cells=[k]) for k in range(m)]
    sample_sets += [MeasurableSet(np.arange(m) % 2 == 0), MeasurableSet(np.arange(m) < m // 2)]
    props = check_ovm_properties(nu, sample_sets)

    results = {
        "cells": m,
        "supports_tested": supports_tested,
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
    random ones on ``cells`` cells, or the given list or tuple of OVMs; returns
    (results, checks)."""
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
    else:
        mus = models.overlapping_measures(opcore.as_int(measures, "measures", low=1), cells, rng)
    n = len(mus)
    m = mus[0].space.n_cells
    totals = [float(mu.total_mass()[0, 0].real) for mu in mus]

    if targets is None:
        draws = (rng.random(m) for _ in range(opcore.as_int(trials, "trials", low=0)))
        targets = [[float(np.tensordot(h, mu.cell_masses[:, 0, 0].real, axes=1)) for mu in mus]
                   for h in draws]
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
            result = joint_attain(mus, [np.array([[x]]) for x in tup])
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
