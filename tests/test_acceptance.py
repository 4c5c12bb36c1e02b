"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion prints a single [PASS]/[FAIL] line (visible with -s, or in
the captured output on failure) before asserting.
"""

import itertools
import time

import numpy as np

from helpers import random_qrv_values, random_state, trace_pair
from ovmkit import opcore
from ovmkit.demos import paper_example_13, uhl_demo
from ovmkit.lyapunov import (
    brute_force_range,
    convexity_certificate,
    joint_attain,
    purify,
)
from ovmkit.models import (
    overlapping_measures,
    random_povm,
    rng_from_seed,
    single_atom_measure,
    uhl_model,
)
from ovmkit.ovm import (
    FractionalSet,
    MeasurableSet,
    evaluate,
    evaluate_fractional,
    grid_ovm,
    induced_measure,
)
from ovmkit.qintegrate import (
    ess_range,
    ess_sup,
    indicator,
    integrand_fs,
    integrate,
    qrv,
)


def criterion(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_harmonic_model_reproduction():
    started = time.perf_counter()
    results, checks = paper_example_13(8)
    elapsed = time.perf_counter() - started
    rows = results["cells"]
    top = next(r for r in rows if r["n"] == 1)
    ok = (
        abs(top["density"] - 0.75) <= 1e-12
        and abs(top["rn_entry_nn"] - 4.0 / 3.0) <= 1e-12
        and all(c["passed"] for c in checks)
        and elapsed < 1.0
    )
    criterion(1, ok, f"density 3/4 and derivative 4/3 at level 1, all 8 "
                     f"coefficients within 1e-12, {elapsed:.2f}s")


def test_criterion_2_integration_identity():
    started = time.perf_counter()
    rng = rng_from_seed(1002)
    worst_residual = 0.0
    worst_spread = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(4, 65))
        nu = random_povm(d, m, rng)
        f = qrv(nu.space, random_qrv_values(d, m, rng))
        expected = integrate(nu, f)
        scale = max(1.0, opcore.op_norm(expected))
        states = [random_state(d, rng) for _ in range(25)]
        rhos = [random_state(d, rng) for _ in range(3)]
        inds = [induced_measure(nu, rho) for rho in rhos]
        for s in states:
            lhs = trace_pair(s.matrix, expected)
            values = []
            for rho, ind in zip(rhos, inds):
                fs = integrand_fs(f, s, nu, rho)
                values.append(np.dot(fs.cells, ind.cells) + np.dot(fs.atoms, ind.atoms))
            worst_residual = max(worst_residual,
                                 max(abs(lhs - v) for v in values) / scale)
            worst_spread = max(worst_spread,
                               max(abs(a - b) for a in values for b in values) / scale)
    elapsed = time.perf_counter() - started
    ok = worst_residual <= 1e-9 and worst_spread <= 1e-10 and elapsed < 10.0
    criterion(2, ok, f"max residual {worst_residual:.2e} <= 1e-9, reference-state "
                     f"spread {worst_spread:.2e} <= 1e-10, {elapsed:.1f}s")


def test_criterion_3_indicator_identity():
    rng = rng_from_seed(1003)
    worst = 0.0
    nu_small = random_povm(2, 10, rng)
    scale = max(1.0, opcore.op_norm(nu_small.total_mass()))
    for idx in range(1 << 10):
        e = MeasurableSet(tuple(bool(idx >> k & 1) for k in range(10)))
        gap = opcore.op_norm(integrate(nu_small, indicator(nu_small.space, 2, e))
                             - evaluate(nu_small, e))
        worst = max(worst, gap / scale)
    nu_big = random_povm(2, 256, rng)
    scale_big = max(1.0, opcore.op_norm(nu_big.total_mass()))
    for _ in range(200):
        e = MeasurableSet(tuple(bool(b) for b in rng.integers(0, 2, 256)))
        gap = opcore.op_norm(integrate(nu_big, indicator(nu_big.space, 2, e))
                             - evaluate(nu_big, e))
        worst = max(worst, gap / scale_big)
    ok = worst <= 1e-12
    criterion(3, ok, f"indicator integral equals the measure, worst relative "
                     f"gap {worst:.2e} <= 1e-12 (exhaustive m=10 plus 200 at m=256)")


def test_criterion_4_purification_contract():
    started = time.perf_counter()
    worst_relative = 0.0
    all_ok = True
    for trial in range(200):
        rng = rng_from_seed(4000 + trial)
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d * d + 1, 201))
        nu = random_povm(d, m, rng)
        h0 = FractionalSet(tuple(rng.random(m)))
        before = evaluate_fractional(nu, h0)
        result = purify(nu, h0)
        after = evaluate_fractional(nu, result.h_final)
        rel = opcore.op_norm(after - before) / max(1.0, opcore.op_norm(before))
        worst_relative = max(worst_relative, rel)
        all_ok &= result.iterations <= m
        all_ok &= len(result.fractional_indices) <= d * d
    elapsed = time.perf_counter() - started
    ok = all_ok and worst_relative <= 1e-8 and elapsed < 30.0
    criterion(4, ok, f"200 purifications: <= m iterations, <= d^2 fractional "
                     f"cells, worst drift {worst_relative:.2e} <= 1e-8, {elapsed:.1f}s")


def test_criterion_5_convexity_certificate():
    nu = random_povm(2, 40, rng_from_seed(1005))
    report = convexity_certificate(nu, 100, 1005)
    ok = (len(report.failures) == 0
          and report.max_residual <= 1e-9
          and report.max_interval_count <= 44)
    criterion(5, ok, f"100 mixes: 0 failures, max residual "
                     f"{report.max_residual:.2e} <= 1e-9, max intervals "
                     f"{report.max_interval_count} <= 44")


def test_criterion_6_indicator_model_nonconvexity():
    started = time.perf_counter()
    results, checks = uhl_demo(12)
    elapsed = time.perf_counter() - started
    ok = (abs(results["min_distance_to_half_total"] - 0.5) <= 1e-12
          and results["kernel_witnesses_found"] == 0
          and results["supports_tested"] == (1 << 12) - 1
          and elapsed < 5.0)
    criterion(6, ok, f"min distance to the midpoint is exactly 1/2 over all "
                     f"4096 sets, no kernel on any of the 4095 supports, "
                     f"{elapsed:.1f}s")


def test_criterion_7_classical_attainment():
    rng = rng_from_seed(1007)
    mus = overlapping_measures(3, 64, rng)
    worst_residual = 0.0
    worst_fractional = 0
    for _ in range(50):
        h = rng.random(64)
        targets = [np.array([[np.dot(h, mu.cell_masses[:, 0, 0].real)]]) for mu in mus]
        result = joint_attain(mus, targets)
        worst_residual = max(worst_residual, result.residual)
        worst_fractional = max(worst_fractional, result.fractional_count)
    ok = worst_residual <= 1e-9 and worst_fractional <= 3
    criterion(7, ok, f"50 joint targets on 3 overlapping measures: worst "
                     f"residual {worst_residual:.2e} <= 1e-9, at most "
                     f"{worst_fractional} <= 3 fractional cells")


def _oracle_ess_range(f, nu):
    m = nu.space.n_cells
    live = nu.massive[:m]
    candidates = None
    for bits in itertools.product([False, True], repeat=m):
        keep = np.asarray(bits)
        if np.any(~keep & live):
            continue
        values = [f.cell_values[k] for k in range(m) if bits[k]]
        if candidates is None:
            candidates = values
        else:
            candidates = [a for a in candidates
                          if any(opcore.op_norm(a - b) <= 1e-10 for b in values)]
    out = []
    for a in candidates or []:
        if all(opcore.op_norm(a - b) > 1e-10 for b in out):
            out.append(a)
    return out


def test_criterion_8_essential_range_oracle():
    pool = [np.zeros((2, 2)), np.eye(2), np.diag([1.0, -1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]])]
    mismatches = 0
    for case in range(100):
        rng = rng_from_seed(8000 + case)
        m = int(rng.integers(2, 11))
        nu = random_povm(2, m, rng)
        if m > 2 and case % 3 == 0:
            masses = nu.cell_masses.copy()
            masses[int(rng.integers(0, m))] = 0.0
            nu = grid_ovm(nu.space, masses)
        f = qrv(nu.space,
                np.stack([pool[v] for v in rng.integers(0, len(pool), m)]).astype(complex))
        got = ess_range(f, nu)
        expected = _oracle_ess_range(f, nu)
        if len(got) != len(expected):
            mismatches += 1
            continue
        used = set()
        for a in got:
            hit = next((i for i, b in enumerate(expected)
                        if i not in used and opcore.op_norm(a - b) <= 1e-10), None)
            if hit is None:
                mismatches += 1
                break
            used.add(hit)
    ok = mismatches == 0
    criterion(8, ok, f"essential range equals the co-null intersection oracle "
                     f"on all 100 cases ({mismatches} mismatches)")


def test_criterion_9_order_bounds_and_linearity():
    rng = rng_from_seed(1009)
    worst_linearity = 0.0
    order_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(3, 25))
        nu = random_povm(d, m, rng)
        f = qrv(nu.space, random_qrv_values(d, m, rng, positive=True))
        out = integrate(nu, f)
        bound = ess_sup(f, nu) * nu.total_mass()
        order_ok &= opcore.loewner_leq(np.zeros((d, d)), out)
        order_ok &= opcore.loewner_leq(out, bound)
        g = qrv(nu.space, random_qrv_values(d, m, rng))
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        gap = opcore.op_norm(integrate(nu, a * f + b * g)
                             - a * integrate(nu, f) - b * integrate(nu, g))
        worst_linearity = max(worst_linearity, gap)
    ok = order_ok and worst_linearity <= 1e-11
    criterion(9, ok, f"0 <= E(f) <= ess_sup * nu(X) on 100 positive step "
                     f"functions, linearity residual {worst_linearity:.2e} <= 1e-11")


def test_criterion_10_atomic_obstruction():
    atom = single_atom_measure()
    values = {round(float(v[0, 0].real), 12) for _, v in brute_force_range(atom)}
    midpoint_gap = min(abs(v - 0.5) for v in values)
    report_atom = convexity_certificate(atom, 100, 1010)
    report_grid = convexity_certificate(uhl_model(8), 50, 1010)
    ok = (
        values == {0.0, 1.0}
        and midpoint_gap == 0.5
        and len(report_atom.failures) == 100
        and all("AtomicObstruction" in f.reason for f in report_atom.failures)
        and len(report_grid.failures) == 50
    )
    criterion(10, ok, "atomic ranges are the two-point set {0, mass} and every "
                      "fractional mix is obstructed (100/100 and 50/50 failures)")
