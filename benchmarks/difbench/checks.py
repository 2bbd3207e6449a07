"""Output checks, run outside the timed region.

Each check returns ``(status, reason)``.  ``status`` is ``"ok"``,
``"malformed"`` (the program visibly failed: non-finite numbers, JSON that
does not parse strictly, a wrong exit code) or ``"wrong"`` (a well-formed
answer that disagrees with its oracle).  Both count as failed ops; only
``"wrong"`` makes a run incorrect, because a silently wrong answer makes the
timing meaningless while a visible failure is itself a measured outcome.

The oracles are not the code under test: the paper's composition-law matrix,
an ``mpmath`` evaluation of the factored model, signals and impedances
computed here from their closed forms, and parsed netlist values.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

OK = ("ok", "")

# Table 1 of the paper: rows are methods 1..7, columns conditions i, ii, iii.
PAPER_MATRIX = ((True, True, True),) * 4 + ((False, False, False),) * 2 + ((False, True, False),)
PAPER_MATRIX_TEXT = "method  i  ii  iii\n" + "".join(
    "{}       {}  {}   {}\n".format(kappa, *("✓" if mark else "×" for mark in row))
    for kappa, row in enumerate(PAPER_MATRIX, start=1)
)

# Stated bounds.  Evaluation against mpmath: the float log-sum of 180
# factor terms carries ~1e-12 dB of rounding.  Simplified laws of methods
# 1..4 at h = 1e-3: the trapezoid and central-difference heads are O(h**2),
# about 1e-7.  Round trips: measured below 2e-14 on every finite expansion
# of the realize domain, so 1e-6 only catches real defects.
EVAL_TOL = 1e-8
LAW_TOL = 1e-6
ROUND_TRIP_TOL = 1e-6
NETLIST_TOL = 1e-6  # netlist values print with 9 fractional digits


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def grid_points(omega_l: float, omega_h: float, count: int, indices) -> np.ndarray:
    """Points of the log grid ``make_grid`` documents, computed here."""
    i = np.asarray(indices, dtype=float)
    return omega_l * (omega_h / omega_l) ** (i / (count - 1))


def mp_response(model, omega: float) -> tuple[float, float]:
    """(magnitude dB, phase deg) of a factored model at j*omega, in 40-digit
    arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        w = mpmath.mpf(omega)
        k = model.multiplicity
        mag = 20 * mpmath.log10(model.gain) + 20 * model.s_exponent * mpmath.log10(w)
        phase = model.s_exponent * mpmath.pi / 2
        for z, p in model.factors:
            mag += 10 * k * mpmath.log10((w * w + z * z) / (w * w + p * p))
            phase += k * (mpmath.atan2(w, z) - mpmath.atan2(w, p))
        return float(mag), float(mpmath.degrees(phase))


def check_table1(op, matrix):
    if np.shape(matrix) != (7, 3):
        return "malformed", f"matrix shape {np.shape(matrix)}"
    got = tuple(tuple(bool(v) for v in row) for row in np.asarray(matrix))
    if got != PAPER_MATRIX:
        return "wrong", f"composition matrix {got} differs from the paper's"
    return OK


def check_sweep(op, rows, model_of, frequency_response):
    """Rows of a 7-method sweep: finite norms, and at seeded grid points the
    evaluation matches mpmath and no row norm lies below the pointwise error
    mpmath gives there."""
    if len(rows) != 7:
        return "malformed", f"{len(rows)} sweep rows"
    for kappa, row in enumerate(rows, start=1):
        norms = (row.mag_norm_inf, row.mag_norm_two, row.phase_norm_inf, row.phase_norm_two)
        if not _finite(norms):
            return "malformed", f"method {kappa}: non-finite norm {norms}"
        if min(norms) < 0.0:
            return "wrong", f"method {kappa}: negative norm {norms}"
    rng = random.Random(json.dumps(op, sort_keys=True))
    alpha = rng.choice(op["alphas"])
    count = op["count"]
    indices = [0, count - 1, rng.randrange(count), rng.randrange(count)]
    omegas = grid_points(op["wl"], op["wh"], count, indices)
    signed = -alpha if op["kind"] == "integrator" else alpha
    for kappa, row in enumerate(rows, start=1):
        model = model_of(kappa, alpha)
        _, mags, phases = frequency_response(model, omegas)
        for omega, mag, phase in zip(omegas, mags, phases):
            ref_mag, ref_phase = mp_response(model, float(omega))
            if abs(mag - ref_mag) > EVAL_TOL or abs(phase - ref_phase) > EVAL_TOL:
                return "wrong", (f"method {kappa} alpha {alpha} omega {omega!r}: "
                                 f"({mag!r}, {phase!r}) vs mpmath ({ref_mag!r}, {ref_phase!r})")
            mag_error = abs(20.0 * signed * math.log10(omega) - ref_mag)
            phase_error = abs(90.0 * signed - ref_phase)
            if mag_error > row.mag_norm_inf + EVAL_TOL or phase_error > row.phase_norm_inf + EVAL_TOL:
                return "wrong", (f"method {kappa}: row norms ({row.mag_norm_inf!r}, "
                                 f"{row.phase_norm_inf!r}) below the error "
                                 f"({mag_error!r}, {phase_error!r}) at omega {omega!r}")
    return OK


def exact_signals(sample_period: float, duration: float) -> dict[str, np.ndarray]:
    t = np.arange(int(round(duration / sample_period)) + 1) * sample_period
    return {"x": 1.0 - np.cos(t), "y": np.sin(t), "z": np.cos(t)}


def check_experiment(op, results, exact):
    """All signals finite; reported exact signals are the closed forms; the
    simplified laws of methods 1..4 stay within ``LAW_TOL``."""
    for name, reference in exact.items():
        result = results[name]
        if len(result.approx) != len(reference):
            return "wrong", f"{name}: {len(result.approx)} samples, expected {len(reference)}"
        if not _finite(result.approx):
            return "malformed", f"{name}: non-finite output"
        if not np.array_equal(result.exact, reference):
            return "wrong", f"{name}: reported exact signal is not the closed form"
        if op["kappa"] <= 4 and not op["cascade"]:
            worst = float(np.max(np.abs(result.approx - reference)))
            if worst > LAW_TOL:
                return "wrong", f"{name}: simplified law off by {worst!r} > {LAW_TOL}"
    return OK


def _expansion_values(pf, s: np.ndarray) -> np.ndarray:
    out = np.full(s.shape, complex(pf.direct))
    if pf.origin_residue:
        out += pf.origin_residue / s
    for term in pf.terms:
        for depth, residue in enumerate(term.residues, start=1):
            out += residue / (s + term.pole) ** depth
    return out


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _netlist_impedance(document, s: np.ndarray) -> np.ndarray:
    z = np.zeros(s.shape, dtype=complex)
    for element in document["elements"]:
        if element["kind"] == "resistor":
            z += element["R"]
        elif element["kind"] == "capacitor":
            z += 1.0 / (s * element["C"])
        else:
            z += element["R"] / (1.0 + s * element["R"] * element["C"])
    return z


def check_realization(op, output, frequency_response, network_impedance):
    """Finite expansion that round-trips against ``frequency_response``;
    for k = 1 designs, the network and both netlists give the same
    impedance."""
    model, pf, netlists = output
    values = [pf.direct, pf.origin_residue] + [r for t in pf.terms for r in t.residues]
    if not _finite(values):
        bad = sum(not math.isfinite(v) for v in values)
        return "malformed", f"{bad} of {len(values)} expansion coefficients are not finite"
    omegas = grid_points(op["wl"], op["wh"], 7, range(7))
    s = 1j * omegas
    direct = frequency_response(model, omegas)[0]
    gap = _relative_gap(_expansion_values(pf, s), direct)
    if not gap <= ROUND_TRIP_TOL:
        return "wrong", f"expansion round trip off by {gap!r}"
    if netlists is None:
        return OK
    network, spice, document_text = netlists
    gap = _relative_gap(network_impedance(network, omegas), direct)
    if not gap <= ROUND_TRIP_TOL:
        return "wrong", f"network impedance off by {gap!r}"
    try:
        document = strict_json(document_text)
    except ValueError as exc:
        return "malformed", f"JSON netlist: {exc}"
    gap = _relative_gap(_netlist_impedance(document, s), direct)
    if not gap <= NETLIST_TOL:
        return "wrong", f"JSON netlist impedance off by {gap!r}"
    spice_values = [float(line.split()[3]) for line in spice.splitlines()
                    if line and not line.startswith("*")]
    json_values = [e[key] for e in document["elements"] for key in ("R", "C") if key in e]
    if not _finite(spice_values) or sorted(spice_values) != sorted(json_values):
        return "wrong", "SPICE and JSON netlists disagree"
    return OK


def _check_numbers(tokens):
    for token in tokens:
        try:
            value = float(token)
        except ValueError:
            return "malformed", f"{token!r} is not a number"
        if not math.isfinite(value):
            return "malformed", f"{token!r} is not finite"
    return OK


def _check_csv(text: str, rows: int | None):
    lines = text.splitlines()
    header = lines[0].split(",")
    labels = {i for i, name in enumerate(header) if name in ("method", "experiment")}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            return "malformed", f"CSV row {line!r} has {len(cells)} cells"
        outcome = _check_numbers(cell for i, cell in enumerate(cells) if i not in labels)
        if outcome != OK:
            return outcome
    if rows is not None and len(lines) - 1 != rows:
        return "wrong", f"{len(lines) - 1} CSV rows, expected {rows}"
    return OK


def check_cli(op, returncode: int, stdout: bytes):
    """Documented exit code, then the output format of the command."""
    if returncode != op["expect"]:
        return "malformed", f"exit code {returncode}, documented {op['expect']}"
    if op["expect"] != 0:
        return OK
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return "malformed", "output is not UTF-8"
    output = op["output"]
    if output == "json":
        try:
            strict_json(text)
        except ValueError as exc:
            return "malformed", f"JSON: {exc}"
        return OK
    if output == "csv":
        return _check_csv(text, op["rows"])
    if output == "matrix":
        if text != PAPER_MATRIX_TEXT:
            return "wrong", f"table 1 {text!r} differs from the paper's"
        return OK
    if output == "spice":
        lines = [line for line in text.splitlines() if line and not line.startswith("*")]
        return _check_numbers(line.split()[3] for line in lines)
    # Text design listing: key=value fields, then index,zero,pole rows.
    tokens = []
    for line in text.splitlines():
        if "=" in line:
            tokens += [field.split("=", 1)[1] for field in line.split()
                       if field.split("=", 1)[0] not in ("kind", "branch")]
        elif line != "index,zero,pole":
            tokens += line.split(",")
    return _check_numbers(tokens)
