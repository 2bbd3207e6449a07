"""Structural and numerical checks of the three composition laws.

Condition "i":   I(alpha) * I(1 - alpha) = 1/s
Condition "ii":  D(alpha) * I(alpha)     = 1
Condition "iii": D(alpha) * D(1 - alpha) = s

:func:`difint.design.law_operands` is the one place that says which two
designed operators each law composes, and designs just those; the verdicts
here and the time-domain experiments of :mod:`difint.discrete` take them
from it.

A condition passes structurally when composing the two designed operators
and cancelling leaves exactly the target s power, no residual factors and a
unit gain.  The numeric deviation is always measured on the raw (unsimplified)
operand product, so failed compositions still get an honest number.  It is
formed from the operands' summed log magnitudes and phases, never from their
complex product, so a band far from 1 rad/s cannot overflow it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .design import CONDITIONS, METHODS, DesignSpec, law_operands
from .errors import DomainError, ShapeError
from .factored import FactoredModel, complex_from_log, frequency_response, multiply_and_simplify
from .frequency import make_grid

__all__ = [
    "CONDITIONS",
    "GAIN_TOL",
    "IdentityVerdict",
    "associativity_table",
    "check_identity",
]

_TARGET_S_EXPONENT = {"i": -1, "ii": 0, "iii": 1}

# The structural gain gate sits two-plus orders above the roundoff of
# 20-factor products and far below any genuine mismatch (the benchmark
# baselines miss by more than 1e-2).
GAIN_TOL = 1e-10

# Points of the log grid on which check_identity measures its deviation.
GRID_COUNT = 1000


class IdentityVerdict(NamedTuple):
    condition: str
    structural_pass: bool
    numeric_max_deviation: float
    simplified: FactoredModel | None
    failure_note: str = ""


def _verdict(condition: str, first: FactoredModel, second: FactoredModel, grid) -> IdentityVerdict:
    """Verdict for the product ``first * second`` against law ``condition``.

    The deviation is ``max |composite(jw) / target(jw) - 1|`` over ``grid``.
    The quotient is formed in log form: the operands' magnitudes and phases
    are summed and the target's ``20*e*log10(w)`` dB and ``90*e`` degrees
    subtracted, so it stays finite where the product itself would not.  A
    composition whose net s power cannot be represented counts as a
    structural failure, not an error; one whose gain cannot raises
    :func:`multiply_and_simplify`'s ``DomainError``.
    """
    exponent = _TARGET_S_EXPONENT[condition]
    # Simplified first, so that a product whose gain cannot be represented
    # raises before its deviation, which overflows, is formed.
    try:
        simplified = multiply_and_simplify(first, second)
    except ShapeError as exc:
        simplified, note = None, str(exc)
    # Only the log parts are read.  The complex values rebuilt beside them
    # overflow where an operand's magnitude leaves the float range, which
    # would warn on a verdict that is sound.
    with np.errstate(over="ignore"):
        _, first_db, first_deg = frequency_response(first, grid)
        _, second_db, second_deg = frequency_response(second, grid)
    excess_db = first_db + second_db - 20.0 * exponent * np.log10(grid)
    excess_deg = first_deg + second_deg - 90.0 * exponent
    deviation = float(np.max(np.abs(complex_from_log(excess_db, excess_deg) - 1.0)))
    if simplified is None:
        return IdentityVerdict(condition, False, deviation, None, note)

    structural = (
        simplified.s_exponent == exponent
        and not simplified.factors
        and abs(simplified.gain - 1.0) <= GAIN_TOL
    )
    note = ""
    if not structural:
        note = (
            f"simplified to s_exponent={simplified.s_exponent}, "
            f"{len(simplified.factors)} residual factors, gain={simplified.gain!r}"
        )
    return IdentityVerdict(condition, structural, deviation, simplified, note)


def check_identity(condition: str, spec: DesignSpec) -> IdentityVerdict:
    """Verdict for one composition law at the order of ``spec``, with its
    deviation measured on a ``GRID_COUNT``-point log grid over the band."""
    [(first, second)] = law_operands(spec, (condition,))
    grid = make_grid(spec.omega_l, spec.omega_h, GRID_COUNT)
    return _verdict(condition, first, second, grid)


def associativity_table(
    alphas,
    omega_l: float = DesignSpec.omega_l,
    omega_h: float = DesignSpec.omega_h,
    n: int = DesignSpec.n,
    k: int = DesignSpec.k,
) -> np.ndarray:
    """7x3 boolean matrix: entry (kappa-1, condition) is True iff the law
    passes structurally for every order in ``alphas``.  Methods 3 and 4
    take their special offset at each order: no one offset is admissible
    for both, as their intervals differ.

    One :func:`law_operands` call per order feeds every column still open,
    so the complement is designed only while law i or iii is open: a column
    stops at its first failing order, and a row once all its columns have
    failed.  The numeric deviation of each verdict does not enter the
    matrix.  Orders must avoid 0.5 (the structure switch makes it singular
    for the piecewise methods) and the sweep must be non-empty.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise DomainError("order sweep must not be empty")
    for a in alphas:
        if not (0.0 < a < 1.0) or a == 0.5:
            raise DomainError(f"orders must lie in (0, 0.5) or (0.5, 1), got {a!r}")
    table = np.ones((len(METHODS), len(CONDITIONS)), dtype=bool)
    grid = make_grid(omega_l, omega_h, GRID_COUNT)
    for row, kappa in enumerate(METHODS):
        for alpha in alphas:
            columns = np.flatnonzero(table[row])
            if not columns.size:
                break
            spec = DesignSpec(kappa, alpha, omega_l, omega_h, n, k)
            conditions = [CONDITIONS[col] for col in columns]
            operands = law_operands(spec, conditions)
            for col, condition, (first, second) in zip(columns, conditions, operands):
                table[row, col] = _verdict(condition, first, second, grid).structural_pass
    return table
