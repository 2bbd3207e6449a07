"""Structural and numerical checks of the three composition laws.

Condition "i":   I(alpha) * I(1 - alpha) = 1/s
Condition "ii":  D(alpha) * I(alpha)     = 1
Condition "iii": D(alpha) * D(1 - alpha) = s

A condition passes structurally when composing the two designed operators
and cancelling leaves exactly the target s power, no residual factors and a
unit gain.  The numeric deviation is always measured on the raw (unsimplified)
operand product, so failed compositions still get an honest number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignSpec, design_pair
from .errors import ShapeError
from .factored import FactoredModel, frequency_response, multiply_and_simplify
from .frequency import make_grid

__all__ = [
    "CONDITIONS",
    "GAIN_TOL",
    "IdentityVerdict",
    "associativity_table",
    "check_identity",
]

CONDITIONS = ("i", "ii", "iii")

_TARGET_S_EXPONENT = {"i": -1, "ii": 0, "iii": 1}

# Structural gain gate and numeric gate sit two-plus orders above the
# roundoff of 20-factor products and far below any genuine mismatch (the
# benchmark baselines miss by more than 1e-2).
GAIN_TOL = 1e-10
NUMERIC_PASS_TOL = 1e-8


@dataclass(frozen=True)
class IdentityVerdict:
    condition: str
    structural_pass: bool
    numeric_max_deviation: float
    simplified: FactoredModel | None
    failure_note: str = ""


def _operands(condition: str, spec: DesignSpec) -> tuple[FactoredModel, FactoredModel]:
    complement = DesignSpec(
        spec.kappa, 1.0 - spec.alpha, spec.omega_l, spec.omega_h, spec.n, spec.k, spec.epsilon
    )
    if condition == "i":
        return design_pair(spec).integrator, design_pair(complement).integrator
    if condition == "ii":
        pair = design_pair(spec)
        return pair.differentiator, pair.integrator
    if condition == "iii":
        return design_pair(spec).differentiator, design_pair(complement).differentiator
    raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")


def check_identity(
    condition: str,
    kappa: int,
    alpha: float,
    omega_l: float = 1e-3,
    omega_h: float = 1e3,
    n: int = 10,
    k: int = 2,
    epsilon: float | None = None,
    grid_count: int = 1000,
) -> IdentityVerdict:
    """Verdict for one composition law at one order.

    The deviation is ``max |composite(jw) / target(jw) - 1|`` over a
    log grid on the band, evaluated from the two operand responses directly.
    A composition whose net s power cannot be represented counts as a
    structural failure, not an error.  Methods 3 and 4 fall back to their
    special offset when ``epsilon`` is omitted.
    """
    spec = DesignSpec(kappa, alpha, omega_l, omega_h, n, k, epsilon).resolved()
    first, second = _operands(condition, spec)

    grid = make_grid(omega_l, omega_h, grid_count)
    values = frequency_response(first, grid)[0] * frequency_response(second, grid)[0]
    target = (1j * grid) ** _TARGET_S_EXPONENT[condition]
    deviation = float(np.max(np.abs(values / target - 1.0)))

    try:
        simplified = multiply_and_simplify(first, second)
    except ShapeError as exc:
        return IdentityVerdict(condition, False, deviation, None, str(exc))

    structural = (
        simplified.s_exponent == _TARGET_S_EXPONENT[condition]
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


def associativity_table(
    alphas,
    omega_l: float = 1e-3,
    omega_h: float = 1e3,
    n: int = 10,
    k: int = 2,
    epsilon: float | None = None,
) -> np.ndarray:
    """7x3 boolean matrix: entry (kappa-1, condition) is True iff the law
    passes structurally for every order in ``alphas``.

    Entries are the ``structural_pass`` verdicts of :func:`check_identity`;
    the numeric deviation it also reports does not enter the matrix.
    Orders must avoid 0.5 (the structure switch makes it singular for the
    piecewise methods) and the sweep must be non-empty.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("order sweep must not be empty")
    for a in alphas:
        if not (0.0 < a < 1.0) or a == 0.5:
            raise ValueError(f"orders must lie in (0, 0.5) or (0.5, 1), got {a!r}")
    table = np.ones((7, len(CONDITIONS)), dtype=bool)
    for row, kappa in enumerate(range(1, 8)):
        for col, condition in enumerate(CONDITIONS):
            for alpha in alphas:
                verdict = check_identity(
                    condition, kappa, alpha, omega_l, omega_h, n, k, epsilon
                )
                if not verdict.structural_pass:
                    table[row, col] = False
                    break
    return table
