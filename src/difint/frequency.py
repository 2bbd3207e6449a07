"""Frequency grids, exact fractional responses and band error norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignSpec, check_band, design_pair
from .errors import DomainError
from .factored import FactoredModel, checked_omegas, is_count, log_response

__all__ = [
    "DIFFERENTIATOR",
    "INTEGRATOR",
    "ErrorReport",
    "SweepRow",
    "error_series",
    "exact_response",
    "make_grid",
    "sweep_table",
]

INTEGRATOR = "integrator"
DIFFERENTIATOR = "differentiator"

# Points of the log grid on which a sweep measures each order's error.
SWEEP_COUNT = 10000


def make_grid(omega_l: float, omega_h: float, count: int) -> np.ndarray:
    """Log-uniform frequency grid spanning [omega_l, omega_h] inclusive."""
    if not is_count(count) or count < 2:
        raise DomainError(f"grid needs an integer count of at least 2 points, got {count!r}")
    check_band(omega_l, omega_h)
    ratio = omega_h / omega_l
    points = omega_l * ratio ** (np.arange(count) / (count - 1))
    points[0] = omega_l
    points[-1] = omega_h
    return points


def _signed_order(alpha: float, kind: str) -> float:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {alpha!r}")
    if kind == INTEGRATOR:
        return -alpha
    if kind == DIFFERENTIATOR:
        return alpha
    raise DomainError(f"kind must be {INTEGRATOR!r} or {DIFFERENTIATOR!r}, got {kind!r}")


def exact_response(alpha: float, kind: str, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Ideal operator response over an array of frequencies, as
    ``(magnitude_db, phase_deg)``: magnitude omega**(+-alpha), phase
    +-90*alpha."""
    a = _signed_order(alpha, kind)
    w = checked_omegas(omegas)
    return 20.0 * a * np.log10(w), np.full(w.shape, 90.0 * a)


@dataclass(frozen=True)
class ErrorReport:
    """Pointwise dB/degree error series over a grid plus their norms.

    Norms are the plain discrete max and root-sum-square over the grid
    samples (no frequency weighting).
    """

    magnitude_error_db: np.ndarray
    phase_error_deg: np.ndarray
    mag_norm_inf: float
    mag_norm_two: float
    phase_norm_inf: float
    phase_norm_two: float

    @classmethod
    def from_series(cls, magnitude_error_db, phase_error_deg) -> "ErrorReport":
        em = np.asarray(magnitude_error_db, dtype=float)
        ep = np.asarray(phase_error_deg, dtype=float)
        return cls(
            magnitude_error_db=em,
            phase_error_deg=ep,
            mag_norm_inf=float(np.max(np.abs(em))),
            mag_norm_two=float(math.sqrt(np.sum(em * em))),
            phase_norm_inf=float(np.max(np.abs(ep))),
            phase_norm_two=float(math.sqrt(np.sum(ep * ep))),
        )


def error_series(model: FactoredModel, alpha: float, kind: str, grid) -> ErrorReport:
    """Exact-minus-model magnitude (dB) and phase (deg) series over ``grid``."""
    grid = np.asarray(grid, dtype=float)
    exact_mag, exact_phase = exact_response(alpha, kind, grid)
    mag_db, phase_deg = log_response(model, grid)
    return ErrorReport.from_series(exact_mag - mag_db, exact_phase - phase_deg)


@dataclass(frozen=True)
class SweepRow:
    """Worst-case norms across an order sweep (one benchmark table row)."""

    mag_norm_inf: float
    mag_norm_two: float
    phase_norm_inf: float
    phase_norm_two: float


def sweep_table(
    kappa: int,
    kind: str,
    alphas,
    omega_l: float = DesignSpec.omega_l,
    omega_h: float = DesignSpec.omega_h,
    n: int = DesignSpec.n,
    k: int = DesignSpec.k,
    count: int = SWEEP_COUNT,
) -> SweepRow:
    """Per-order error norms, maximized over ``alphas``.

    Each order gets its own norm over a ``count``-point grid; the row
    reports the maximum of each norm across the sweep.  Methods 3 and 4
    take their special offset at every order, as an omitted offset of a
    :class:`DesignSpec` does.
    """
    alphas = list(alphas)
    if not alphas:
        raise DomainError("order sweep must not be empty")
    grid = make_grid(omega_l, omega_h, count)
    rows = []
    for alpha in alphas:
        spec = DesignSpec(kappa, alpha, omega_l, omega_h, n, k)
        pair = design_pair(spec)
        model = pair.integrator if kind == INTEGRATOR else pair.differentiator
        rows.append(error_series(model, alpha, kind, grid))
    return SweepRow(
        mag_norm_inf=max(r.mag_norm_inf for r in rows),
        mag_norm_two=max(r.mag_norm_two for r in rows),
        phase_norm_inf=max(r.phase_norm_inf for r in rows),
        phase_norm_two=max(r.phase_norm_two for r in rows),
    )
