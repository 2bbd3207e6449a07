"""Bilinear discretization and time-domain identity experiments.

Each first-order factor maps through the trapezoidal substitution
s <- (2/h)(q - 1)/(q + 1) to a strictly stable digital section; a net 1/s
becomes a trapezoid accumulator head and a net s a central-difference head
(which needs one sample of analytic input lookahead, so it is an offline
device by construction).

The whole cascade runs as one ``scipy.signal.sosfilt`` pass, with one
second-order row per first-order section.  scipy is imported inside
:func:`simulate_filter`, the only code that needs it, so design, analysis
and realization never pay its import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignSpec, design_pair
from .errors import DomainError, ShapeError
from .factored import FactoredModel, multiply_and_simplify

__all__ = [
    "CENTRAL_DIFFERENCE",
    "DiscreteFilter",
    "FilterSection",
    "PASSTHROUGH",
    "SimulationResult",
    "TRAPEZOID_INTEGRATOR",
    "discretize",
    "identity_experiment",
    "simulate_filter",
]

TRAPEZOID_INTEGRATOR = "trapezoid_integrator"
CENTRAL_DIFFERENCE = "central_difference"
PASSTHROUGH = "passthrough"


@dataclass(frozen=True)
class FilterSection:
    """First-order recurrence y[t] = b0*u[t] + b1*u[t-1] - a1*y[t-1]."""

    b0: float
    b1: float
    a1: float


@dataclass(frozen=True)
class DiscreteFilter:
    sections: tuple[FilterSection, ...]
    head: str | None
    sample_period: float


def discretize(model: FactoredModel, sample_period: float) -> DiscreteFilter:
    """Tustin-map a factored model at sample period ``sample_period``.

    Every real pole p > 0 lands strictly inside the unit circle
    (|a1| < 1), so all factor sections are stable; only the trapezoid
    integrator head is marginally stable, by design.
    """
    if not sample_period > 0.0:
        raise DomainError(f"sample period must be > 0, got {sample_period!r}")
    c = 2.0 / sample_period
    sections: list[FilterSection] = []
    for z, p in model.factors:
        section = FilterSection((c + z) / (c + p), (z - c) / (c + p), (p - c) / (c + p))
        sections.extend([section] * model.multiplicity)

    head = None
    if model.s_exponent == -1:
        head = TRAPEZOID_INTEGRATOR
    elif model.s_exponent == 1:
        head = CENTRAL_DIFFERENCE

    if sections:
        first = sections[0]
        sections[0] = FilterSection(first.b0 * model.gain, first.b1 * model.gain, first.a1)
    elif model.gain != 1.0:
        sections.append(FilterSection(model.gain, 0.0, 0.0))
    elif head is None:
        head = PASSTHROUGH
    return DiscreteFilter(tuple(sections), head, float(sample_period))


def simulate_filter(filt: DiscreteFilter, samples, lookahead: tuple[float, float] | None = None):
    """Run a filter over an input sequence from zero initial conditions.

    ``lookahead`` is the pair of analytic input samples one step before and
    after the sequence; it must be supplied exactly when the filter has a
    central-difference head.
    """
    u = np.asarray(samples, dtype=float)
    h = filt.sample_period
    rows = [[s.b0, s.b1, 0.0, 1.0, s.a1, 0.0] for s in filt.sections]
    if filt.head == CENTRAL_DIFFERENCE:
        if lookahead is None:
            raise ValueError("central-difference head needs (pre, post) lookahead samples")
        pre, post = lookahead
        extended = np.concatenate(([pre], u, [post]))
        u = (extended[2:] - extended[:-2]) / (2.0 * h)
    elif lookahead is not None:
        raise ValueError("lookahead is only meaningful with a central-difference head")
    elif filt.head == TRAPEZOID_INTEGRATOR:
        rows.insert(0, [h / 2.0, h / 2.0, 0.0, 1.0, -1.0, 0.0])
    if not rows:
        return u.copy()
    # With a zero second-order tail each row computes exactly the
    # first-order recurrence; pairing sections into biquads would
    # reassociate it and change results in the last digits.
    from scipy.signal import sosfilt

    return sosfilt(np.array(rows), u)


@dataclass(frozen=True)
class SimulationResult:
    """One identity experiment: sampled signals and unweighted error norms."""

    time: np.ndarray
    input_signal: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    error: np.ndarray
    inf_norm: float
    two_norm: float

    @classmethod
    def from_signals(cls, time, input_signal, exact, approx) -> "SimulationResult":
        error = np.asarray(exact) - np.asarray(approx)
        return cls(
            time=np.asarray(time),
            input_signal=np.asarray(input_signal),
            exact=np.asarray(exact),
            approx=np.asarray(approx),
            error=error,
            inf_norm=float(np.max(np.abs(error))),
            two_norm=float(math.sqrt(np.sum(error * error))),
        )


def _run_composite(first, second, u, h, lookahead, force_cascade):
    """Apply the operator product first*second to ``u``.

    The product is simplified and discretized as one filter whenever its net
    s power is representable (this is what recovers the exact cancellations);
    otherwise, or on request, the operands are discretized separately and
    cascaded, which is the same map because the bilinear substitution is a
    homomorphism on rational functions.  A cascaded operand carrying a bare
    s factor runs first so its lookahead refers to the analytic input.
    """
    if not force_cascade:
        try:
            product = multiply_and_simplify(first, second)
        except ShapeError:
            pass
        else:
            filt = discretize(product, h)
            need = lookahead if filt.head == CENTRAL_DIFFERENCE else None
            return simulate_filter(filt, u, need)
    stages = [second, first]
    stages.sort(key=lambda m: -m.s_exponent)
    y = u
    for stage in stages:
        filt = discretize(stage, h)
        need = lookahead if filt.head == CENTRAL_DIFFERENCE else None
        y = simulate_filter(filt, y, need)
    return y


def identity_experiment(
    kappa: int,
    alpha: float,
    omega_l: float = 1e-3,
    omega_h: float = 1e3,
    n: int = 10,
    k: int = 2,
    epsilon: float | None = None,
    sample_period: float = 0.001,
    duration: float = 10.0,
    cascade: bool = False,
) -> dict[str, SimulationResult]:
    """Simulate the three composition laws on u(t) = sin(t).

    Returns results keyed "x", "y", "z" for

        x = I(alpha) I(1-alpha)[u] -> 1 - cos(t)
        y = D(alpha) I(alpha)[u]   -> sin(t)
        z = D(alpha) D(1-alpha)[u] -> cos(t)

    ``cascade=True`` forces separate discretization of the two operators
    (study mode); the default simplifies the continuous product first.
    Methods 3 and 4 fall back to their special offset when ``epsilon`` is
    omitted.
    """
    if not (sample_period > 0.0 and duration > 0.0):
        raise DomainError("sample period and duration must be > 0")
    spec = DesignSpec(kappa, alpha, omega_l, omega_h, n, k, epsilon).resolved()
    pair = design_pair(spec)
    pair_c = design_pair(spec.complement())

    count = int(round(duration / sample_period)) + 1
    t = np.arange(count) * sample_period
    u = np.sin(t)
    lookahead = (math.sin(-sample_period), math.sin(t[-1] + sample_period))

    experiments = {
        "x": ((pair.integrator, pair_c.integrator), 1.0 - np.cos(t)),
        "y": ((pair.differentiator, pair.integrator), np.sin(t)),
        "z": ((pair.differentiator, pair_c.differentiator), np.cos(t)),
    }
    results = {}
    for name, ((first, second), exact) in experiments.items():
        approx = _run_composite(first, second, u, sample_period, lookahead, cascade)
        results[name] = SimulationResult.from_signals(t, u, exact, approx)
    return results
