"""Bilinear discretization and time-domain identity experiments.

Each first-order factor maps through the trapezoidal substitution
s <- (2/h)(q - 1)/(q + 1) to a strictly stable digital section.  A net 1/s
is the factor 1/(s + p) at p = 0, so it maps the same way, to the trapezoid
accumulator section (h/2, h/2, -1) that leads the cascade.  A net s becomes
a central difference taken before the cascade, which needs one sample of
analytic input lookahead, so it is an offline device by construction.

The cascade runs through scipy's compiled second-order-section loop, with
one row per first-order section, in passes of at most eight rows that each
filter the whole signal in place; no sections is the identity.  Within a
sample the loop chains its sections serially, so short passes keep that
chain short.  Only the loop's extension, ``scipy.signal._sosfilt``, is
loaded, and only when :func:`simulate_filter` first runs: design, analysis
and realization never load scipy, and simulation skips ``scipy.signal``'s
package import, which pulls in ``scipy.stats``, ``interpolate`` and
``optimize`` and costs about a second of every ``simulate`` call.

An identity experiment groups its three laws by the first stage of their
cascades: each group filters that stage over the input once and runs its
laws' remaining stages on the output.  The last group runs on a helper
thread and the others on the calling thread.  The compiled loop and
numpy's array operations release the GIL, so the two threads filter in
parallel.  Each law is computed by exactly the arithmetic of a serial run,
so results are bit-identical to running the laws one after another.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .design import DesignSpec
from .errors import DomainError, ShapeError
from .factored import FactoredModel, multiply_and_simplify
from .identities import CONDITIONS, law_operands

__all__ = [
    "DiscreteFilter",
    "FilterSection",
    "SimulationResult",
    "discretize",
    "identity_experiment",
    "simulate_filter",
]


@dataclass(frozen=True)
class FilterSection:
    """First-order recurrence y[t] = b0*u[t] + b1*u[t-1] - a1*y[t-1]."""

    b0: float
    b1: float
    a1: float


@dataclass(frozen=True)
class DiscreteFilter:
    sections: tuple[FilterSection, ...]
    central_difference: bool
    sample_period: float


def discretize(model: FactoredModel, sample_period: float) -> DiscreteFilter:
    """Tustin-map a factored model at sample period ``sample_period``.

    Every real pole p > 0 lands strictly inside the unit circle
    (|a1| < 1), so all factor sections are stable; only the accumulator
    section of a net 1/s (pole p = 0) is marginally stable, by design.
    The gain folds into the first factor section, or becomes a section of
    its own when there is none.
    """
    if not sample_period > 0.0:
        raise DomainError(f"sample period must be > 0, got {sample_period!r}")
    h = float(sample_period)
    c = 2.0 / sample_period
    sections: list[FilterSection] = []
    for z, p in model.factors:
        section = FilterSection((c + z) / (c + p), (z - c) / (c + p), (p - c) / (c + p))
        sections.extend([section] * model.multiplicity)
    if sections:
        first = sections[0]
        sections[0] = FilterSection(first.b0 * model.gain, first.b1 * model.gain, first.a1)
    elif model.gain != 1.0:
        sections.append(FilterSection(model.gain, 0.0, 0.0))
    if model.s_exponent == -1:
        sections.insert(0, FilterSection(h / 2.0, h / 2.0, -1.0))
    return DiscreteFilter(tuple(sections), model.s_exponent == 1, h)


def simulate_filter(filt: DiscreteFilter, samples, lookahead: tuple[float, float] | None = None):
    """Run a filter over an input sequence from zero initial conditions.

    ``lookahead`` is the pair of analytic input samples one step before and
    after the sequence; it must be supplied exactly when the filter takes a
    central difference.
    """
    u = np.asarray(samples, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"samples must be a 1-D sequence, got shape {u.shape}")
    if filt.central_difference:
        if lookahead is None:
            raise ValueError("central difference needs (pre, post) lookahead samples")
        pre, post = lookahead
        extended = np.concatenate(([pre], u, [post]))
        u = (extended[2:] - extended[:-2]) / (2.0 * filt.sample_period)
    elif lookahead is not None:
        raise ValueError("lookahead is only meaningful with a central difference")
    if not filt.sections:
        return u.copy()
    rows = np.array([[s.b0, s.b1, 0.0, 1.0, s.a1, 0.0] for s in filt.sections])
    # With a zero second-order tail each row computes exactly the
    # first-order recurrence; pairing sections into biquads would
    # reassociate it and change results in the last digits.  The kernel
    # filters y in place from zero state, as scipy.signal.sosfilt calls it
    # for 1-D float64 input, without importing scipy.signal.  Each pass
    # feeds its sections the whole output of the pass before, so every
    # section sees the same input stream in the same order as in one call,
    # and results are bit-identical to scipy.signal.sosfilt.
    kernel = _sosfilt_kernel()
    y = u[np.newaxis].copy()
    for rows_of_pass in np.array_split(rows, -(-len(rows) // _PASS_SECTIONS)):
        kernel(rows_of_pass, y, np.zeros((1, len(rows_of_pass), 2)))
    return y[0]


# Sections per kernel pass, at most.  Within a sample the kernel runs one
# serial multiply-add chain through all the sections of its call, so a long
# call waits on that chain; a short pass leaves the CPU independent samples
# to overlap.  Measured on 50k samples (2-vCPU Xeon, best of 9): one call
# takes 2.2-3.2 ns a section-sample at 24-241 sections, passes of at most
# 8 take 1.6-2.4 ns (241 sections: 38.2 -> 19.1 ms).  The rows are split
# into passes of near-equal size, since a trailing pass of one row loses
# time (9 sections: 0.91 ms in slices of 8, 0.76 ms in passes of 5 and 4).
_PASS_SECTIONS = 8


_SOSFILT = "scipy.signal._sosfilt"
# Two threads loading the extension at once can leave one of them with a
# module that has no ``_sosfilt`` yet, so the load is serialised.
_SOSFILT_LOCK = threading.Lock()


def _sosfilt_kernel():
    """Return scipy's compiled ``_sosfilt(sos, x, zi)`` loop.

    The extension is loaded on first use straight from ``scipy/signal``,
    without running ``scipy/signal/__init__.py``, and registered under its
    own name, so a later ``import scipy.signal`` reuses it (and a
    ``scipy.signal`` imported earlier lends its copy here).
    """
    with _SOSFILT_LOCK:
        module = sys.modules.get(_SOSFILT)
        if module is None:
            scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
            if scipy is None:
                raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
            finder = FileFinder(os.path.join(scipy.submodule_search_locations[0], "signal"),
                                (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(_SOSFILT)
            if spec is None:
                raise ModuleNotFoundError(f"No module named {_SOSFILT!r}", name=_SOSFILT)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_SOSFILT] = module
    return module._sosfilt


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
        """Raises :class:`DomainError` when the filter output is not finite,
        or when the error's 2-norm exceeds the float range."""
        approx = np.asarray(approx)
        if not np.all(np.isfinite(approx)):
            raise DomainError("the simulated output is not finite")
        error = np.asarray(exact) - approx
        inf_norm = float(np.max(np.abs(error)))
        # Far from the simulated frequencies the squares, or their sum,
        # overflow although the norm itself is finite; only then is the
        # error scaled by its largest magnitude first.
        with np.errstate(over="ignore"):
            square_sum = np.sum(error * error)
        if math.isfinite(square_sum):
            two_norm = math.sqrt(square_sum)
        else:
            scaled = error / inf_norm
            two_norm = inf_norm * math.sqrt(np.sum(scaled * scaled))
        if not math.isfinite(two_norm):
            raise DomainError(
                f"the time-domain error 2-norm exceeds the float range "
                f"(largest error {inf_norm!r})"
            )
        return cls(
            time=np.asarray(time),
            input_signal=np.asarray(input_signal),
            exact=np.asarray(exact),
            approx=approx,
            error=error,
            inf_norm=inf_norm,
            two_norm=two_norm,
        )


def _cascade(first, second, force_cascade) -> tuple[FactoredModel, ...]:
    """The stages, in run order, that apply the operator product first*second.

    The product is simplified into one stage whenever its net s power is
    representable (this is what recovers the exact cancellations);
    otherwise, or on request, the operands are discretized separately and
    cascaded, which is the same map because the bilinear substitution is a
    homomorphism on rational functions.  A cascaded operand carrying a bare
    s factor runs first so its lookahead refers to the analytic input.
    """
    if not force_cascade:
        try:
            return (multiply_and_simplify(first, second),)
        except ShapeError:
            pass
    return tuple(sorted([second, first], key=lambda m: -m.s_exponent))


def identity_experiment(
    kappa: int,
    alpha: float,
    omega_l: float = DesignSpec.omega_l,
    omega_h: float = DesignSpec.omega_h,
    n: int = DesignSpec.n,
    k: int = DesignSpec.k,
    epsilon: float | None = None,
    sample_period: float = 0.001,
    duration: float = 10.0,
    cascade: bool = False,
) -> dict[str, SimulationResult]:
    """Simulate the three composition laws on u(t) = sin(t).

    Returns results keyed "x", "y", "z" for laws "i", "ii" and "iii" of
    :func:`difint.identities.law_operands`:

        x = I(alpha) I(1-alpha)[u] -> 1 - cos(t)
        y = D(alpha) I(alpha)[u]   -> sin(t)
        z = D(alpha) D(1-alpha)[u] -> cos(t)

    ``cascade=True`` forces separate discretization of the two operators
    (study mode); the default simplifies the continuous product first.
    """
    if not (sample_period > 0.0 and duration > 0.0):
        raise DomainError("sample period and duration must be > 0")
    # An infinite horizon, or one of too many periods, has no sample count.
    if not (math.isfinite(sample_period) and math.isfinite(duration / sample_period)):
        raise DomainError(
            f"sample period and duration must be finite and span a finite number "
            f"of samples, got {sample_period!r} and {duration!r}"
        )
    spec = DesignSpec(kappa, alpha, omega_l, omega_h, n, k, epsilon)
    operands = law_operands(spec, CONDITIONS)

    count = int(round(duration / sample_period)) + 1
    t = np.arange(count) * sample_period
    u = np.sin(t)
    c = np.cos(t)
    lookahead = (math.sin(-sample_period), math.sin(t[-1] + sample_period))

    exact = (1.0 - c, u, c)
    # Laws whose cascades open with the same stage form a group, which
    # filters that stage over u once and runs each member's remaining
    # stages on its output; a failing shared stage is charged to the
    # group's first law.  The last group runs on a helper thread and the
    # others on the calling thread.
    groups = {}
    for index, (first, second) in enumerate(operands):
        head, *rest = _cascade(first, second, cascade)
        groups.setdefault(head, []).append((index, rest))
    outcomes = [None] * len(exact)

    def run(stage, y):
        filt = discretize(stage, sample_period)
        return simulate_filter(filt, y, lookahead if filt.central_difference else None)

    def run_groups(part):
        try:
            for head, members in part:
                index = members[0][0]
                shared = run(head, u)
                for index, rest in members:
                    y = shared
                    for stage in rest:
                        y = run(stage, y)
                    outcomes[index] = SimulationResult.from_signals(t, u, exact[index], y)
        except Exception as exc:
            # Raised once both threads are done.  An interrupt reaches only
            # the calling thread, and propagates as soon as the helper is
            # joined.
            outcomes[index] = exc

    *mine, last = groups.items()
    helper = threading.Thread(target=run_groups, args=([last],))
    helper.start()
    try:
        run_groups(mine)
    finally:
        helper.join()
    # The earliest failing law in x, y, z order raises, whichever thread ran it.
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return dict(zip(("x", "y", "z"), outcomes))
