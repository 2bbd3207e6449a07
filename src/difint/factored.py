"""Factored zero-pole-gain models with repeated first-order sections.

Every transfer function handled by this package has the shape

    gain * s**s_exponent * prod_i ((s + zeros[i]) / (s + poles[i]))**multiplicity

with a positive gain, a net s power restricted to {-1, 0, +1} and every
critical frequency on the open negative real axis.  Keeping the factored
form (instead of expanded polynomials) is what makes exact composition,
cancellation and reciprocal possible on 20+ section models.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "DEFAULT_CANCEL_TOL",
    "FactoredModel",
    "frequency_response",
    "log_response",
    "multiply_and_simplify",
    "reciprocal",
]

# Designed compositions cancel exactly in closed form; floating-point noise
# on the same closed form sits near 1e-15 relative, so 1e-9 separates true
# cancellations from near-misses by six orders of magnitude.
DEFAULT_CANCEL_TOL = 1e-9


def is_count(value) -> bool:
    """Whether ``value`` is an integer (numpy integers included) and not a
    bool, which Python would otherwise treat as 0 or 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FactoredModel:
    """Immutable factored rational model.

    ``factors`` is an ordered sequence of ``(zero, pole)`` pairs, each pair
    meaning ``((s + zero) / (s + pole)) ** multiplicity``.
    """

    gain: float
    s_exponent: int = 0
    multiplicity: int = 1
    factors: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        gain = float(self.gain)
        if not (math.isfinite(gain) and gain > 0.0):
            raise DomainError(f"gain must be finite and positive, got {self.gain!r}")
        if not is_count(self.s_exponent) or self.s_exponent not in (-1, 0, 1):
            raise ShapeError(f"s exponent must be an integer -1, 0 or +1, got {self.s_exponent!r}")
        if not is_count(self.multiplicity) or self.multiplicity < 1:
            raise DomainError(f"multiplicity must be an integer >= 1, got {self.multiplicity!r}")
        factors = tuple((float(z), float(p)) for z, p in self.factors)
        for z, p in factors:
            if not (math.isfinite(z) and z > 0.0 and math.isfinite(p) and p > 0.0):
                raise DomainError(f"zero/pole values must be finite and > 0, got {(z, p)}")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "s_exponent", int(self.s_exponent))
        object.__setattr__(self, "multiplicity", int(self.multiplicity))
        object.__setattr__(self, "factors", factors)

    @property
    def zeros(self) -> tuple[float, ...]:
        return tuple(z for z, _ in self.factors)

    @property
    def poles(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.factors)


def checked_omegas(omegas) -> np.ndarray:
    """``omegas`` as a float array, all of whose frequencies must be finite
    and > 0."""
    w = np.asarray(omegas, dtype=float)
    if not np.all((w > 0.0) & (w < math.inf)):
        raise DomainError("all frequencies must be finite and > 0")
    return w


# Frequencies and corners whose squares, and sums of two squares, stay
# normal floats: log_response squares them inside this range and takes
# hypot outside it.  A factor's quotient of two such sums lies between 1
# and (z/p)**2, so its corners must also lie within the range's upper
# bound of each other.
_SQUARED_RANGE = (1e-150, 1e150)


# A factor's quotient hypot(w, z) / hypot(w, p) lies between 1 and z/p, so
# it stays a normal float while its corners lie within this ratio of each
# other, well inside 1 / sys.float_info.min (~4.5e307).
_QUOTIENT_RANGE = 1e300


def _squares_in_range(w: np.ndarray, factors) -> bool:
    lo, hi = _SQUARED_RANGE
    if w.size and not lo <= w.min() <= w.max() <= hi:
        return False
    return all(lo <= z <= hi and lo <= p <= hi and z <= p * hi and p <= z * hi
               for z, p in factors)


def log_response(model: FactoredModel, omegas) -> tuple[np.ndarray, np.ndarray]:
    """``(magnitude_db, phase_deg)`` of ``model`` over an array of
    frequencies, summed from per-factor log magnitudes and arguments in
    fixed factor order, so long chains never wrap the phase.  Where a
    frequency or corner lies outside ``_SQUARED_RANGE``, or a factor's
    corners lie more than its upper bound apart, each factor's log
    magnitude is the ``log10`` of the quotient of two ``hypot`` terms,
    which neither overflows nor underflows; only a factor whose corners lie
    more than ``_QUOTIENT_RANGE`` apart takes the difference of the two
    terms' logs instead, which loses digits to cancellation.  Where a
    frequency or corner exceeds 4e307, both hypot routes take their terms
    of all of them scaled by 0.25, so that none overflows up to the float
    maximum."""
    w = checked_omegas(omegas)
    k = model.multiplicity
    term, other = np.empty(w.shape), np.empty(w.shape)
    mag_db = np.full(w.shape, 20.0 * math.log10(model.gain))
    phase = np.zeros(w.shape)
    if model.s_exponent:
        mag_db = mag_db + 20.0 * model.s_exponent * np.log10(w)
        phase = phase + model.s_exponent * (math.pi / 2.0)
    w2 = w * w if _squares_in_range(w, model.factors) else None
    # A hypot of two terms of ~1.3e308 or more overflows; scaling by a power
    # of two leaves each quotient of two normal hypot terms unchanged.
    top = w2 is None and max((w.max(initial=0.0), *model.zeros, *model.poles)) > 4e307
    hw, scale = (w * 0.25, 0.25) if top else (w, 1.0)
    for z, p in model.factors:
        if w2 is not None:
            np.add(w2, z * z, out=term)
            np.add(w2, p * p, out=other)
            term /= other
            np.log10(term, out=term)
            term *= 10.0 * k
        elif p <= z * _QUOTIENT_RANGE and z <= p * _QUOTIENT_RANGE:
            np.hypot(hw, z * scale, out=term)
            term /= np.hypot(hw, p * scale, out=other)
            np.log10(term, out=term)
            term *= 20.0 * k
        else:
            np.log10(np.hypot(hw, z * scale, out=term), out=term)
            np.log10(np.hypot(hw, p * scale, out=other), out=other)
            term -= other
            term *= 20.0 * k
        mag_db += term
        np.arctan2(w, z, out=term)
        np.arctan2(w, p, out=other)
        term -= other
        term *= k
        phase += term
    return mag_db, np.degrees(phase)


def frequency_response(model: FactoredModel, omegas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized response over an array of frequencies.

    Returns ``(values, magnitude_db, phase_deg)`` arrays: the last two from
    :func:`log_response`, and the complex values rebuilt from them, which
    stay finite wherever the model value is.  Callers that read only
    magnitude and phase should call :func:`log_response` directly.
    """
    mag_db, phase_deg = log_response(model, omegas)
    return complex_from_log(mag_db, phase_deg), mag_db, phase_deg


def complex_from_log(mag_db, phase_deg) -> np.ndarray:
    """Complex values of the given magnitudes (dB) and phases (degrees)."""
    return 10.0 ** (mag_db / 20.0) * np.exp(1j * np.radians(phase_deg))


def reciprocal(model: FactoredModel) -> FactoredModel:
    """Invert a model: 1/gain, negated s power, swapped zero/pole pairs."""
    return FactoredModel(
        gain=1.0 / model.gain,
        s_exponent=-model.s_exponent,
        multiplicity=model.multiplicity,
        factors=tuple((p, z) for z, p in model.factors),
    )


def _greedy_match(zeros, poles, rel_tol):
    """Match zeros against poles by nearest relative gap.

    The gap is ``|z - p| / max(z, p)``.  Candidates within ``rel_tol`` are
    taken closest first; ties fall to the smaller zero index, then the
    smaller pole index.  Returns the sets of matched indices on either side.
    """
    z = np.asarray(zeros, dtype=float)[:, None]
    p = np.asarray(poles, dtype=float)[None, :]
    gaps = np.abs(z - p) / np.maximum(z, p)
    iz, ip = np.nonzero(gaps <= rel_tol)
    order = np.lexsort((ip, iz, gaps[iz, ip]))
    matched_z: set[int] = set()
    matched_p: set[int] = set()
    for i, j in zip(iz[order].tolist(), ip[order].tolist()):
        if i not in matched_z and j not in matched_p:
            matched_z.add(i)
            matched_p.add(j)
    return matched_z, matched_p


def multiply_and_simplify(a: FactoredModel, b: FactoredModel) -> FactoredModel:
    """Multiply two models and cancel matching zero/pole pairs.

    Gains multiply and s powers add; a zero of one operand cancels a pole of
    the other when their relative gap ``|z - p| / max(z, p)`` is within
    ``DEFAULT_CANCEL_TOL``.  Because both operands must carry the same
    multiplicity, a cancellation removes the full repeated factor on both
    sides.  Surviving zeros and poles are re-paired in ascending order.

    Raises ``ShapeError`` when the multiplicities differ or the net s power
    leaves {-1, 0, +1}; an out-of-range s power is how a failed composition
    law shows up structurally, so it is deliberately not generalized away.
    Raises ``DomainError`` when the product of the gains underflows to 0 or
    overflows.
    """
    if a.multiplicity != b.multiplicity:
        raise ShapeError(
            f"factor multiplicities differ: {a.multiplicity} vs {b.multiplicity}"
        )
    s_exponent = a.s_exponent + b.s_exponent
    if s_exponent not in (-1, 0, 1):
        raise ShapeError(f"net s power {s_exponent} is outside {{-1, 0, +1}}")
    gain = a.gain * b.gain
    if not 0.0 < gain < math.inf:
        raise DomainError(f"the product's gain {a.gain!r} * {b.gain!r} cannot be represented")

    za, pa = list(a.zeros), list(a.poles)
    zb, pb = list(b.zeros), list(b.poles)
    za_used, pb_used = _greedy_match(za, pb, DEFAULT_CANCEL_TOL)
    zb_used, pa_used = _greedy_match(zb, pa, DEFAULT_CANCEL_TOL)

    zeros = sorted(
        [z for i, z in enumerate(za) if i not in za_used]
        + [z for i, z in enumerate(zb) if i not in zb_used]
    )
    poles = sorted(
        [p for i, p in enumerate(pa) if i not in pa_used]
        + [p for i, p in enumerate(pb) if i not in pb_used]
    )
    return FactoredModel(
        gain=gain,
        s_exponent=s_exponent,
        multiplicity=a.multiplicity,
        factors=tuple(zip(zeros, poles)),
    )
