"""Designers for rational approximants of the fractional operators s**(-alpha)
and s**alpha on a frequency band.

Methods 1..4 build piecewise models that switch structure at alpha = 0.5.
The high branch (alpha > 0.5) is the low branch of the complement order
1 - alpha with zeros and poles swapped, times an explicit 1/s, so
I(alpha) * I(1 - alpha) = 1/s holds by construction.  Differentiators are
exact data-level reciprocals, so the other two composition laws

    D(alpha) * I(alpha) = 1,   D(alpha) * D(1 - alpha) = s

hold structurally too.

Methods 1 and 2 place the factor corners from two-point boundary
conditions (method 1 anchors the crossing points to the band edges, method 2
anchors the corner frequencies).  Methods 3 and 4 place them from a single
boundary point plus a vertical dB offset ``epsilon`` that must lie in a
half-open admissible interval; at a special offset they collapse onto
methods 1 and 2.

Methods 5..7 are classic single-band recursive designs kept for benchmark
comparisons.  They hard-code their multiplicity (1, 2 and 1 respectively)
and, except for method 7's differentiator, are not mutual reciprocals.
Method 7's integrator and method 5's differentiator (zeros and poles
swapped) sit on method 1's low-branch grid at k = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import DomainError, EpsilonRangeError
from .factored import FactoredModel, is_count, reciprocal

__all__ = [
    "METHODS",
    "OFFSET_METHODS",
    "DesignSpec",
    "DesignedPair",
    "design_integrator",
    "design_pair",
    "epsilon_bounds",
    "special_epsilon",
]

# The methods that place their corners from a ripple offset; no other
# method takes one.
OFFSET_METHODS = (3, 4)

# Settings of the other modules that the command-line parser reads.  They
# are declared here, in a module every command loads, and the modules that
# use them import them from here.
INTEGRATOR = "integrator"  # the two kinds of frequency.exact_response
DIFFERENTIATOR = "differentiator"
SWEEP_COUNT = 10000  # grid points of a frequency.sweep_table order
CONDITIONS = ("i", "ii", "iii")  # the composition laws of law_operands and check_identity
# The identity experiments of discrete.identity_experiment, named after the
# signals of laws "i", "ii" and "iii" in that order, and their default
# sample period and horizon (s).
EXPERIMENTS = ("x", "y", "z")
SAMPLE_PERIOD = 0.001
DURATION = 10.0


def check_band(omega_l: float, omega_h: float) -> None:
    """Reject a band unless ``0 < omega_l < omega_h``, ``omega_h`` is finite
    and so is ``omega_h / omega_l``, on whose powers every corner and grid
    point is placed, and ``omega_l`` is a normal float: a subnormal edge
    carries fewer significant digits than the band it names."""
    if not (0.0 < omega_l < omega_h and math.isfinite(omega_h)):
        raise DomainError(
            f"band must satisfy 0 < omega_l < omega_h, got [{omega_l!r}, {omega_h!r}]"
        )
    if not math.isfinite(omega_h / omega_l):
        raise DomainError(
            f"band ratio omega_h / omega_l must be finite, got [{omega_l!r}, {omega_h!r}]"
        )
    if omega_l < sys.float_info.min:
        raise DomainError(
            f"band edge omega_l must be at least {sys.float_info.min!r} "
            f"(the smallest normal float), got {omega_l!r}"
        )


# Both ends get an ulp-scale allowance: nu(alpha) and nu(1 - alpha) differ
# in their last bits, so an offset admissible at one order must stay
# admissible at the complement order, which the composition laws design.
# The exclusive lower end moves down by it, the inclusive upper end up.
_EPSILON_SLACK = 1e-12


@dataclass(frozen=True)
class DesignSpec:
    """Complete input to a designer.

    ``kappa`` selects the method (1..4 piecewise designs, 5..7 benchmark
    baselines).  ``epsilon`` (dB) is taken by the ``OFFSET_METHODS`` 3 and
    4 only, and an offset on any other method is a :class:`DomainError`.
    An omitted offset of method 3 or 4 is the special one of
    :func:`special_epsilon`, filled in at construction, and the offset must
    lie in the interval returned by :func:`epsilon_bounds`, which
    construction checks: :class:`EpsilonRangeError`.  The band, ``n``
    and ``k`` default to the reference setting of the benchmark tables,
    which the sweeps, the law matrix and the command line read from here.
    """

    kappa: int
    alpha: float
    omega_l: float = 1e-3
    omega_h: float = 1e3
    n: int = 10
    k: int = 2
    epsilon: float | None = None

    def __post_init__(self):
        if not is_count(self.kappa) or self.kappa not in METHODS:
            raise DomainError(f"method index must be {METHODS[0]}..{METHODS[-1]}, "
                              f"got {self.kappa!r}")
        if self.epsilon is not None and self.kappa not in OFFSET_METHODS:
            raise DomainError(f"method {self.kappa} does not take a ripple offset")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise DomainError(f"order must lie strictly in (0, 1), got {self.alpha!r}")
        check_band(self.omega_l, self.omega_h)
        for name in ("n", "k"):
            value = getattr(self, name)
            if not is_count(value) or value < 1:
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        if self.kappa in OFFSET_METHODS:
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", special_epsilon(self))
            lower, upper = epsilon_bounds(self)
            # Written as "not inside" so that a NaN offset, which fails every
            # comparison, is rejected too.
            if not lower * (1.0 - _EPSILON_SLACK) < self.epsilon <= upper * (1.0 + _EPSILON_SLACK):
                raise EpsilonRangeError(self.epsilon, lower, upper)

    def complement(self) -> "DesignSpec":
        """This spec at the complement order ``1 - alpha``; every other
        field, the offset included, is kept.  Up to alpha = 2**-54 (~5.6e-17)
        ``1 - alpha`` rounds to 1.0, which is no order: :class:`DomainError`."""
        if 1.0 - self.alpha == 1.0:
            raise DomainError(f"order {self.alpha!r} has no complement order: 1 - alpha "
                              f"rounds to 1.0")
        return replace(self, alpha=1.0 - self.alpha)

    @property
    def omega_m(self) -> float:
        """Geometric band center, the gain-matching frequency.

        The product of the band edges underflows below a center of about
        1e-154 and overflows above about 1e154; there the center is taken
        as the product of the edges' square roots instead.
        """
        product = self.omega_l * self.omega_h
        if sys.float_info.min <= product <= sys.float_info.max:
            return math.sqrt(product)
        return math.sqrt(self.omega_l) * math.sqrt(self.omega_h)

    @property
    def nu(self) -> float:
        """Order folded onto (0, 0.5]: alpha itself up to 0.5, else 1 - alpha.

        Both are exact, so a tiny order keeps all its digits.
        """
        return self.alpha if self.alpha <= 0.5 else 1.0 - self.alpha

    @property
    def branch(self) -> str:
        """Which side of the alpha = 0.5 structure switch the design sits
        on: ``"low"`` up to 0.5, a biproper factor chain, and ``"high"``
        above, 1/s times a factor chain."""
        return "low" if self.alpha <= 0.5 else "high"


class DesignedPair(NamedTuple):
    """An integrator approximant and its companion differentiator."""

    integrator: FactoredModel
    differentiator: FactoredModel


def epsilon_bounds(spec: DesignSpec) -> tuple[float, float]:
    """Nominal ``(lower, upper]`` interval for the ripple offset (dB).

    A spec's check widens both ends by the relative ``_EPSILON_SLACK``, so
    ``lower`` itself is admitted and only offsets at or below
    ``lower * (1 - 1e-12)`` or above ``upper * (1 + 1e-12)`` are rejected.
    Only methods 3 and 4 take an offset; anything else is a usage error.
    """
    if spec.kappa not in OFFSET_METHODS:
        raise ValueError(f"epsilon bounds only apply to methods 3 and 4, not {spec.kappa}")
    nu, k, n = spec.nu, spec.k, spec.n
    decades = math.log10(spec.omega_h / spec.omega_l)
    if spec.kappa == 3:
        lower = 20.0 * nu * (k - nu) / (2 * k * n + k + nu) * decades
        upper = 20.0 * nu * (k - nu) / (2 * k * n - k + nu) * decades
    else:
        lower = 10.0 * nu * (k - nu) / (k * n + nu) * decades
        upper = 10.0 * nu * (k - nu) / (k * n - k + nu) * decades
    return lower, upper


def special_epsilon(spec: DesignSpec) -> float:
    """Offset at which method 3 collapses onto method 1 (the right crossing
    point lands on the band edge) and method 4 onto method 2 (equal to the
    upper admissibility bound)."""
    if spec.kappa not in OFFSET_METHODS:
        raise ValueError(f"special epsilon only applies to methods 3 and 4, not {spec.kappa}")
    if spec.kappa == 4:
        return epsilon_bounds(spec)[1]
    nu, k, n = spec.nu, spec.k, spec.n
    return 10.0 * nu * (k - nu) / (k * n) * math.log10(spec.omega_h / spec.omega_l)


def _matched_gain(zeros, poles, k: int, omega_m: float, power: float) -> float:
    """Gain that pins the model magnitude to omega_m**power at the band center.

    Raises :class:`DomainError` when the gain, or its reciprocal, which is
    the gain of the differentiator of methods 1..4 and 7, is 0 or not
    finite.
    """
    gain = omega_m**power
    for z, p in zip(zeros, poles):
        try:
            gain *= (math.hypot(omega_m, p) / math.hypot(omega_m, z)) ** k
        except OverflowError:
            raise DomainError(
                f"matched gain cannot be represented: a band-center factor ratio "
                f"to the power k={k} overflows"
            ) from None
    if not (0.0 < gain < math.inf and 1.0 / gain < math.inf):
        raise DomainError(
            f"matched gain cannot be represented: at k={k} the gain or its reciprocal "
            f"leaves the float range"
        )
    return gain


def _low_branch_corners(spec: DesignSpec, kappa: int, k: int):
    """Zero/pole corner frequencies of method ``kappa``'s low branch at
    multiplicity ``k``, as ``(zeros, poles)``; the pole of each pair leads
    its zero.

    Methods 3 and 4 read ``spec.epsilon``, which the spec checked when it
    was built.
    Method 1 at k = 1 is the single-band grid of Oustaloup et al. (IEEE
    TCAS-I 47(1), 2000) that the baselines 5 and 7 use at any order.
    """
    alpha, n = spec.alpha, spec.n
    wl = spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    idx = range(1, n + 1)
    if kappa == 1:
        poles = [wl * ratio ** ((2 * i - 1 - alpha / k) / (2 * n)) for i in idx]
        zeros = [wl * ratio ** ((2 * i - 1 + alpha / k) / (2 * n)) for i in idx]
    elif kappa == 2:
        den = n - 1 + alpha / k
        poles = [wl * ratio ** ((i - 1) / den) for i in idx]
        zeros = [wl * ratio ** ((i - 1 + alpha / k) / den) for i in idx]
    elif kappa == 3:
        eps, den = spec.epsilon, 20.0 * alpha * (k - alpha)
        poles = [wl * 10.0 ** (eps * (2 * k * i - k - alpha) / den) for i in idx]
        zeros = [wl * 10.0 ** (eps * (2 * k * i - k + alpha) / den) for i in idx]
    else:
        eps, den = spec.epsilon, 10.0 * alpha * (k - alpha)
        poles = [wl * 10.0 ** (eps * (k * i - k) / den) for i in idx]
        zeros = [wl * 10.0 ** (eps * (k * i - k + alpha) / den) for i in idx]
    return zeros, poles


def _piecewise_integrator(spec: DesignSpec) -> FactoredModel:
    """Methods 1..4.  The high branch is the low branch of
    ``spec.complement()`` with zeros and poles swapped, so
    I(alpha) * I(1 - alpha) cancels to 1/s by construction."""
    k = spec.k
    try:
        if spec.branch == "low":
            zeros, poles = _low_branch_corners(spec, spec.kappa, k)
            power, s_exponent = -spec.alpha, 0
        else:
            poles, zeros = _low_branch_corners(spec.complement(), spec.kappa, k)
            power, s_exponent = 1.0 - spec.alpha, -1
    except OverflowError:  # a power of ten of methods 3 and 4 past the float maximum
        raise DomainError(f"a corner of method {spec.kappa} leaves the float range") from None
    gain = _matched_gain(zeros, poles, k, spec.omega_m, power)
    return FactoredModel(gain, s_exponent, k, tuple(zip(zeros, poles)))


def _baseline5_integrator(spec: DesignSpec) -> FactoredModel:
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    poles = [wl * ratio ** ((i - alpha) / (n - alpha)) for i in range(1, n + 1)]
    zeros = [wl * ratio ** ((i - 1) / (n - alpha)) for i in range(1, n + 1)]
    # Original gain, with the evaluation point generalized from 1 rad/s to
    # the band center (identical whenever omega_l * omega_h = 1).
    gain = _matched_gain(zeros, poles, 1, spec.omega_m, 0.0)
    return FactoredModel(gain, -1, 1, tuple(zip(zeros, poles)))


def _baseline5_differentiator(spec: DesignSpec) -> FactoredModel:
    # Method 1's low-branch grid at k = 1 with zeros and poles swapped.
    poles, zeros = _low_branch_corners(spec, 1, 1)
    return FactoredModel(spec.omega_h**spec.alpha, 0, 1, tuple(zip(zeros, poles)))


def _baseline6_integrator(spec: DesignSpec) -> FactoredModel:
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    poles = [wl * ratio ** ((4 * i - 1 - alpha) / (4 * n)) for i in range(1, n + 1)]
    zeros = [wl * ratio ** ((4 * i - 3 + alpha) / (4 * n)) for i in range(1, n + 1)]
    return FactoredModel(spec.omega_h ** (1.0 - alpha), -1, 2, tuple(zip(zeros, poles)))


def _baseline6_differentiator(spec: DesignSpec) -> FactoredModel:
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    poles = [wl * ratio ** ((4 * i - 2 + alpha) / (4 * n)) for i in range(1, n + 1)]
    zeros = [wl * ratio ** ((4 * i - 2 - alpha) / (4 * n)) for i in range(1, n + 1)]
    return FactoredModel(spec.omega_h**alpha, 0, 2, tuple(zip(zeros, poles)))


def _baseline7_integrator(spec: DesignSpec) -> FactoredModel:
    # Method 1's low-branch grid at k = 1, at any order.
    zeros, poles = _low_branch_corners(spec, 1, 1)
    # Matched at the band center, not the method's original normalization,
    # which misses the target by the squared factor product at 1 rad/s.
    gain = _matched_gain(zeros, poles, 1, spec.omega_m, -spec.alpha)
    return FactoredModel(gain, 0, 1, tuple(zip(zeros, poles)))


# Each method's integrator designer and, for the baselines 5 and 6 only,
# its own differentiator designer; every other differentiator is the exact
# reciprocal of its integrator.  Methods 1..4 share the piecewise designer.
_DESIGNERS = {
    **dict.fromkeys((1, 2, 3, 4), (_piecewise_integrator, None)),
    5: (_baseline5_integrator, _baseline5_differentiator),
    6: (_baseline6_integrator, _baseline6_differentiator),
    7: (_baseline7_integrator, None),
}

# The method indices: 1..4 the piecewise designs, 5..7 the baselines.
METHODS = tuple(_DESIGNERS)


def design_integrator(spec: DesignSpec) -> FactoredModel:
    """Build the integrator approximant of s**(-alpha) for ``spec``.

    Methods 1..4 land on the low branch (biproper chain) for alpha <= 0.5
    and on the high branch (1/s times a chain) above; both branches pin the
    magnitude at the band center to omega_m**(-alpha).
    """
    return _DESIGNERS[spec.kappa][0](spec)


def design_pair(spec: DesignSpec) -> DesignedPair:
    """Build the integrator/differentiator pair for ``spec``.

    Methods 1..4 and 7 define the differentiator as the exact data-level
    reciprocal of the integrator.  Methods 5 and 6 carry independently
    parameterized differentiators, which is precisely why they break the
    composition laws.
    """
    integrator = design_integrator(spec)
    own = _DESIGNERS[spec.kappa][1]
    return DesignedPair(integrator, reciprocal(integrator) if own is None else own(spec))


def law_operands(spec: DesignSpec, conditions) -> list[tuple[FactoredModel, FactoredModel]]:
    """The two operators whose product each law in ``conditions`` is about,
    in the order given.  ``spec`` is designed once, and its complement only
    when law "i" or "iii", which read it, is among ``conditions``."""
    for condition in conditions:
        if condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    pair = design_pair(spec)
    operands = {"ii": (pair.differentiator, pair.integrator)}
    if "i" in conditions or "iii" in conditions:
        complement = design_pair(spec.complement())
        operands["i"] = (pair.integrator, complement.integrator)
        operands["iii"] = (pair.differentiator, complement.differentiator)
    return [operands[condition] for condition in conditions]
