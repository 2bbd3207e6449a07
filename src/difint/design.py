"""Designers for rational approximants of the fractional operators s**(-alpha)
and s**alpha on a frequency band.

Methods 1..4 build piecewise models that switch structure at alpha = 0.5
(an explicit 1/s factor joins the chain for alpha > 0.5) and whose
differentiators are exact data-level reciprocals, so the composition laws

    I(alpha) * I(1 - alpha) = 1/s,   D(alpha) * I(alpha) = 1,
    D(alpha) * D(1 - alpha) = s

hold structurally.  Methods 1 and 2 place the factor corners from two-point
boundary conditions (method 1 anchors the crossing points to the band edges,
method 2 anchors the corner frequencies).  Methods 3 and 4 place them from a
single boundary point plus a vertical dB offset ``epsilon`` that must lie in
a half-open admissible interval; at a special offset they collapse onto
methods 1 and 2.

Methods 5..7 are classic single-band recursive designs kept for benchmark
comparisons.  They hard-code their multiplicity (1, 2 and 1 respectively)
and, except for method 7's differentiator, are not mutual reciprocals.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

from .errors import DomainError, EpsilonRangeError
from .factored import FactoredModel, reciprocal

__all__ = [
    "Branch",
    "DesignSpec",
    "DesignedPair",
    "design_integrator",
    "design_pair",
    "epsilon_bounds",
    "special_epsilon",
]


def is_count(value) -> bool:
    """Whether ``value`` is an integer (numpy integers included) and not a
    bool, which Python would otherwise treat as 0 or 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Branch(enum.Enum):
    """Which side of the alpha = 0.5 structure switch a design sits on."""

    LOW_ORDER = "low"  # 0 < alpha <= 0.5: biproper factor chain
    HIGH_ORDER = "high"  # 0.5 < alpha < 1: 1/s times a factor chain


@dataclass(frozen=True)
class DesignSpec:
    """Complete input to a designer.

    ``kappa`` selects the method (1..4 piecewise designs, 5..7 benchmark
    baselines).  ``epsilon`` (dB) is consumed by methods 3 and 4 only and
    must lie in the interval returned by :func:`epsilon_bounds`.
    """

    kappa: int
    alpha: float
    omega_l: float = 1e-3
    omega_h: float = 1e3
    n: int = 10
    k: int = 2
    epsilon: float | None = None

    def __post_init__(self):
        if self.kappa not in (1, 2, 3, 4, 5, 6, 7):
            raise DomainError(f"method index must be 1..7, got {self.kappa!r}")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise DomainError(f"order must lie strictly in (0, 1), got {self.alpha!r}")
        if not (0.0 < self.omega_l < self.omega_h and math.isfinite(self.omega_h)):
            raise DomainError(
                f"band must satisfy 0 < omega_l < omega_h, got "
                f"[{self.omega_l!r}, {self.omega_h!r}]"
            )
        for name in ("n", "k"):
            value = getattr(self, name)
            if not is_count(value) or value < 1:
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))

    def resolved(self) -> "DesignSpec":
        """This spec with the special offset filled in for methods 3 and 4
        when ``epsilon`` is omitted (see :func:`special_epsilon`), or the
        spec itself otherwise."""
        if self.kappa in (3, 4) and self.epsilon is None:
            return replace(self, epsilon=special_epsilon(self))
        return self

    @property
    def omega_m(self) -> float:
        """Geometric band center, the gain-matching frequency."""
        return math.sqrt(self.omega_l * self.omega_h)

    @property
    def nu(self) -> float:
        """Order folded onto (0, 0.5]: nu = 0.5 - |alpha - 0.5|."""
        return 0.5 - abs(self.alpha - 0.5)

    @property
    def branch(self) -> Branch:
        return Branch.LOW_ORDER if self.alpha <= 0.5 else Branch.HIGH_ORDER

    @property
    def effective_k(self) -> int:
        """Multiplicity actually used: methods 5 and 7 hard-code 1, method 6
        hard-codes 2, everything else honors ``k``."""
        if self.kappa in (5, 7):
            return 1
        if self.kappa == 6:
            return 2
        return self.k


@dataclass(frozen=True)
class DesignedPair:
    """An integrator approximant and its companion differentiator."""

    integrator: FactoredModel
    differentiator: FactoredModel
    spec: DesignSpec
    branch: Branch


def epsilon_bounds(spec: DesignSpec) -> tuple[float, float]:
    """Admissible ``(lower, upper]`` interval for the ripple offset (dB).

    Only methods 3 and 4 take an offset; anything else is a usage error.
    """
    if spec.kappa not in (3, 4):
        raise ValueError(f"epsilon bounds only apply to methods 3 and 4, not {spec.kappa}")
    nu, k, n = spec.nu, spec.effective_k, spec.n
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
    if spec.kappa not in (3, 4):
        raise ValueError(f"special epsilon only applies to methods 3 and 4, not {spec.kappa}")
    nu, k, n = spec.nu, spec.effective_k, spec.n
    decades = math.log10(spec.omega_h / spec.omega_l)
    if spec.kappa == 3:
        return 10.0 * nu * (k - nu) / (k * n) * decades
    return 10.0 * nu * (k - nu) / (k * n - k + nu) * decades


# The inclusive upper end gets an ulp-scale allowance: nu(alpha) and
# nu(1 - alpha) differ in their last bits, so an offset computed at one order
# must stay admissible at the complement order.  The lower end is exclusive
# and stays exact.
_EPSILON_SLACK = 1e-12


def _checked_epsilon(spec: DesignSpec) -> float:
    lower, upper = epsilon_bounds(spec)
    eps = spec.epsilon
    # Written as "not inside" so that a NaN offset, which fails every
    # comparison, is rejected too.
    if eps is None or not lower < eps <= upper * (1.0 + _EPSILON_SLACK):
        raise EpsilonRangeError(eps, lower, upper)
    return eps


def _matched_gain(zeros, poles, k: int, omega_m: float, power: float) -> float:
    """Gain that pins the model magnitude to omega_m**power at the band center."""
    gain = omega_m**power
    for z, p in zip(zeros, poles):
        gain *= (math.hypot(omega_m, p) / math.hypot(omega_m, z)) ** k
    return gain


def _grid_exponent_pairs(spec: DesignSpec):
    """Zero/pole corner frequencies for methods 1..4 on the active branch.

    Returns ``(zeros, poles)``.  On the low branch the pole of each pair
    leads its zero; on the high branch the ordering flips, which is exactly
    what makes the order-(1-alpha) design the structural complement of the
    order-alpha one.
    """
    alpha, k, n = spec.alpha, spec.effective_k, spec.n
    wl = spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    high = spec.branch is Branch.HIGH_ORDER
    idx = range(1, n + 1)

    if spec.kappa == 1:
        if not high:
            poles = [wl * ratio ** ((2 * i - 1 - alpha / k) / (2 * n)) for i in idx]
            zeros = [wl * ratio ** ((2 * i - 1 + alpha / k) / (2 * n)) for i in idx]
        else:
            poles = [wl * ratio ** ((2 * i - 1 + (1 - alpha) / k) / (2 * n)) for i in idx]
            zeros = [wl * ratio ** ((2 * i - 1 - (1 - alpha) / k) / (2 * n)) for i in idx]
    elif spec.kappa == 2:
        if not high:
            den = n - 1 + alpha / k
            poles = [wl * ratio ** ((i - 1) / den) for i in idx]
            zeros = [wl * ratio ** ((i - 1 + alpha / k) / den) for i in idx]
        else:
            den = n - 1 + (1 - alpha) / k
            poles = [wl * ratio ** ((i - 1 + (1 - alpha) / k) / den) for i in idx]
            zeros = [wl * ratio ** ((i - 1) / den) for i in idx]
    elif spec.kappa == 3:
        eps = _checked_epsilon(spec)
        if not high:
            den = 20.0 * alpha * (k - alpha)
            poles = [wl * 10.0 ** (eps * (2 * k * i - k - alpha) / den) for i in idx]
            zeros = [wl * 10.0 ** (eps * (2 * k * i - k + alpha) / den) for i in idx]
        else:
            den = 20.0 * (1 - alpha) * (k - 1 + alpha)
            poles = [wl * 10.0 ** (eps * (2 * k * i - k + 1 - alpha) / den) for i in idx]
            zeros = [wl * 10.0 ** (eps * (2 * k * i - k - 1 + alpha) / den) for i in idx]
    elif spec.kappa == 4:
        eps = _checked_epsilon(spec)
        if not high:
            den = 10.0 * alpha * (k - alpha)
            poles = [wl * 10.0 ** (eps * (k * i - k) / den) for i in idx]
            zeros = [wl * 10.0 ** (eps * (k * i - k + alpha) / den) for i in idx]
        else:
            den = 10.0 * (1 - alpha) * (k - 1 + alpha)
            poles = [wl * 10.0 ** (eps * (k * i - k + 1 - alpha) / den) for i in idx]
            zeros = [wl * 10.0 ** (eps * (k * i - k) / den) for i in idx]
    else:  # pragma: no cover - guarded by callers
        raise DomainError(f"not a piecewise method: {spec.kappa}")
    return zeros, poles


def _piecewise_integrator(spec: DesignSpec) -> FactoredModel:
    zeros, poles = _grid_exponent_pairs(spec)
    k = spec.effective_k
    if spec.branch is Branch.LOW_ORDER:
        gain = _matched_gain(zeros, poles, k, spec.omega_m, -spec.alpha)
        s_exponent = 0
    else:
        gain = _matched_gain(zeros, poles, k, spec.omega_m, 1.0 - spec.alpha)
        s_exponent = -1
    return FactoredModel(gain, s_exponent, k, tuple(zip(zeros, poles)))


def _baseline5_integrator(spec: DesignSpec) -> FactoredModel:
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    poles = [wl * ratio ** ((i - alpha) / (n - alpha)) for i in range(1, n + 1)]
    zeros = [wl * ratio ** ((i - 1) / (n - alpha)) for i in range(1, n + 1)]
    # Original gain, with the evaluation point generalized from 1 rad/s to
    # the band center (identical whenever omega_l * omega_h = 1).
    gain = 1.0
    for z, p in zip(zeros, poles):
        gain *= math.hypot(spec.omega_m, p) / math.hypot(spec.omega_m, z)
    return FactoredModel(gain, -1, 1, tuple(zip(zeros, poles)))


def _baseline5_differentiator(spec: DesignSpec) -> FactoredModel:
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    poles = [wl * ratio ** ((2 * i - 1 + alpha) / (2 * n)) for i in range(1, n + 1)]
    zeros = [wl * ratio ** ((2 * i - 1 - alpha) / (2 * n)) for i in range(1, n + 1)]
    return FactoredModel(spec.omega_h**alpha, 0, 1, tuple(zip(zeros, poles)))


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


def _baseline7_integrator(spec: DesignSpec, literal_gain: bool) -> FactoredModel:
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    poles = [wl * ratio ** ((2 * i - 1 - alpha) / (2 * n)) for i in range(1, n + 1)]
    zeros = [wl * ratio ** ((2 * i - 1 + alpha) / (2 * n)) for i in range(1, n + 1)]
    if literal_gain:
        # The method's original normalization.  It points the wrong way
        # around (the model magnitude misses the target by the squared factor
        # product at 1 rad/s); kept only for side-by-side study.
        gain = 1.0
        for z, p in zip(zeros, poles):
            gain *= math.hypot(1.0, z) / math.hypot(1.0, p)
    else:
        gain = _matched_gain(zeros, poles, 1, spec.omega_m, -alpha)
    return FactoredModel(gain, 0, 1, tuple(zip(zeros, poles)))


def design_integrator(spec: DesignSpec, *, literal_case7_gain: bool = False) -> FactoredModel:
    """Build the integrator approximant of s**(-alpha) for ``spec``.

    Methods 1..4 land on the low branch (biproper chain) for alpha <= 0.5
    and on the high branch (1/s times a chain) above; both branches pin the
    magnitude at the band center to omega_m**(-alpha).

    ``literal_case7_gain`` switches method 7 to its original gain formula
    instead of the center-matched correction used by default.
    """
    if spec.kappa in (1, 2, 3, 4):
        return _piecewise_integrator(spec)
    if spec.kappa == 5:
        return _baseline5_integrator(spec)
    if spec.kappa == 6:
        return _baseline6_integrator(spec)
    return _baseline7_integrator(spec, literal_case7_gain)


def design_pair(spec: DesignSpec, *, literal_case7_gain: bool = False) -> DesignedPair:
    """Build the integrator/differentiator pair for ``spec``.

    Methods 1..4 and 7 define the differentiator as the exact data-level
    reciprocal of the integrator.  Methods 5 and 6 carry independently
    parameterized differentiators, which is precisely why they break the
    composition laws.
    """
    integrator = design_integrator(spec, literal_case7_gain=literal_case7_gain)
    if spec.kappa == 5:
        differentiator = _baseline5_differentiator(spec)
    elif spec.kappa == 6:
        differentiator = _baseline6_differentiator(spec)
    else:
        differentiator = reciprocal(integrator)
    return DesignedPair(integrator, differentiator, spec, spec.branch)
