"""Summation (partial-fraction) forms and passive RC realizations.

A factored integrator model expands into

    direct + origin_residue/s + sum_i sum_l residues[i][l-1] / (s + pole_i)**l

Every residue ladder comes from the truncated local series of the model
around its pole (the Heaviside rule), for all poles at once as one
(k x poles) array, a column per pole.  Each factor enters a column as its
own local series, scaled by the factor's distance to the pole, so the
arithmetic stays on the scale of the residues instead of expanding
degree-40 polynomials with a 1e15 coefficient spread; at k = 1 the same
steps are the cover-up products.
Coincident poles, or an expansion that still comes out with a non-finite
coefficient, raise ``ConditioningError``.

A summation form whose residues are all simple and positive is the
driving-point impedance of a series chain: a resistor for the direct term, a
capacitor for the 1/s term and one parallel RC section per pole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, NotRealizableError
from .factored import FactoredModel

__all__ = [
    "ParallelRC",
    "PartialFractionForm",
    "PartialFractionTerm",
    "RcNetwork",
    "SeriesCapacitor",
    "SeriesResistor",
    "evaluate_partial_fractions",
    "export_netlist",
    "network_impedance",
    "synthesize_rc",
    "to_partial_fractions",
]

_DISTINCT_POLE_TOL = 1e-12


@dataclass(frozen=True)
class PartialFractionTerm:
    """One pole with its residue ladder: residues[l-1] / (s + pole)**l."""

    pole: float
    residues: tuple[float, ...]


@dataclass(frozen=True)
class PartialFractionForm:
    direct: float
    origin_residue: float  # coefficient of 1/s, 0 when the model has no s pole
    terms: tuple[PartialFractionTerm, ...]


def _check_poles_distinct(poles) -> None:
    ordered = sorted(poles)
    for a, b in zip(ordered, ordered[1:]):
        if (b - a) / max(a, b) <= _DISTINCT_POLE_TOL:
            raise ConditioningError(
                f"poles {a!r} and {b!r} coincide; expansion would be ill conditioned"
            )


def _times_linear(series: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Multiply column r of ``series`` by (a[r] + b[r]*t) in place, truncated."""
    carry = series[:-1] * b
    series *= a
    series[1:] += carry


def _over_linear(series: np.ndarray, b: np.ndarray) -> None:
    """Divide column r of ``series`` by (1 + b[r]*t) in place, truncated."""
    for j in range(1, len(series)):
        series[j] -= b * series[j - 1]


def _residues(model: FactoredModel) -> np.ndarray:
    """Residue ladders of every pole, as a (poles x k) array.

    The local series of pole i is column i of a (k x poles) array: the
    first k coefficients of G(-p_i + t), where G(s) = (s + p_i)**k * H(s).
    It starts as gain * (z_i - p_i + t)**k; each other factor l, k times in
    factor order, multiplies it by (z_l - p_i + t)/(q_l - p_i) and divides
    it by 1 + t/(q_l - p_i), so every step stays on the scale of the
    residues.  A net 1/s divides it by -p_i, then by 1 - t/p_i.  Factor i
    leaves column i as it is (ratio 1, inverse 0), so no step needs a mask.
    The residue of depth l is the coefficient of t**(k-l).  At k = 1 only
    the constant terms remain: the cover-up products
    gain * (z_i - p_i) * prod (z_l - p_i)/(q_l - p_i).
    """
    poles = np.array(model.poles)
    # entry [l, i] belongs to factor l at pole i
    shifts = np.array(model.zeros)[:, None] - poles
    gaps = poles[:, None] - poles
    np.fill_diagonal(gaps, np.inf)
    ratios, inverses = shifts / gaps, 1.0 / gaps
    np.fill_diagonal(ratios, 1.0)
    series = np.zeros((model.multiplicity, len(poles)))
    series[0] = model.gain
    for _ in range(model.multiplicity):
        _times_linear(series, shifts.diagonal(), np.ones_like(poles))
    for ratio, inverse in zip(ratios, inverses):
        for _ in range(model.multiplicity):
            _times_linear(series, ratio, inverse)
            _over_linear(series, inverse)
    if model.s_exponent == -1:
        series /= -poles
        _over_linear(series, -1.0 / poles)
    return series[::-1].T


def to_partial_fractions(model: FactoredModel) -> PartialFractionForm:
    """Expand a factored model into its summation form.

    Requires distinct poles (designed models interlace, so this always
    holds for them) and a net s power of 0 or -1; a differentiator carrying
    a bare s factor has no proper expansion.  Raises ``ConditioningError``
    when any coefficient comes out non-finite (the expansion overflowed).
    """
    if model.s_exponent not in (-1, 0):
        raise DomainError(
            f"summation form needs s_exponent in {{-1, 0}}, got {model.s_exponent}"
        )
    _check_poles_distinct(model.poles)

    direct = model.gain if model.s_exponent == 0 else 0.0
    origin = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if model.s_exponent == -1:
            origin = model.gain
            for z, p in model.factors:
                origin *= np.float64(z / p) ** model.multiplicity
        residues = _residues(model)
    coefficients = np.array([direct, origin, *residues.flat])
    bad = np.count_nonzero(~np.isfinite(coefficients))
    if bad:
        raise ConditioningError(
            f"{bad} of {coefficients.size} expansion coefficients are not finite; "
            "the expansion overflowed"
        )
    terms = tuple(
        PartialFractionTerm(p, tuple(row)) for p, row in zip(model.poles, residues.tolist())
    )
    return PartialFractionForm(direct, float(origin), terms)


def evaluate_partial_fractions(pf: PartialFractionForm, s_values) -> np.ndarray:
    """Evaluate a summation form at complex points (used for round trips)."""
    s = np.asarray(s_values, dtype=complex)
    out = np.full(s.shape, complex(pf.direct))
    if pf.origin_residue:
        out = out + pf.origin_residue / s
    for term in pf.terms:
        base = s + term.pole
        power = base.copy()
        for residue in term.residues:
            out = out + residue / power
            power = power * base
    return out


@dataclass(frozen=True)
class SeriesResistor:
    resistance: float


@dataclass(frozen=True)
class SeriesCapacitor:
    capacitance: float


@dataclass(frozen=True)
class ParallelRC:
    resistance: float
    capacitance: float


@dataclass(frozen=True)
class RcNetwork:
    """Series chain of elements whose driving-point impedance realizes a
    simple-pole summation form."""

    elements: tuple[SeriesResistor | SeriesCapacitor | ParallelRC, ...]


def synthesize_rc(pf: PartialFractionForm) -> RcNetwork:
    """Map a summation form onto a series RC chain.

    r/(s + p) is exactly the impedance of a parallel RC with R = r/p and
    C = 1/r; the direct term is a series resistor and the 1/s term a series
    capacitor.  Requires simple poles and nonnegative direct/origin terms
    with strictly positive residues, i.e. an RC driving-point impedance.
    """
    if any(len(term.residues) != 1 for term in pf.terms):
        raise NotRealizableError(
            "repeated poles have no single-section RC realization (k > 1 not synthesizable)"
        )
    if pf.direct < 0.0 or pf.origin_residue < 0.0:
        raise NotRealizableError(
            f"negative series term (direct={pf.direct!r}, origin={pf.origin_residue!r})"
        )
    elements: list[SeriesResistor | SeriesCapacitor | ParallelRC] = []
    if pf.direct > 0.0:
        elements.append(SeriesResistor(pf.direct))
    if pf.origin_residue > 0.0:
        elements.append(SeriesCapacitor(1.0 / pf.origin_residue))
    for term in pf.terms:
        residue = term.residues[0]
        if residue <= 0.0:
            raise NotRealizableError(
                f"residue {residue!r} at pole {term.pole!r} is not positive"
            )
        elements.append(ParallelRC(resistance=residue / term.pole, capacitance=1.0 / residue))
    return RcNetwork(tuple(elements))


def network_impedance(network: RcNetwork, omegas) -> np.ndarray:
    """Driving-point impedance of the series chain at s = j*omega."""
    s = 1j * np.asarray(omegas, dtype=float)
    z = np.zeros(s.shape, dtype=complex)
    for element in network.elements:
        if isinstance(element, SeriesResistor):
            z = z + element.resistance
        elif isinstance(element, SeriesCapacitor):
            z = z + 1.0 / (s * element.capacitance)
        else:
            z = z + element.resistance / (1.0 + s * element.resistance * element.capacitance)
    return z


def _sci(value: float, precision: int = 9) -> str:
    mantissa, exponent = f"{value:.{precision}e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _meta_comment(meta) -> str:
    if not meta:
        return "* design: unspecified"
    parts = " ".join(f"{key}={value}" for key, value in meta.items())
    return f"* design: {parts}"


def export_netlist(network: RcNetwork, format: str = "spice", meta=None, precision: int = 9) -> str:
    """Serialize a network as SPICE-like text or a JSON document.

    The chain occupies nodes 1, 2, ... with the far end grounded at node 0;
    both legs of a parallel RC share the same node pair.  Values print in
    scientific notation at ``precision`` fractional digits.
    """
    if format not in ("spice", "json"):
        raise DomainError(f"format must be 'spice' or 'json', got {format!r}")
    lines = ["* series rc chain, driving-point impedance between node 1 and 0"]
    entries = []
    counts = {"R": 0, "C": 0}
    for node_a, element in enumerate(network.elements, start=1):
        node_b = 0 if node_a == len(network.elements) else node_a + 1
        if isinstance(element, SeriesResistor):
            kind, values = "resistor", (("R", element.resistance),)
        elif isinstance(element, SeriesCapacitor):
            kind, values = "capacitor", (("C", element.capacitance),)
        else:
            kind, values = "parallel_rc", (("R", element.resistance), ("C", element.capacitance))
        entry = {"kind": kind, "nodes": [node_a, node_b]}
        for symbol, value in values:
            counts[symbol] += 1
            text = _sci(value, precision)
            lines.append(f"{symbol}{counts[symbol]} {node_a} {node_b} {text}")
            entry[symbol] = float(text)
        entries.append(entry)
    if format == "spice":
        lines.append(_meta_comment(meta))
        return "\n".join(lines) + "\n"
    return json.dumps({"elements": entries, "meta": dict(meta) if meta else {}}, indent=2) + "\n"
