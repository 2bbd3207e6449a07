"""Partial-fraction expansion, RC synthesis and netlist export."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_spec
from difint import (
    ConditioningError,
    DesignSpec,
    DomainError,
    FactoredModel,
    NotRealizableError,
    PartialFractionForm,
    PartialFractionTerm,
    RcNetwork,
    design_integrator,
    design_pair,
    evaluate_partial_fractions,
    export_netlist,
    frequency_response,
    make_grid,
    network_impedance,
    synthesize_rc,
    to_partial_fractions,
)
from difint import realization

NAN = float("nan")


def solve_residues_by_sampling(model):
    """Independent oracle: fit all expansion coefficients by least squares.

    The poles are taken as known; the coefficient vector (direct term, 1/s
    term if present, and every residue depth) is solved from samples of the
    factored model at 4nk + 4 frequencies off the pole axis.
    """
    n = len(model.poles)
    k = model.multiplicity
    count = 4 * n * k + 4
    omegas = np.geomspace(min(model.poles) / 10.0, max(model.poles) * 10.0, count)
    s = 1j * omegas
    columns = [np.ones_like(s)]
    if model.s_exponent == -1:
        columns.append(1.0 / s)
    for p in model.poles:
        for depth in range(1, k + 1):
            columns.append(1.0 / (s + p) ** depth)
    basis = np.column_stack(columns)
    target = frequency_response(model, omegas)[0]
    stacked = np.vstack([basis.real, basis.imag])
    rhs = np.concatenate([target.real, target.imag])
    solution, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    offset = 2 if model.s_exponent == -1 else 1
    residues = solution[offset:].reshape(n, k)
    return solution[0], (solution[1] if model.s_exponent == -1 else 0.0), residues


class TestSimplePoleExpansion:
    def test_biproper_example(self):
        pf = to_partial_fractions(FactoredModel(2.0, 0, 1, ((3.0, 1.0),)))
        assert pf.direct == pytest.approx(2.0)
        assert pf.origin_residue == 0.0
        assert pf.terms == (PartialFractionTerm(1.0, (4.0,)),)

    def test_integrator_example(self):
        pf = to_partial_fractions(FactoredModel(1.0, -1, 1, ((2.0, 1.0),)))
        assert pf.direct == 0.0
        assert pf.origin_residue == pytest.approx(2.0)
        assert pf.terms == (PartialFractionTerm(1.0, (-1.0,)),)

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_round_trip_on_designed_models(self, kappa, alpha):
        model = design_integrator(reference_spec(kappa, alpha, k=1))
        pf = to_partial_fractions(model)
        grid = make_grid(1e-3, 1e3, 100)
        direct = frequency_response(model, grid)[0]
        expanded = evaluate_partial_fractions(pf, 1j * grid)
        np.testing.assert_allclose(expanded, direct, rtol=1e-9)

    def test_rejects_bare_s_factor(self):
        with pytest.raises(DomainError):
            to_partial_fractions(FactoredModel(1.0, 1, 1, ((2.0, 1.0),)))

    def test_rejects_coincident_poles(self):
        with pytest.raises(ConditioningError):
            to_partial_fractions(FactoredModel(1.0, 0, 1, ((1.0, 2.0), (3.0, 2.0))))


class TestRepeatedPoleExpansion:
    def test_hand_checked_double_pole(self):
        # ((s+2)/(s+1))^2 = 1 + 2/(s+1) + 1/(s+1)^2
        pf = to_partial_fractions(FactoredModel(1.0, 0, 2, ((2.0, 1.0),)))
        assert pf.direct == pytest.approx(1.0)
        term = pf.terms[0]
        assert term.residues[0] == pytest.approx(2.0)
        assert term.residues[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("kappa", (1, 2))
    @pytest.mark.parametrize("alpha", (0.4, 0.7))
    def test_residues_match_sampling_oracle(self, kappa, alpha):
        model = design_integrator(reference_spec(kappa, alpha, k=2))
        pf = to_partial_fractions(model)
        direct, origin, residues = solve_residues_by_sampling(model)
        assert direct == pytest.approx(pf.direct, rel=1e-6, abs=1e-9)
        assert origin == pytest.approx(pf.origin_residue, rel=1e-6, abs=1e-9)
        computed = np.array([term.residues for term in pf.terms])
        scale = np.max(np.abs(computed))
        np.testing.assert_allclose(residues, computed, rtol=1e-6, atol=1e-6 * scale)

    @pytest.mark.parametrize("alpha", (0.35, 0.65))
    def test_round_trip_with_multiplicity(self, alpha):
        model = design_integrator(reference_spec(1, alpha, k=2))
        pf = to_partial_fractions(model)
        grid = make_grid(1e-3, 1e3, 100)
        direct = frequency_response(model, grid)[0]
        expanded = evaluate_partial_fractions(pf, 1j * grid)
        np.testing.assert_allclose(expanded, direct, rtol=1e-6)

    def test_triple_pole_round_trip(self):
        model = design_integrator(reference_spec(2, 0.55, k=3, n=4))
        pf = to_partial_fractions(model)
        grid = make_grid(1e-3, 1e3, 60)
        np.testing.assert_allclose(
            evaluate_partial_fractions(pf, 1j * grid),
            frequency_response(model, grid)[0],
            rtol=1e-6,
        )


# Test-local copies of the per-pole loops that computed the residues one
# pole at a time before one kernel served every multiplicity: the cover-up
# products, which the kernel must reproduce bit for bit at k = 1, and the
# unscaled Heaviside series, the accuracy the kernel must at least match.
def reference_series_mul(a, b, order):
    out = [0.0] * order
    for i, ai in enumerate(a[:order]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: order - i]):
            out[i + j] += ai * bj
    return out


def reference_series_div(num, den, order):
    out = [0.0] * order
    for i in range(order):
        acc = num[i] if i < len(num) else 0.0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out[i] = acc / den[0]
    return out


def reference_repeated_residues(model):
    k = model.multiplicity
    rows = []
    for pole_index, p in enumerate(model.poles):
        num = [model.gain]
        for z in model.zeros:
            for _ in range(k):
                num = reference_series_mul(num, [z - p, 1.0], k)
        den = [1.0]
        for i, q in enumerate(model.poles):
            if i == pole_index:
                continue
            for _ in range(k):
                den = reference_series_mul(den, [q - p, 1.0], k)
        if model.s_exponent == -1:
            den = reference_series_mul(den, [-p, 1.0], k)
        local = reference_series_div(num, den, k)
        rows.append([local[k - l] for l in range(1, k + 1)])
    return np.array(rows, dtype=float).reshape(len(model.poles), k)


def reference_simple_residues(gain, zeros, poles, with_origin_pole):
    residues = []
    for i, p in enumerate(poles):
        r = gain * (zeros[i] - p)
        for l, (z, q) in enumerate(zip(zeros, poles)):
            if l != i:
                r *= (z - p) / (q - p)
        if with_origin_pole:
            r /= -p
        residues.append(r)
    return residues


def mpmath_residues(model, dps=50):
    """Independent oracle: the residue ladders from a ``dps``-digit Taylor
    expansion of G(-p + t) = (s + p)**k * H(s) at each pole p, taken as
    the constant term times exp of the summed local log series
    log(a + t) = log(a) + sum_j (-1)**(j+1) (t/a)**j / j of every factor."""
    k = model.multiplicity
    rows = []
    with mpmath.workdps(dps):
        for i, p in enumerate(model.poles):
            p = mpmath.mpf(p)
            # (base, weight): G's local series holds (base + t)**weight
            bases = [(mpmath.mpf(z) - p, k) for z in model.zeros]
            bases += [(mpmath.mpf(q) - p, -k) for l, q in enumerate(model.poles) if l != i]
            if model.s_exponent == -1:
                bases.append((-p, -1))
            constant = mpmath.mpf(model.gain)
            logs = [mpmath.mpf(0)] * k
            for base, weight in bases:
                constant *= base ** weight
                power = mpmath.mpf(1)
                for j in range(1, k):
                    power /= -base
                    logs[j] -= weight * power / j
            local = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (k - 1)
            for m in range(1, k):
                local[m] = mpmath.fsum(j * logs[j] * local[m - j] for j in range(1, m + 1)) / m
            rows.append([constant * local[k - l] for l in range(1, k + 1)])
    return rows


def kernel_residue_table(model):
    with np.errstate(over="ignore", invalid="ignore"):
        return realization._residues(model)


def relative_errors(table, oracle):
    """Per pole: the largest error against the oracle, relative to the
    largest oracle residue at that pole."""
    return [
        float(max(abs(mpmath.mpf(float(x)) - r) for x, r in zip(row, exact))
              / max(abs(r) for r in exact))
        for row, exact in zip(table, oracle)
    ]


def assert_bitwise_cover_up(model):
    """The kernel gives the cover-up loop's bits at k = 1: equal values, NaN
    in the same places and the same sign on every zero and infinity."""
    expected = np.array(reference_simple_residues(
        model.gain, model.zeros, model.poles, model.s_exponent == -1), dtype=float)[:, None]
    actual = kernel_residue_table(model)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    signed = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[signed]), np.signbit(expected[signed]))
    return bool(np.isfinite(expected).all())


def random_models(seed, count=250):
    """Seeded models over up to 600 decades, so that the local series
    overflow and underflow, with some near-coincident pole pairs."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(0, 12))
        values = 10.0 ** (rng.uniform(-1.0, 1.0, size=(n, 2)) * rng.choice([2, 6, 40, 150, 300]))
        if trial % 5 == 0 and n > 1:
            values[1, 1] = values[0, 1] * (1.0 + 1e-9)
        yield FactoredModel(
            float(10.0 ** rng.uniform(-50.0, 50.0)), int(rng.choice([-1, 0])),
            int(rng.integers(1, 6)), tuple(map(tuple, values)),
        )


def designed_models(multiplicities, orders=(5, 20, 40, 60)):
    for kappa in range(1, 8):
        for k in multiplicities:
            for n in orders:
                for alpha in (0.3, 0.7):
                    pair = design_pair(DesignSpec(kappa, alpha, n=n, k=k))
                    for model in (pair.integrator, pair.differentiator):
                        # method 6 keeps multiplicity 2 whatever k is
                        if model.s_exponent in (-1, 0) and model.multiplicity == k:
                            yield model


# Specs on which the unscaled series overflowed although every residue is
# at most ~3.3e4 in magnitude.
UNSCALED_OVERFLOW = [(2, 0.3, 40, 4), (2, 0.7, 40, 4), (1, 0.7, 60, 4), (2, 0.7, 60, 3)]


class TestResidueKernel:
    def test_simple_poles_match_cover_up_loops(self):
        models = list(designed_models([1]))
        # the set covers both s powers
        assert {model.s_exponent for model in models} == {-1, 0}
        for model in models:
            assert assert_bitwise_cover_up(model)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_random_models_match_per_pole_loops(self, seed):
        """At k = 1 the kernel gives the cover-up loop's bits.  At k > 1 it
        is finite wherever the per-pole Heaviside loops are, and model by
        model its error against mpmath exceeds theirs by at most 1e-12 of
        the pole's largest residue (rounding differs between the two)."""
        outcomes = set()
        worst = worst_reference = 0.0
        for model in random_models(seed):
            if model.multiplicity == 1:
                outcomes.add(("simple", assert_bitwise_cover_up(model)))
                continue
            try:
                reference = reference_repeated_residues(model)
            except ZeroDivisionError:  # the loops' denominator underflowed to 0
                outcomes.add(("repeated", None))
                continue
            finite = bool(np.isfinite(reference).all())
            outcomes.add(("repeated", finite))
            if not finite or not model.poles:
                continue
            table = kernel_residue_table(model)
            assert np.isfinite(table).all()
            # 100 digits: the models span up to 600 decades
            oracle = mpmath_residues(model, dps=100)
            error = max(relative_errors(table, oracle))
            reference_error = max(relative_errors(reference, oracle))
            assert error <= reference_error + 1e-12
            worst, worst_reference = max(worst, error), max(worst_reference, reference_error)
        assert worst <= worst_reference
        # the set holds products that overflow at k = 1, and per-pole loops
        # that overflow or divide by zero at k > 1
        assert outcomes == {("simple", True), ("simple", False),
                            ("repeated", True), ("repeated", False), ("repeated", None)}

    def test_repeated_poles_match_mpmath_no_worse_than_per_pole_loops(self):
        worst = worst_reference = 0.0
        for model in designed_models([2, 3, 4]):
            reference = reference_repeated_residues(model)
            if not np.isfinite(reference).all():
                continue
            oracle = mpmath_residues(model)
            worst = max(worst, *relative_errors(kernel_residue_table(model), oracle))
            worst_reference = max(worst_reference, *relative_errors(reference, oracle))
        assert worst <= 1e-13
        assert worst <= worst_reference

    @pytest.mark.parametrize("kappa, alpha, n, k", UNSCALED_OVERFLOW)
    def test_specs_that_overflowed_unscaled_series(self, kappa, alpha, n, k):
        model = design_integrator(DesignSpec(kappa, alpha, n=n, k=k))
        assert not np.isfinite(reference_repeated_residues(model)).all()
        pf = to_partial_fractions(model)
        table = np.array([term.residues for term in pf.terms])
        assert max(relative_errors(table, mpmath_residues(model))) <= 1e-13

    def test_overflowing_expansion_raises(self):
        # seed 1's first random model whose poles are distinct but whose
        # expansion still overflows; the power in its 1/s term overflows too
        for model in random_models(1):
            try:
                realization._check_poles_distinct(model.poles)
            except ConditioningError:
                continue
            if not np.isfinite(kernel_residue_table(model)).all():
                break
        else:
            pytest.fail("no overflowing random model")
        with pytest.raises(ConditioningError, match="not finite"):
            to_partial_fractions(model)


# A fixed draw of examples keeps the suite deterministic.
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    kappa=st.integers(1, 7),
    alpha=st.floats(0.05, 0.95),
    n=st.integers(1, 60),
    k=st.integers(1, 4),
    integrator=st.booleans(),
)
def test_residues_match_mpmath_taylor_expansion(kappa, alpha, n, k, integrator):
    """Every residue of a designed model lies within 1e-12 of the 50-digit
    expansion, relative to the largest residue at its pole."""
    pair = design_pair(DesignSpec(kappa, alpha, n=n, k=k))
    model = pair.integrator if integrator else pair.differentiator
    assume(model.s_exponent in (-1, 0))
    pf = to_partial_fractions(model)
    table = np.array([term.residues for term in pf.terms])
    assert max(relative_errors(table, mpmath_residues(model))) <= 1e-12


class TestRcSynthesis:
    def test_single_section_values(self):
        pf = PartialFractionForm(0.0, 0.0, (PartialFractionTerm(1.0, (4.0,)),))
        assert synthesize_rc(pf) == RcNetwork(sections=((4.0, 0.25),))

    def test_origin_term_becomes_series_capacitor(self):
        pf = PartialFractionForm(0.0, 2.0, ())
        assert synthesize_rc(pf) == RcNetwork(capacitance=0.5)

    def test_direct_term_becomes_series_resistor(self):
        pf = PartialFractionForm(3.0, 0.0, ())
        assert synthesize_rc(pf) == RcNetwork(resistance=3.0)

    def test_designed_ladder_is_positive_and_faithful(self):
        model = design_integrator(reference_spec(2, 0.3, k=1))
        network = synthesize_rc(to_partial_fractions(model))
        assert len(network.sections) == 10
        assert all(r > 0 and c > 0 for r, c in network.sections)
        grid = make_grid(1e-3, 1e3, 100)
        np.testing.assert_allclose(
            network_impedance(network, grid),
            frequency_response(model, grid)[0],
            rtol=1e-9,
        )

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    @pytest.mark.parametrize("alpha", (0.2, 0.5, 0.7, 0.9))
    def test_every_designed_ladder_is_realizable(self, kappa, alpha):
        model = design_integrator(reference_spec(kappa, alpha, k=1))
        pf = to_partial_fractions(model)
        assert pf.direct >= 0.0 and pf.origin_residue >= 0.0
        assert all(term.residues[0] > 0.0 for term in pf.terms)
        network = synthesize_rc(pf)
        # one series element (resistor below 0.5, capacitor above) + n sections
        assert (network.resistance > 0.0) != (network.capacitance is not None)
        assert len(network.sections) == 10

    def test_rejects_negative_residue(self):
        pf = PartialFractionForm(0.0, 0.0, (PartialFractionTerm(1.0, (-1.0,)),))
        with pytest.raises(NotRealizableError):
            synthesize_rc(pf)

    @pytest.mark.parametrize("direct, origin", ((-1.0, 0.0), (0.0, -1.0)))
    def test_rejects_negative_series_terms(self, direct, origin):
        with pytest.raises(NotRealizableError):
            synthesize_rc(PartialFractionForm(direct, origin, ()))

    # Each of these gave an empty network, an element that export_netlist
    # failed on, or a negative resistor, before terms were checked.
    @pytest.mark.parametrize("pf", (
        PartialFractionForm(NAN, 0.0, ()),
        PartialFractionForm(1.0, NAN, ()),
        PartialFractionForm(0.0, 0.0, (PartialFractionTerm(1.0, (NAN,)),)),
        PartialFractionForm(0.0, 0.0, (PartialFractionTerm(NAN, (1.0,)),)),
        PartialFractionForm(np.inf, 0.0, ()),
        PartialFractionForm(0.0, 0.0, (PartialFractionTerm(-1.0, (1.0,)),)),
    ), ids=("nan-direct", "nan-origin", "nan-residue", "nan-pole", "inf-direct", "negative-pole"))
    def test_rejects_terms_that_are_not_finite_or_not_positive(self, pf):
        with pytest.raises(NotRealizableError):
            synthesize_rc(pf)

    def test_rejects_repeated_poles(self):
        pf = PartialFractionForm(1.0, 0.0, (PartialFractionTerm(1.0, (2.0, 1.0)),))
        with pytest.raises(NotRealizableError):
            synthesize_rc(pf)


class TestRcNetworkRecord:
    @pytest.mark.parametrize("fields", (
        {"resistance": -1.0}, {"resistance": np.inf}, {"resistance": NAN},
        {"capacitance": 0.0}, {"capacitance": -1.0}, {"capacitance": np.inf},
        {"capacitance": NAN}, {"sections": ((0.0, 1.0),)}, {"sections": ((1.0, -1.0),)},
        {"sections": ((np.inf, 1.0),)}, {"sections": ((1.0, 1.0), (1.0, NAN))},
    ), ids=repr)
    def test_value_not_finite_and_positive_is_domain_error(self, fields):
        with pytest.raises(DomainError):
            RcNetwork(**fields)

    def test_series_resistance_may_be_zero(self):
        assert RcNetwork(0.0, 1.0, ((1.0, 1.0),)).resistance == 0.0

    def test_element_values_overflowing_in_synthesis_are_domain_error(self):
        # pole and residue are finite, but R = residue / pole overflows
        pf = PartialFractionForm(0.0, 0.0, (PartialFractionTerm(1e-300, (1e300,)),))
        with pytest.raises(DomainError):
            synthesize_rc(pf)


# No designed model has both a series R and a series C.
FULL_CHAIN = RcNetwork(2.0, 0.5, ((4.0, 0.25), (1.0, 3.0)))

FULL_CHAIN_SPICE = """\
* series rc chain, driving-point impedance between node 1 and 0
R1 1 2 2.000000000e0
C1 2 3 5.000000000e-1
R2 3 4 4.000000000e0
C2 3 4 2.500000000e-1
R3 4 0 1.000000000e0
C3 4 0 3.000000000e0
* design: unspecified
"""

FULL_CHAIN_ELEMENTS = [
    {"kind": "resistor", "nodes": [1, 2], "R": 2.0},
    {"kind": "capacitor", "nodes": [2, 3], "C": 0.5},
    {"kind": "parallel_rc", "nodes": [3, 4], "R": 4.0, "C": 0.25},
    {"kind": "parallel_rc", "nodes": [4, 0], "R": 1.0, "C": 3.0},
]


class TestFullChain:
    def test_spice_text(self):
        assert export_netlist(FULL_CHAIN, "spice") == FULL_CHAIN_SPICE

    def test_json_text(self):
        expected = json.dumps({"elements": FULL_CHAIN_ELEMENTS, "meta": {}}, indent=2) + "\n"
        assert export_netlist(FULL_CHAIN, "json") == expected

    def test_impedance_is_the_closed_form_sum(self):
        omegas = make_grid(1e-3, 1e3, 57)
        s = 1j * omegas
        expected = 2.0 + 1.0 / (0.5 * s) + 4.0 / (1.0 + s) + 1.0 / (1.0 + 3.0 * s)
        np.testing.assert_allclose(network_impedance(FULL_CHAIN, omegas), expected, rtol=1e-14)

    @pytest.mark.parametrize("omega", (math.inf, math.nan, 0.0, -1.0))
    def test_impedance_rejects_frequency_not_finite_and_positive(self, omega):
        with pytest.raises(DomainError, match="^all frequencies must be finite and > 0$"):
            network_impedance(RcNetwork(1.0, 2.0, ((1.0, 1.0),)), [1.0, omega])


def parse_spice(text):
    """Rebuild element impedance groups from emitted netlist text."""
    groups = {}
    for line in text.splitlines():
        if not line or line.startswith("*"):
            continue
        name, node_a, node_b, value = line.split()
        key = (int(node_a), int(node_b))
        groups.setdefault(key, {})[name[0]] = float(value)
    return groups


def impedance_from_groups(groups, omegas):
    s = 1j * np.asarray(omegas)
    total = np.zeros(s.shape, dtype=complex)
    for parts in groups.values():
        if "R" in parts and "C" in parts:
            r, c = parts["R"], parts["C"]
            total = total + r / (1.0 + s * r * c)
        elif "R" in parts:
            total = total + parts["R"]
        else:
            total = total + 1.0 / (s * parts["C"])
    return total


class TestNetlistExport:
    def test_single_section_lines(self):
        network = RcNetwork(sections=((4.0, 0.25),))
        text = export_netlist(network, "spice")
        lines = text.splitlines()
        assert "R1 1 0 4.000000000e0" in lines
        assert "C1 1 0 2.500000000e-1" in lines

    def test_empty_network_is_header_and_meta_only(self):
        text = export_netlist(RcNetwork(), "spice", meta={"n": 0})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("*") and lines[1].startswith("*")

    def test_ten_section_node_chain(self):
        model = design_integrator(reference_spec(2, 0.3, k=1))
        network = synthesize_rc(to_partial_fractions(model))
        text = export_netlist(network, "spice", meta={"method": 2})
        element_lines = [l for l in text.splitlines() if not l.startswith("*")]
        # direct resistor + 10 parallel sections -> 1 + 20 lines
        assert len(element_lines) == 21
        last_nodes = element_lines[-1].split()[1:3]
        assert last_nodes[1] == "0"
        seen = {int(tok) for l in element_lines for tok in l.split()[1:3]}
        assert seen == set(range(12))  # chain nodes 1..11 plus ground 0

    def test_bare_ten_section_chain(self):
        network = RcNetwork(sections=tuple((float(i), 1.0 / i) for i in range(1, 11)))
        text = export_netlist(network, "spice")
        element_lines = [l for l in text.splitlines() if not l.startswith("*")]
        assert len(element_lines) == 20
        assert element_lines[0].split()[:3] == ["R1", "1", "2"]
        assert element_lines[-1].split()[:3] == ["C10", "10", "0"]

    def test_round_trip_through_text(self):
        model = design_integrator(reference_spec(1, 0.62, k=1))
        network = synthesize_rc(to_partial_fractions(model))
        text = export_netlist(network, "spice")
        grid = make_grid(1e-3, 1e3, 100)
        rebuilt = impedance_from_groups(parse_spice(text), grid)
        np.testing.assert_allclose(
            rebuilt, frequency_response(model, grid)[0], rtol=1e-9
        )

    def test_json_document(self):
        network = RcNetwork(2.0, sections=((4.0, 0.25),))
        doc = json.loads(export_netlist(network, "json", meta={"method": 1}))
        assert doc["meta"] == {"method": 1}
        assert doc["elements"][0] == {"kind": "resistor", "nodes": [1, 2], "R": 2.0}
        assert doc["elements"][1]["kind"] == "parallel_rc"
        assert doc["elements"][1]["nodes"] == [2, 0]

    def test_rejects_unknown_format(self):
        with pytest.raises(DomainError):
            export_netlist(RcNetwork(), "verilog")
