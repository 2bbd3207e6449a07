"""Composition-law verdicts and the seven-method pass/fail matrix."""

import mpmath
import numpy as np
import pytest

from conftest import reference_spec
from difint import (
    DesignSpec,
    DomainError,
    associativity_table,
    check_identity,
    design_integrator,
    design_pair,
    identity_experiment,
    make_grid,
    multiply_and_simplify,
)
from difint import design, identities

# A law that passes structurally deviates by less than this from its
# target, two-plus orders above the roundoff of 20-factor products and far
# below any genuine mismatch (the benchmark baselines miss by more than
# 1e-2).
NUMERIC_PASS_TOL = 1e-8

# Expected matrix: methods 1-4 satisfy every law, 5 and 6 none, 7 only the
# differentiator-times-integrator law.
EXPECTED_MATRIX = np.array(
    [
        [True, True, True],
        [True, True, True],
        [True, True, True],
        [True, True, True],
        [False, False, False],
        [False, False, False],
        [False, True, False],
    ]
)

MATRIX_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]


class TestCheckIdentity:
    def test_integrator_splitting_passes_for_method1(self):
        verdict = check_identity("i", DesignSpec(1, 0.4))
        assert verdict.structural_pass
        assert verdict.numeric_max_deviation < 1e-12
        assert verdict.simplified is not None
        assert verdict.simplified.s_exponent == -1
        assert verdict.simplified.factors == ()

    def test_inverse_law_passes_for_method7(self):
        verdict = check_identity("ii", DesignSpec(7, 0.3))
        assert verdict.structural_pass
        assert verdict.numeric_max_deviation < 1e-13

    def test_half_order_is_singular_for_method1(self):
        verdict = check_identity("i", DesignSpec(1, 0.5))
        assert not verdict.structural_pass
        assert verdict.simplified is not None
        assert verdict.simplified.s_exponent == 0
        assert len(verdict.simplified.factors) == 20  # 2n uncancelled pairs
        assert verdict.numeric_max_deviation > 1e-2

    def test_method5_double_integrator_records_shape_failure(self):
        verdict = check_identity("i", DesignSpec(5, 0.4))
        assert not verdict.structural_pass
        assert verdict.simplified is None
        assert "s power" in verdict.failure_note
        assert verdict.numeric_max_deviation > 1e-2

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValueError):
            check_identity("iv", DesignSpec(1, 0.4))

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4, 7))
    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    def test_inverse_law_deviation_at_float_level(self, kappa, alpha):
        verdict = check_identity("ii", DesignSpec(kappa, alpha))
        assert verdict.structural_pass
        assert verdict.numeric_max_deviation < 1e-13

    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("alpha", (0.25, 0.7))
    def test_structural_pass_implies_tiny_deviation(self, kappa, alpha):
        for condition in ("i", "ii", "iii"):
            verdict = check_identity(condition, DesignSpec(kappa, alpha))
            if verdict.structural_pass:
                assert verdict.numeric_max_deviation < NUMERIC_PASS_TOL
            else:
                assert verdict.numeric_max_deviation > 1e-2

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    @pytest.mark.parametrize("alpha", (0.2, 0.45, 0.65))
    def test_chaining_verdict_equals_splitting_verdict(self, kappa, alpha):
        first = check_identity("i", DesignSpec(kappa, alpha))
        third = check_identity("iii", DesignSpec(kappa, alpha))
        assert first.structural_pass == third.structural_pass

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    def test_complement_pole_zero_multisets_match(self, kappa):
        low = design_integrator(reference_spec(kappa, 0.3))
        high = design_integrator(reference_spec(kappa, 0.7))
        np.testing.assert_allclose(sorted(low.poles), sorted(high.zeros), rtol=1e-12)
        np.testing.assert_allclose(sorted(low.zeros), sorted(high.poles), rtol=1e-12)


def counted_designs(monkeypatch):
    """The specs that ``design.design_pair`` is called with from now on,
    which is how ``law_operands`` designs."""
    designs = []

    def counting_design(spec):
        designs.append(spec)
        return design_pair(spec)

    monkeypatch.setattr(design, "design_pair", counting_design)
    return designs


class TestAssociativityTable:
    def test_full_matrix(self):
        matrix = associativity_table(MATRIX_ALPHAS)
        np.testing.assert_array_equal(matrix, EXPECTED_MATRIX)

    @pytest.mark.parametrize("n", (5, 10, 60))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_matrix_holds_across_model_sizes(self, n, k):
        matrix = associativity_table([0.2, 0.7], n=n, k=k)
        np.testing.assert_array_equal(matrix, EXPECTED_MATRIX)

    def test_single_order_matrix_matches_full(self):
        matrix = associativity_table([0.25])
        np.testing.assert_array_equal(matrix, EXPECTED_MATRIX)

    @pytest.mark.parametrize("n, k", ((10, 2), (60, 3)))
    def test_each_order_is_designed_once(self, monkeypatch, n, k):
        designs, products = counted_designs(monkeypatch), []

        def counting_product(a, b):
            products.append((a, b))
            return multiply_and_simplify(a, b)

        monkeypatch.setattr(identities, "multiply_and_simplify", counting_product)
        matrix = associativity_table(MATRIX_ALPHAS, n=n, k=k)
        np.testing.assert_array_equal(matrix, EXPECTED_MATRIX)
        # Methods 1-4 pass everywhere: pair and complement at 8 orders each.
        # Methods 5 and 6 fail every law at the first order, and method 7
        # keeps only law ii open after it, which needs no complement.
        assert len(designs) == 4 * 16 + 2 + 2 + (2 + 7)
        # One verdict per open column: a column stops at its first failure.
        assert len(products) == 4 * 24 + 3 + 3 + (3 + 7)

    def test_rejects_empty_sweep(self):
        with pytest.raises(DomainError, match="^order sweep must not be empty$"):
            associativity_table([])

    @pytest.mark.parametrize("alpha", (0.5, 0.0, 1.0, -0.5))
    def test_rejects_singular_order(self, alpha):
        with pytest.raises(DomainError, match=r"^orders must lie in \(0, 0.5\) or \(0.5, 1\)"):
            associativity_table([0.3, alpha])


class TestLawOperands:
    def test_law_ii_reads_no_complement(self, monkeypatch):
        # 1 - 1e-20 rounds to 1.0, so this order has no complement to design.
        spec = DesignSpec(4, 1e-20)
        designs = counted_designs(monkeypatch)
        [(first, second)] = identities.law_operands(spec, ("ii",))
        assert designs == [spec]
        pair = design_pair(spec)
        assert (first, second) == (pair.differentiator, pair.integrator)

    @pytest.mark.parametrize("condition", ("i", "iii"))
    def test_complement_laws_name_the_tiny_order(self, condition):
        with pytest.raises(DomainError, match="order 1e-20 has no complement order"):
            identities.law_operands(DesignSpec(4, 1e-20), (condition,))

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValueError, match="'iv'"):
            identities.law_operands(DesignSpec(1, 0.4), ("ii", "iv"))

    def test_operands_come_in_the_order_given(self, monkeypatch):
        spec = DesignSpec(2, 0.3)
        pair, complement = design_pair(spec), design_pair(spec.complement())
        designs = counted_designs(monkeypatch)
        got = identities.law_operands(spec, ("iii", "ii", "i"))
        assert designs == [spec, spec.complement()]
        assert got == [(pair.differentiator, complement.differentiator),
                       (pair.differentiator, pair.integrator),
                       (pair.integrator, complement.integrator)]

    @pytest.mark.parametrize("condition, count", (("i", 2), ("ii", 1), ("iii", 2)))
    def test_check_identity_designs_what_its_law_reads(self, monkeypatch, condition, count):
        designs = counted_designs(monkeypatch)
        check_identity(condition, DesignSpec(1, 0.4))
        assert len(designs) == count

    def test_identity_experiment_designs_the_pair_and_its_complement(self, monkeypatch):
        designs = counted_designs(monkeypatch)
        identity_experiment(1, 0.4, duration=0.1)
        assert designs == [DesignSpec(1, 0.4), DesignSpec(1, 0.4).complement()]


class TestMethod5Inverse:
    def test_inverse_law_fails_numerically(self):
        pair = design_pair(reference_spec(5, 0.4))
        verdict = check_identity("ii", DesignSpec(5, 0.4))
        assert not verdict.structural_pass
        assert verdict.numeric_max_deviation > 1e-2
        assert pair.differentiator.poles != pair.integrator.zeros


def mpmath_deviation(condition, spec, dps=60):
    """``max |first(jw) * second(jw) / (jw)**e - 1|`` over the verdict's grid,
    from the complex factor products in ``dps``-digit arithmetic, whose
    exponent range no product leaves."""
    [(first, second)] = identities.law_operands(spec, (condition,))
    target = {"i": -1, "ii": 0, "iii": 1}[condition]
    grid = make_grid(spec.omega_l, spec.omega_h, identities.GRID_COUNT)
    worst = 0
    with mpmath.workdps(dps):
        gain = mpmath.mpf(first.gain) * mpmath.mpf(second.gain)
        s_power = first.s_exponent + second.s_exponent - target
        for omega in grid:
            jw = mpmath.mpc(0, omega)
            num = mpmath.fprod(jw + z for z in first.zeros + second.zeros)
            den = mpmath.fprod(jw + p for p in first.poles + second.poles)
            value = gain * jw**s_power * (num / den) ** first.multiplicity
            worst = max(worst, abs(value - 1))
    return float(worst)


class TestDeviationOracle:
    """Deviations against a 60-digit oracle, on bands where the operands'
    complex product leaves the float range.  Measured worst cases over
    methods 5 and 6 on these bands at orders 0.3 and 0.7 and all three
    laws: 4.9e-13 relative on failing laws; over methods 1-4 on
    1e-300..1e7: 1.1e-13 absolute on passing laws."""

    @pytest.mark.parametrize("kappa, condition, band", (
        (5, "i", (1e-200, 1e-190)),  # ~1e195: the product overflows
        (5, "ii", (1e-170, 1e-160)),
        (5, "iii", (1e-3, 1e3)),
        (6, "i", (1e-170, 1e-160)),
        (6, "ii", (1e-3, 1e3)),
        (6, "iii", (1e-200, 1e-190)),
    ))
    def test_failing_law_matches_relative(self, kappa, condition, band):
        spec = DesignSpec(kappa, 0.3, *band)
        verdict = check_identity(condition, spec)
        assert not verdict.structural_pass
        want = mpmath_deviation(condition, spec)
        assert abs(verdict.numeric_max_deviation - want) < 1e-11 * want

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    @pytest.mark.parametrize("condition", ("i", "iii"))
    def test_passing_law_matches_absolute(self, kappa, condition):
        spec = DesignSpec(kappa, 0.3, 1e-300, 1e7, n=1, k=1)
        verdict = check_identity(condition, spec)
        assert verdict.structural_pass
        want = mpmath_deviation(condition, spec)
        assert abs(verdict.numeric_max_deviation - want) < 1e-12
