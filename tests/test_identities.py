"""Composition-law verdicts and the seven-method pass/fail matrix."""

import mpmath
import numpy as np
import pytest

from conftest import reference_spec
from difint import (
    DesignSpec,
    associativity_table,
    check_identity,
    design_integrator,
    design_pair,
    make_grid,
    multiply_and_simplify,
)
from difint import identities
from difint.identities import NUMERIC_PASS_TOL

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

    @pytest.mark.parametrize("condition", ("i", "iii"))
    def test_law_operands_needs_complement(self, condition):
        pair = design_pair(DesignSpec(1, 0.4))
        with pytest.raises(ValueError, match="1 - alpha"):
            identities.law_operands(condition, pair, None)

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

    def test_each_order_is_designed_once(self, monkeypatch):
        designs, products = [], []

        def counting_design(spec):
            designs.append(spec)
            return design_pair(spec)

        def counting_product(a, b):
            products.append((a, b))
            return multiply_and_simplify(a, b)

        monkeypatch.setattr(identities, "design_pair", counting_design)
        monkeypatch.setattr(identities, "multiply_and_simplify", counting_product)
        matrix = associativity_table(MATRIX_ALPHAS)
        np.testing.assert_array_equal(matrix, EXPECTED_MATRIX)
        # Methods 1-4 pass everywhere: pair and complement at 8 orders each.
        # Methods 5 and 6 fail every law at the first order, and method 7
        # keeps only law ii open after it, which needs no complement.
        assert len(designs) == 4 * 16 + 2 + 2 + (2 + 7)
        # One verdict per open column: a column stops at its first failure.
        assert len(products) == 4 * 24 + 3 + 3 + (3 + 7)
        designs.clear()
        check_identity("ii", DesignSpec(1, 0.4))
        assert len(designs) == 1

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            associativity_table([])

    def test_rejects_singular_order(self):
        with pytest.raises(ValueError):
            associativity_table([0.3, 0.5])


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
    pair = design_pair(spec)
    complement = design_pair(spec.complement()) if condition in ("i", "iii") else None
    first, second = identities.law_operands(condition, pair, complement)
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
