"""Composition-law verdicts and the seven-method pass/fail matrix."""

import numpy as np
import pytest

from conftest import reference_spec
from difint import (
    DesignSpec,
    associativity_table,
    check_identity,
    design_integrator,
    design_pair,
)
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
