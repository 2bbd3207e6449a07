"""Designer parameter formulas, gain matching, offset bounds, symmetry."""

import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_spec
from difint import (
    DesignSpec,
    DomainError,
    EpsilonRangeError,
    FactoredModel,
    SweepRow,
    associativity_table,
    check_identity,
    design_integrator,
    design_pair,
    epsilon_bounds,
    error_series,
    identity_experiment,
    log_response,
    make_grid,
    reciprocal,
    special_epsilon,
    sweep_table,
)
from difint.design import OFFSET_METHODS

PIECEWISE = (1, 2, 3, 4)


class TestDesignSpec:
    @pytest.mark.parametrize("alpha", (0.0, 1.0, -0.2, 1.5, float("nan")))
    def test_rejects_out_of_range_order(self, alpha):
        with pytest.raises(DomainError):
            DesignSpec(1, alpha)

    def test_rejects_bad_method_index(self):
        with pytest.raises(DomainError):
            DesignSpec(0, 0.5)
        with pytest.raises(DomainError):
            DesignSpec(8, 0.5)

    def test_rejects_bad_band(self):
        with pytest.raises(DomainError):
            DesignSpec(1, 0.5, omega_l=1.0, omega_h=1.0)
        with pytest.raises(DomainError):
            DesignSpec(1, 0.5, omega_l=-1.0, omega_h=1.0)

    @pytest.mark.parametrize("band", ((1e-160, 1e160), (5e-324, 1.0), (1e-5, 1e305)))
    def test_rejects_band_whose_ratio_overflows(self, band):
        with pytest.raises(DomainError, match="ratio"):
            DesignSpec(1, 0.3, *band)

    def test_accepts_widest_finite_ratios(self):
        for band in ((1e-154, 1e154), (1e-300, 1e7), (1.0, 1e308), (sys.float_info.min, 1e-1)):
            for kappa in range(1, 8):
                model = design_integrator(DesignSpec(kappa, 0.3, *band, n=10, k=2))
                assert math.isfinite(model.gain)

    @pytest.mark.parametrize("band", ((1e-310, 1e-300), (1e-320, 1e-310), (5e-324, 1e-300)))
    def test_rejects_subnormal_lower_edge(self, band):
        with pytest.raises(DomainError, match="smallest normal float"):
            DesignSpec(1, 0.3, *band)

    @pytest.mark.parametrize("method", (2, 4))
    @pytest.mark.parametrize("band", ((1e-154, 1e154), (1e-300, 1e7)))
    @pytest.mark.parametrize("k", (4, 8))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_unrepresentable_matched_gain_is_domain_error(self, method, band, k, alpha):
        # One section spans the whole band, so the band-center factor ratio
        # is ~1e150, or ~1e-150 on the low branch (alpha 0.3), and its k-th
        # power leaves the float range: it overflows, or underflows to 0.
        spec = DesignSpec(method, alpha, *band, n=1, k=k)
        with pytest.raises(DomainError, match="matched gain cannot be represented"):
            design_pair(spec)

    def test_corner_past_the_float_maximum_is_domain_error(self):
        # Method 4's special offset at order 0.01, on a band up to the float
        # maximum, puts a power of ten of the complement order's design
        # just past it, where ``10.0 ** x`` raises OverflowError.
        band = (1.0, sys.float_info.max)
        epsilon = special_epsilon(DesignSpec(4, 0.01, *band, n=1, k=1))
        with pytest.raises(DomainError, match="a corner of method 4 leaves the float range"):
            design_pair(DesignSpec(4, 0.99, *band, n=1, k=1, epsilon=epsilon))

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            DesignSpec(1, 0.5, n=0)
        with pytest.raises(DomainError):
            DesignSpec(1, 0.5, k=0)

    @pytest.mark.parametrize("field", ("n", "k"))
    @pytest.mark.parametrize("value", (2.7, 3.0, True, False, "3"))
    def test_rejects_non_integral_counts(self, field, value):
        with pytest.raises(DomainError):
            DesignSpec(1, 0.5, **{field: value})

    def test_accepts_numpy_integer_counts(self):
        spec = DesignSpec(1, 0.5, n=np.int64(7), k=np.int32(3))
        assert (spec.n, spec.k) == (7, 3)
        assert type(spec.n) is int and type(spec.k) is int

    def test_derived_quantities(self):
        spec = DesignSpec(1, 0.3, 1e-3, 1e3)
        assert spec.omega_m == pytest.approx(1.0)
        assert spec.nu == pytest.approx(0.3)
        assert DesignSpec(1, 0.8).nu == pytest.approx(0.2)
        assert spec.branch == "low"
        assert DesignSpec(1, 0.5).branch == "low"
        assert DesignSpec(1, 0.51).branch == "high"

    @pytest.mark.parametrize("alpha", (1e-300, 1e-20, 1e-10, 0.1, 0.25, 0.3, 0.5))
    def test_folded_order_is_exact(self, alpha):
        # 0.5 - |alpha - 0.5| rounds tiny orders off, to 0.0 below ~2.8e-17.
        assert DesignSpec(1, alpha).nu == alpha

    @pytest.mark.parametrize("alpha", (0.51, 0.7, 0.9, 1.0 - 1e-10))
    def test_high_orders_fold_to_their_complement(self, alpha):
        assert DesignSpec(1, alpha).nu == 1.0 - alpha

    @pytest.mark.parametrize("band", ((1e-3, 1e3), (0.02, 7e3), (1e-154, 1e154), (1e-300, 1e7)))
    def test_band_center_is_the_root_of_a_representable_product(self, band):
        assert DesignSpec(1, 0.3, *band).omega_m == math.sqrt(band[0] * band[1])

    @pytest.mark.parametrize("band, center", (
        ((1e-200, 1e-190), 1e-195), ((1e-170, 1e-160), 1e-165), ((1e160, 1e170), 1e165),
    ))
    def test_band_center_survives_an_unrepresentable_product(self, band, center):
        # The product of the edges underflows to 0 or overflows to inf.
        assert not 0.0 < band[0] * band[1] < math.inf
        assert math.isclose(DesignSpec(1, 0.3, *band).omega_m, center, rel_tol=1e-15)

    def test_construction_fills_special_offset_for_methods_3_and_4_only(self):
        for kappa in (3, 4):
            spec = DesignSpec(kappa, 0.4, n=12, k=3)
            assert spec.epsilon == special_epsilon(spec)
            assert spec == DesignSpec(kappa, 0.4, n=12, k=3, epsilon=special_epsilon(spec))
            assert spec.complement().epsilon == spec.epsilon
            assert DesignSpec(kappa, 0.4, epsilon=1.9).epsilon == 1.9
            # An offset outside the admissible interval, NaN included, is
            # rejected where the spec is built.
            with pytest.raises(EpsilonRangeError):
                DesignSpec(kappa, 0.4, epsilon=1.0)
            with pytest.raises(EpsilonRangeError):
                DesignSpec(kappa, 0.4, epsilon=math.nan)
        for kappa in (1, 2, 5, 6, 7):
            assert DesignSpec(kappa, 0.4).epsilon is None

    @pytest.mark.parametrize("kappa", (1, 2, 5, 6, 7))
    def test_offset_on_any_other_method_is_rejected(self, kappa):
        assert kappa not in OFFSET_METHODS
        message = f"method {kappa} does not take a ripple offset"
        with pytest.raises(DomainError, match=message):
            DesignSpec(kappa, 0.3, epsilon=1.0)
        # Checked right after the method index, before the order.
        with pytest.raises(DomainError, match=message):
            DesignSpec(kappa, 1.5, epsilon=1.0)
        with pytest.raises(DomainError, match="method index"):
            DesignSpec(0, 0.3, epsilon=1.0)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.7, 1e-9, 1.0 - 1e-9))
    def test_complement_changes_only_the_order(self, alpha):
        # An explicit offset in the middle of this order's interval.
        epsilon = sum(epsilon_bounds(DesignSpec(4, alpha))) / 2.0
        for spec in (DesignSpec(1, alpha, 0.02, 7e3, n=7, k=3),
                     DesignSpec(3, alpha, n=12, k=1),
                     DesignSpec(4, alpha, epsilon=epsilon)):
            complement = spec.complement()
            assert complement.alpha == 1.0 - spec.alpha
            for field in fields(DesignSpec):
                if field.name != "alpha":
                    assert getattr(complement, field.name) == getattr(spec, field.name)

    @pytest.mark.parametrize("alpha", (1e-300, 1e-20, 2.0**-54))
    def test_complement_of_a_tiny_order_names_the_given_order(self, alpha):
        spec = DesignSpec(1, alpha)
        assert design_pair(spec).integrator.gain > 0.0
        with pytest.raises(DomainError) as caught:
            spec.complement()
        assert str(caught.value) == (f"order {alpha!r} has no complement order: "
                                     f"1 - alpha rounds to 1.0")
        assert DesignSpec(1, 2.0**-53).complement().alpha == 1.0 - 2.0**-53

    def test_forced_multiplicities(self):
        for spec, k in ((DesignSpec(5, 0.4, k=2), 1), (DesignSpec(6, 0.4, k=1), 2),
                        (DesignSpec(7, 0.4, k=3), 1), (DesignSpec(1, 0.4, k=3), 3)):
            pair = design_pair(spec)
            assert pair.integrator.multiplicity == pair.differentiator.multiplicity == k


class TestMethod1:
    def test_frozen_first_corner_pair(self):
        # 50-digit evaluation of the exponent formulas (2i - 1 -+ alpha/k)/(2n)
        # at alpha=0.4, k=2, n=10 on the six-decade band.
        model = design_integrator(reference_spec(1, 0.4))
        assert model.poles[0] == pytest.approx(1.737800828749375467e-3, rel=1e-14)
        assert model.zeros[0] == pytest.approx(2.2908676527677730457e-3, rel=1e-14)
        assert model.s_exponent == 0
        assert model.multiplicity == 2

    def test_high_branch_structure(self):
        model = design_integrator(reference_spec(1, 0.7))
        assert model.s_exponent == -1
        low = design_integrator(reference_spec(1, 0.3))
        np.testing.assert_allclose(model.poles, low.zeros, rtol=1e-15)
        np.testing.assert_allclose(model.zeros, low.poles, rtol=1e-15)


class TestMethod2:
    def test_corners_anchor_on_band_edges(self):
        model = design_integrator(reference_spec(2, 0.4))
        assert model.poles[0] == pytest.approx(1e-3, rel=1e-14)
        assert model.zeros[-1] == pytest.approx(1e3, rel=1e-14)

    def test_high_branch_anchors(self):
        model = design_integrator(reference_spec(2, 0.7))
        assert model.zeros[0] == pytest.approx(1e-3, rel=1e-14)
        assert model.poles[-1] == pytest.approx(1e3, rel=1e-14)


class TestEpsilonBounds:
    def test_frozen_method3_interval(self):
        lower, upper = epsilon_bounds(DesignSpec(3, 0.4))
        assert lower == pytest.approx(1.8113207547169811321, rel=1e-14)
        assert upper == pytest.approx(2.0, rel=1e-14)

    def test_frozen_method4_interval(self):
        lower, upper = epsilon_bounds(DesignSpec(4, 0.4))
        assert lower == pytest.approx(1.8823529411764705882, rel=1e-14)
        assert upper == pytest.approx(2.0869565217391304348, rel=1e-14)

    def test_frozen_special_values(self):
        assert special_epsilon(DesignSpec(3, 0.4)) == pytest.approx(1.92, rel=1e-14)
        spec4 = DesignSpec(4, 0.4)
        assert special_epsilon(spec4) == epsilon_bounds(spec4)[1]

    def test_special_value_is_admissible(self):
        for kappa in (3, 4):
            for alpha in (0.1, 0.45, 0.5, 0.62, 0.9):
                spec = DesignSpec(kappa, alpha)
                lower, upper = epsilon_bounds(spec)
                assert lower < special_epsilon(spec) <= upper

    def test_interval_degenerates_at_order_extremes(self):
        for alpha in (1e-9, 1.0 - 1e-9):
            lower, upper = epsilon_bounds(DesignSpec(3, alpha))
            assert 0.0 < lower < upper < 1e-7

    def test_tiny_order_keeps_a_finite_interval(self):
        # With nu folded to 0.0 the upper end divided by zero.
        spec = DesignSpec(4, 1e-300, n=1, k=2, epsilon=3.86)
        lower, upper = epsilon_bounds(spec)
        assert 0.0 < lower < spec.epsilon < upper < math.inf
        assert design_integrator(spec).gain > 0.0

    def test_usage_error_outside_methods_3_and_4(self):
        with pytest.raises(ValueError):
            epsilon_bounds(DesignSpec(1, 0.4))
        with pytest.raises(ValueError):
            special_epsilon(DesignSpec(7, 0.4))

    def test_out_of_range_offset_reports_interval(self):
        with pytest.raises(EpsilonRangeError) as err:
            DesignSpec(3, 0.4, epsilon=5.0)
        assert err.value.lower == pytest.approx(1.8113207547169811, rel=1e-12)
        assert err.value.upper == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("kappa", (3, 4))
    @pytest.mark.parametrize("epsilon", (math.nan, math.inf, -math.inf))
    def test_non_finite_offset_is_out_of_range(self, kappa, epsilon):
        with pytest.raises(EpsilonRangeError):
            DesignSpec(kappa, 0.4, epsilon=epsilon)

    def test_half_open_interval_ends(self):
        # Both ends carry the 1e-12 relative slack: the exclusive lower end
        # sits at lower * (1 - 1e-12), the inclusive upper end at
        # upper * (1 + 1e-12).
        lower, upper = epsilon_bounds(DesignSpec(3, 0.4))
        for epsilon in (lower, upper, upper * (1.0 + 1e-12)):
            design_integrator(DesignSpec(3, 0.4, epsilon=epsilon))
        for epsilon in (lower * (1.0 - 1e-12), upper * (1.0 + 2e-12)):
            with pytest.raises(EpsilonRangeError):
                DesignSpec(3, 0.4, epsilon=epsilon)

    def test_offset_on_complement_lower_end_is_admissible(self):
        # Admissible at this order; at the complement order it equals the
        # lower end up to the last bits of nu, which laws i and iii design.
        alpha, epsilon = 0.3037617739110518, 0.4370141475644993
        spec = DesignSpec(3, alpha, n=38, k=4, epsilon=epsilon)
        lower, _ = epsilon_bounds(spec.complement())
        assert lower == epsilon
        assert check_identity("i", spec).structural_pass
        results = identity_experiment(3, alpha, n=38, k=4, epsilon=epsilon, duration=1.0)
        assert set(results) == {"x", "y", "z"}

    # Offsets relative to the nominal interval: each slack edge, the float
    # on either side of it and the nominal ends, where ``t`` in [0, 1] is
    # the position of a draw inside the interval or how far it lies outside.
    OFFSETS = {
        "lower slack edge": lambda lo, hi, t: lo * (1.0 - 1e-12),
        "above lower slack edge": lambda lo, hi, t: math.nextafter(lo * (1.0 - 1e-12), math.inf),
        "below lower slack edge": lambda lo, hi, t: math.nextafter(lo * (1.0 - 1e-12), 0.0),
        "upper slack edge": lambda lo, hi, t: hi * (1.0 + 1e-12),
        "above upper slack edge": lambda lo, hi, t: math.nextafter(hi * (1.0 + 1e-12), math.inf),
        "below upper slack edge": lambda lo, hi, t: math.nextafter(hi * (1.0 + 1e-12), 0.0),
        "lower": lambda lo, hi, t: lo,
        "upper": lambda lo, hi, t: hi,
        "inside": lambda lo, hi, t: lo + t * (hi - lo),
        "below": lambda lo, hi, t: lo * (1.0 - 2.0 * t),
        "above": lambda lo, hi, t: hi * (1.0 + 10.0 * t),
        "nan": lambda lo, hi, t: math.nan,
        "inf": lambda lo, hi, t: math.inf,
        "-inf": lambda lo, hi, t: -math.inf,
    }

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(
        kappa=st.sampled_from(OFFSET_METHODS),
        alpha=st.one_of(st.floats(1e-300, 1e-6), st.floats(1e-6, 1.0 - 1e-6),
                        st.floats(0.5 - 1e-9, 0.5 + 1e-9), st.floats(1.0 - 1e-6, 1.0 - 1e-16)),
        n=st.integers(1, 60),
        k=st.integers(1, 8),
        low_decade=st.floats(-307.5, 307.0),
        width=st.floats(0.1, 60.0),
        offset=st.sampled_from(sorted(OFFSETS)),
        t=st.floats(0.0, 1.0),
    )
    def test_a_spec_is_built_exactly_when_its_offset_is_admissible(
            self, kappa, alpha, n, k, low_decade, width, offset, t):
        band = (10.0 ** low_decade, 10.0 ** min(low_decade + width, 308.25))
        base = DesignSpec(kappa, alpha, *band, n, k)
        lower, upper = epsilon_bounds(base)
        epsilon = self.OFFSETS[offset](lower, upper, t)
        admissible = lower * (1.0 - 1e-12) < epsilon <= upper * (1.0 + 1e-12)
        try:
            spec = replace(base, epsilon=epsilon)
        except EpsilonRangeError as err:
            assert not admissible
            assert (err.lower, err.upper) == (lower, upper)
            return
        assert admissible
        # A built spec designs, or fails only because a corner or a gain
        # leaves the float range.
        try:
            design_pair(spec)
        except DomainError as err:
            assert "float range" in str(err) or "cannot be represented" in str(err), err


class TestSpecialOffsetDegeneration:
    @pytest.mark.parametrize("alpha", (0.25, 0.5, 0.7))
    def test_method3_collapses_onto_method1(self, alpha):
        collapsed = design_integrator(reference_spec(3, alpha))
        target = design_integrator(reference_spec(1, alpha))
        np.testing.assert_allclose(collapsed.poles, target.poles, rtol=1e-13)
        np.testing.assert_allclose(collapsed.zeros, target.zeros, rtol=1e-13)
        assert collapsed.gain == pytest.approx(target.gain, rel=1e-13)

    @pytest.mark.parametrize("alpha", (0.25, 0.5, 0.7))
    def test_method4_collapses_onto_method2(self, alpha):
        collapsed = design_integrator(reference_spec(4, alpha))
        target = design_integrator(reference_spec(2, alpha))
        np.testing.assert_allclose(collapsed.poles, target.poles, rtol=1e-13)
        np.testing.assert_allclose(collapsed.zeros, target.zeros, rtol=1e-13)
        assert collapsed.gain == pytest.approx(target.gain, rel=1e-13)


def random_specs(count, seed=20240917):
    """Seeded random piecewise designs over varied bands, sizes and offsets."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        kappa = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.02, 0.48))
        omega_l = float(10.0 ** rng.uniform(-4.0, 0.0))
        omega_h = omega_l * 10.0 ** float(rng.uniform(1.5, 6.0))
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 4))
        epsilon = None
        if kappa in (3, 4):
            lower, upper = epsilon_bounds(DesignSpec(kappa, alpha, omega_l, omega_h, n, k))
            epsilon = lower + float(rng.uniform(0.05, 1.0)) * (upper - lower)
        specs.append(DesignSpec(kappa, alpha, omega_l, omega_h, n, k, epsilon))
    return specs


class TestOrderComplementSymmetry:
    @pytest.mark.parametrize("spec", random_specs(50))
    def test_parameters_and_gains(self, spec):
        low = design_integrator(spec)
        high = design_integrator(spec.complement())
        np.testing.assert_allclose(high.poles, low.zeros, rtol=1e-13)
        np.testing.assert_allclose(high.zeros, low.poles, rtol=1e-13)
        assert low.gain * high.gain == pytest.approx(1.0, rel=1e-12)


class TestInterlacing:
    @pytest.mark.parametrize("kappa", PIECEWISE)
    @pytest.mark.parametrize("alpha", (0.1, 0.35, 0.5))
    def test_low_branch_pole_leads_zero(self, kappa, alpha):
        model = design_integrator(reference_spec(kappa, alpha))
        ladder = [value for pair in zip(model.poles, model.zeros) for value in pair]
        assert all(a < b for a, b in zip(ladder, ladder[1:]))

    @pytest.mark.parametrize("kappa", PIECEWISE)
    @pytest.mark.parametrize("alpha", (0.55, 0.75, 0.9))
    def test_high_branch_zero_leads_pole(self, kappa, alpha):
        model = design_integrator(reference_spec(kappa, alpha))
        ladder = [value for pair in zip(model.zeros, model.poles) for value in pair]
        assert all(a < b for a, b in zip(ladder, ladder[1:]))


class TestBandContainment:
    @pytest.mark.parametrize("kappa", (1, 2))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_methods_1_and_2_always_contained(self, kappa, k):
        for alpha in np.arange(0.01, 0.995, 0.02):
            model = design_integrator(reference_spec(kappa, float(alpha), k=k))
            values = np.array(model.zeros + model.poles)
            assert np.all(values >= 1e-3 * (1.0 - 1e-12))
            assert np.all(values <= 1e3 * (1.0 + 1e-12))

    @pytest.mark.parametrize("kappa", (3, 4))
    def test_one_point_methods_stay_below_upper_edge(self, kappa):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            spec = reference_spec(kappa, alpha)
            lower, upper = epsilon_bounds(spec)
            for offset in (lower + 0.25 * (upper - lower), upper):
                model = design_integrator(
                    reference_spec(kappa, alpha, epsilon=offset)
                )
                assert max(model.zeros + model.poles) <= 1e3 * (1.0 + 1e-12)


class TestGainMatching:
    @pytest.mark.parametrize("kappa", PIECEWISE)
    @pytest.mark.parametrize("alpha", (0.15, 0.5, 0.85))
    @pytest.mark.parametrize("band", ((1e-3, 1e3), (0.02, 7e3)))
    def test_center_magnitude(self, kappa, alpha, band):
        spec = reference_spec(kappa, alpha, band=band)
        model = design_integrator(spec)
        magnitude_db = log_response(model, [spec.omega_m])[0][0]
        target_db = -20.0 * alpha * math.log10(spec.omega_m)
        assert abs(magnitude_db - target_db) < 1e-12


    @pytest.mark.parametrize("kappa", PIECEWISE)
    @pytest.mark.parametrize("alpha", (0.15, 0.5, 0.85))
    @pytest.mark.parametrize("band", ((1e-200, 1e-190), (1e-170, 1e-160), (1e160, 1e170)))
    @pytest.mark.parametrize("k", (1, 3))
    def test_center_magnitude_on_shifted_bands(self, kappa, alpha, band, k):
        # Targets reach 3300 dB here; the worst miss measured over k = 1..3
        # is 4.5e-12 dB.
        spec = DesignSpec(kappa, alpha, *band, n=10, k=k)
        magnitude_db = log_response(design_integrator(spec), [spec.omega_m])[0][0]
        assert abs(magnitude_db + 20.0 * alpha * math.log10(spec.omega_m)) < 2e-11


class TestBranchContinuity:
    @pytest.mark.parametrize("kappa", PIECEWISE)
    def test_parameters_join_across_the_structure_switch(self, kappa):
        low = design_integrator(reference_spec(kappa, 0.5 - 1e-9))
        high = design_integrator(reference_spec(kappa, 0.5 + 1e-9))
        np.testing.assert_allclose(high.poles, low.zeros, rtol=1e-8)
        np.testing.assert_allclose(high.zeros, low.poles, rtol=1e-8)
        assert low.gain * high.gain == pytest.approx(1.0, rel=1e-8)


def reference_high_branch(spec):
    """The high-branch corner formulas as written out per method before the
    branch rule derived them from the complement's low branch: the reference
    the derived branch must reproduce bit for bit."""
    alpha, k, n = spec.alpha, spec.k, spec.n
    wl = spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    idx = range(1, n + 1)
    if spec.kappa == 1:
        poles = [wl * ratio ** ((2 * i - 1 + (1 - alpha) / k) / (2 * n)) for i in idx]
        zeros = [wl * ratio ** ((2 * i - 1 - (1 - alpha) / k) / (2 * n)) for i in idx]
    elif spec.kappa == 2:
        den = n - 1 + (1 - alpha) / k
        poles = [wl * ratio ** ((i - 1 + (1 - alpha) / k) / den) for i in idx]
        zeros = [wl * ratio ** ((i - 1) / den) for i in idx]
    elif spec.kappa == 3:
        eps = spec.epsilon
        den = 20.0 * (1 - alpha) * (k - 1 + alpha)
        poles = [wl * 10.0 ** (eps * (2 * k * i - k + 1 - alpha) / den) for i in idx]
        zeros = [wl * 10.0 ** (eps * (2 * k * i - k - 1 + alpha) / den) for i in idx]
    else:
        eps = spec.epsilon
        den = 10.0 * (1 - alpha) * (k - 1 + alpha)
        poles = [wl * 10.0 ** (eps * (k * i - k + 1 - alpha) / den) for i in idx]
        zeros = [wl * 10.0 ** (eps * (k * i - k) / den) for i in idx]
    gain = spec.omega_m ** (1.0 - alpha)
    for z, p in zip(zeros, poles):
        gain *= (math.hypot(spec.omega_m, p) / math.hypot(spec.omega_m, z)) ** k
    return FactoredModel(gain, -1, k, tuple(zip(zeros, poles)))


def _outcome(build, spec, epsilon):
    """What ``build`` gives for ``spec`` with ``epsilon`` in place of its
    offset; building that spec is part of the outcome."""
    try:
        return build(replace(spec, epsilon=epsilon))
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


class TestBranchRule:
    # Orders every 10th of 300 steps above 0.5 plus both ends, wide and
    # extreme bands, and for methods 3/4 offsets at the special value, the
    # upper end, mid-interval, the lower end, the excluded slack edge below
    # it and the admitted slack edge above the upper end.
    ORDERS = [i / 301 for i in range(151, 301, 10)] + [0.5 + 1e-9, 300 / 301]
    BANDS = ((1e-3, 1e3), (0.02, 7e3), (1e-154, 1e154), (1e-300, 1e7))

    @pytest.mark.parametrize("kappa", PIECEWISE)
    @pytest.mark.parametrize("k", range(1, 9))
    def test_high_branch_is_bitwise_reference(self, kappa, k):
        outcomes = set()
        for n in (1, 2, 5, 10, 60):
            for band in self.BANDS:
                for alpha in self.ORDERS:
                    base = DesignSpec(kappa, alpha, *band, n, k)
                    offsets = [None]
                    if kappa in (3, 4):
                        lower, upper = epsilon_bounds(base)
                        offsets = [special_epsilon(base), upper, 0.5 * (lower + upper),
                                   lower, lower * (1.0 - 1e-12), upper * (1.0 + 1e-12)]
                    for epsilon in offsets:
                        spec = (base, epsilon)
                        got = _outcome(design_integrator, base, epsilon)
                        want = _outcome(reference_high_branch, base, epsilon)
                        if isinstance(want, FactoredModel):
                            assert isinstance(got, FactoredModel), spec
                            assert got.factors == want.factors, spec
                            assert got.gain == want.gain, spec
                            assert got.s_exponent == -1 and got.multiplicity == k
                        else:
                            # A gain that overflows the float range raises
                            # DomainError instead of the reference's bare
                            # OverflowError.
                            assert got is (DomainError if want is OverflowError else want), spec
                        outcomes.add(want if isinstance(want, type) else FactoredModel)
        assert FactoredModel in outcomes
        if kappa in (3, 4):
            assert EpsilonRangeError in outcomes


def reference_baselines(spec):
    """Methods 5..7 with each corner grid written out, as before methods 5
    and 7 took method 1's low-branch grid: the reference the shared grid
    must reproduce bit for bit.  Returns ``(integrator, differentiator)``."""
    alpha, n, wl = spec.alpha, spec.n, spec.omega_l
    ratio = spec.omega_h / spec.omega_l
    omega_m = spec.omega_m
    idx = range(1, n + 1)
    if spec.kappa == 5:
        poles = [wl * ratio ** ((i - alpha) / (n - alpha)) for i in idx]
        zeros = [wl * ratio ** ((i - 1) / (n - alpha)) for i in idx]
        gain = 1.0
        for z, p in zip(zeros, poles):
            gain *= math.hypot(omega_m, p) / math.hypot(omega_m, z)
        integrator = FactoredModel(gain, -1, 1, tuple(zip(zeros, poles)))
        poles = [wl * ratio ** ((2 * i - 1 + alpha) / (2 * n)) for i in idx]
        zeros = [wl * ratio ** ((2 * i - 1 - alpha) / (2 * n)) for i in idx]
        return integrator, FactoredModel(spec.omega_h**alpha, 0, 1, tuple(zip(zeros, poles)))
    if spec.kappa == 6:
        poles = [wl * ratio ** ((4 * i - 1 - alpha) / (4 * n)) for i in idx]
        zeros = [wl * ratio ** ((4 * i - 3 + alpha) / (4 * n)) for i in idx]
        integrator = FactoredModel(spec.omega_h ** (1.0 - alpha), -1, 2, tuple(zip(zeros, poles)))
        poles = [wl * ratio ** ((4 * i - 2 + alpha) / (4 * n)) for i in idx]
        zeros = [wl * ratio ** ((4 * i - 2 - alpha) / (4 * n)) for i in idx]
        return integrator, FactoredModel(spec.omega_h**alpha, 0, 2, tuple(zip(zeros, poles)))
    poles = [wl * ratio ** ((2 * i - 1 - alpha) / (2 * n)) for i in idx]
    zeros = [wl * ratio ** ((2 * i - 1 + alpha) / (2 * n)) for i in idx]
    gain = omega_m ** -alpha
    for z, p in zip(zeros, poles):
        gain *= (math.hypot(omega_m, p) / math.hypot(omega_m, z)) ** 1
    integrator = FactoredModel(gain, 0, 1, tuple(zip(zeros, poles)))
    return integrator, reciprocal(integrator)


class TestBaselineGrids:
    # The branch rule's orders and their complements, so both sides of 0.5.
    ORDERS = TestBranchRule.ORDERS + [1.0 - a for a in TestBranchRule.ORDERS]

    @pytest.mark.parametrize("kappa", (5, 6, 7))
    @pytest.mark.parametrize("k", (1, 2))
    def test_pairs_are_bitwise_reference(self, kappa, k):
        for n in (1, 2, 5, 10, 60):
            for band in TestBranchRule.BANDS:
                for alpha in self.ORDERS:
                    spec = DesignSpec(kappa, alpha, *band, n, k)
                    pair = design_pair(spec)
                    for got, want in zip((pair.integrator, pair.differentiator),
                                         reference_baselines(spec)):
                        assert got.factors == want.factors, spec
                        assert got.gain == want.gain, spec
                        assert got.s_exponent == want.s_exponent, spec
                        assert got.multiplicity == want.multiplicity, spec


class TestOmittedOffset:
    # An omitted offset of method 3 or 4 is the special one, whichever
    # entry point builds the spec.
    @pytest.mark.parametrize("kappa", (3, 4))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_every_entry_point_uses_the_special_offset(self, kappa, alpha):
        omitted = DesignSpec(kappa, alpha, n=6, k=2)
        eps = special_epsilon(omitted)
        explicit = DesignSpec(kappa, alpha, n=6, k=2, epsilon=eps)
        assert omitted.epsilon == eps
        assert design_pair(omitted) == design_pair(explicit)
        verdicts = [check_identity(condition, explicit) for condition in ("i", "ii", "iii")]
        for verdict in verdicts:
            assert check_identity(verdict.condition, omitted) == verdict
        band = (omitted.omega_l, omitted.omega_h)
        # An explicit offset would apply to every row, so the omitted one is
        # compared with the explicit spec's verdicts.
        row = associativity_table([alpha], *band, 6, 2)[kappa - 1]
        assert row.tolist() == [verdict.structural_pass for verdict in verdicts]
        pair = design_pair(explicit)
        for kind, model in (("integrator", pair.integrator),
                            ("differentiator", pair.differentiator)):
            em, ep = error_series(model, alpha, kind, make_grid(*band, 200))
            assert sweep_table(kappa, kind, [alpha], *band, 6, 2, 200) == SweepRow(
                float(np.max(np.abs(em))), math.sqrt(np.sum(em * em)),
                float(np.max(np.abs(ep))), math.sqrt(np.sum(ep * ep)))
        run = dict(sample_period=0.01, duration=1.0)
        got = identity_experiment(kappa, alpha, *band, 6, 2, **run)
        want = identity_experiment(kappa, alpha, *band, 6, 2, eps, **run)
        for name in ("x", "y", "z"):
            np.testing.assert_array_equal(got[name].approx, want[name].approx)


class TestDesignedPairs:
    @pytest.mark.parametrize("kappa", (1, 2, 3, 4, 7))
    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8))
    def test_differentiator_is_exact_data_reciprocal(self, kappa, alpha):
        pair = design_pair(reference_spec(kappa, alpha))
        assert pair.differentiator == reciprocal(pair.integrator)

    def test_method5_differentiator_is_independent(self):
        pair = design_pair(reference_spec(5, 0.4))
        assert pair.integrator.s_exponent == -1
        assert pair.differentiator.s_exponent == 0
        mirror = reciprocal(pair.integrator)
        gaps = [
            abs(a - b) / max(a, b)
            for a, b in zip(pair.differentiator.poles, mirror.poles)
        ]
        assert max(gaps) > 1e-2

    def test_method6_equal_gains_at_half(self):
        pair = design_pair(reference_spec(6, 0.5))
        assert pair.integrator.gain == pytest.approx(1e3**0.5, rel=1e-14)
        assert pair.differentiator.gain == pytest.approx(1e3**0.5, rel=1e-14)

    def test_forced_multiplicities_in_models(self):
        assert design_integrator(reference_spec(5, 0.4, k=2)).multiplicity == 1
        assert design_integrator(reference_spec(6, 0.4, k=1)).multiplicity == 2
        assert design_integrator(reference_spec(7, 0.4, k=2)).multiplicity == 1


class TestCase7GainConvention:
    def test_default_gain_matches_center(self):
        model = design_integrator(reference_spec(7, 0.4))
        assert abs(log_response(model, [1.0])[0][0]) < 1e-12
