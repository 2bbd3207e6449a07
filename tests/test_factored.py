"""Core factored-model algebra: evaluation, composition, reciprocal."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import reference_spec
from difint import (
    DesignSpec,
    DomainError,
    FactoredModel,
    ShapeError,
    design_integrator,
    design_pair,
    frequency_response,
    log_response,
    make_grid,
    multiply_and_simplify,
    reciprocal,
)
from difint import factored

ALL_METHODS = (1, 2, 3, 4, 5, 6, 7)


def reference_frequency_response(model, omegas):
    """Out-of-place factor loop: the reference whose magnitude and phase the
    in-place kernel must reproduce bit for bit, and whose direct complex
    product its rebuilt values must match to rounding."""
    w = np.asarray(omegas, dtype=float)
    k = model.multiplicity
    jw = 1j * w
    values = np.full(w.shape, complex(model.gain))
    mag_db = np.full(w.shape, 20.0 * math.log10(model.gain))
    phase = np.zeros(w.shape)
    if model.s_exponent:
        values = values * jw**model.s_exponent
        mag_db = mag_db + 20.0 * model.s_exponent * np.log10(w)
        phase = phase + model.s_exponent * (math.pi / 2.0)
    w2 = w * w
    for z, p in model.factors:
        values = values * ((z + jw) / (p + jw)) ** k
        mag_db = mag_db + 10.0 * k * np.log10((w2 + z * z) / (w2 + p * p))
        phase = phase + k * (np.arctan2(w, z) - np.arctan2(w, p))
    return values, mag_db, np.degrees(phase)


def reference_greedy_match(zeros, poles, rel_tol):
    """Nested-loop matcher: the reference the vectorised one must reproduce,
    tie order included."""
    candidates = []
    for iz, z in enumerate(zeros):
        for ip, p in enumerate(poles):
            gap = abs(z - p) / max(z, p)
            if gap <= rel_tol:
                candidates.append((gap, iz, ip))
    candidates.sort()
    matched_z, matched_p = set(), set()
    for _, iz, ip in candidates:
        if iz not in matched_z and ip not in matched_p:
            matched_z.add(iz)
            matched_p.add(ip)
    return matched_z, matched_p


def _critical_frequencies(rng, base, count):
    """``count`` draws from ``base`` (so values repeat), each nudged by a
    relative step on either side of the cancellation tolerances."""
    steps = np.array([0.0, 0.0, 1e-12, -1e-12, 1e-9, -1e-9, 3e-7, -3e-7, 1e-6, 2e-6])
    return [float(v) for v in rng.choice(base, count) * (1.0 + rng.choice(steps, count))]


class TestFactoredModel:
    def test_rejects_nonpositive_gain(self):
        with pytest.raises(DomainError):
            FactoredModel(0.0)
        with pytest.raises(DomainError):
            FactoredModel(-1.0)

    @pytest.mark.parametrize("s_exponent", (-2, 2, 1.0, -0.5, True, False))
    def test_rejects_out_of_range_s_exponent(self, s_exponent):
        with pytest.raises(ShapeError):
            FactoredModel(1.0, s_exponent=s_exponent)

    def test_rejects_nonpositive_critical_frequencies(self):
        with pytest.raises(DomainError):
            FactoredModel(1.0, 0, 1, ((0.0, 1.0),))
        with pytest.raises(DomainError):
            FactoredModel(1.0, 0, 1, ((1.0, -2.0),))

    @pytest.mark.parametrize("multiplicity", (0, -1, 1.5, 2.0, True, "2"))
    def test_rejects_bad_multiplicity(self, multiplicity):
        with pytest.raises(DomainError, match="multiplicity must be an integer >= 1"):
            FactoredModel(1.0, 0, multiplicity, ((1.0, 2.0),))

    def test_numpy_integers_are_counts(self):
        model = FactoredModel(1.0, np.int64(-1), np.int32(3), ((1.0, 2.0),))
        assert (model.s_exponent, model.multiplicity) == (-1, 3)
        assert type(model.s_exponent) is int and type(model.multiplicity) is int

    def test_zero_pole_views(self):
        m = FactoredModel(2.0, 0, 1, ((3.0, 1.0), (5.0, 4.0)))
        assert m.zeros == (3.0, 5.0)
        assert m.poles == (1.0, 4.0)


class TestEvalResponse:
    def test_pure_integrator_at_two(self):
        m = FactoredModel(1.0, s_exponent=-1)
        (value,), (magnitude_db,), (phase_deg,) = frequency_response(m, [2.0])
        assert value == pytest.approx(-0.5j)
        assert magnitude_db == pytest.approx(-20.0 * math.log10(2.0), abs=1e-12)
        assert phase_deg == pytest.approx(-90.0)

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    @pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75))
    def test_center_magnitude_is_zero_db_on_symmetric_band(self, kappa, alpha):
        model = design_integrator(reference_spec(kappa, alpha))
        assert abs(log_response(model, [1.0])[0][0]) < 1e-12

    def test_frozen_band_edge_magnitude(self):
        # Independent high-precision factor-by-factor product (50-digit
        # arithmetic) gives these values for method 1 at the band edge.
        model = design_integrator(reference_spec(1, 0.4))
        (magnitude_db,), (phase_deg,) = log_response(model, [1e-3])
        assert magnitude_db == pytest.approx(22.949524161750896516, abs=1e-9)
        assert phase_deg == pytest.approx(-17.946822337997617815, abs=1e-9)

    @pytest.mark.parametrize("omega", (math.inf, math.nan, 0.0, -1.0))
    def test_rejects_frequency_not_finite_and_positive(self, omega):
        for model in (FactoredModel(1.0), design_integrator(reference_spec(1, 0.3))):
            for evaluate in (log_response, frequency_response):
                with pytest.raises(DomainError, match="^all frequencies must be finite and > 0$"):
                    evaluate(model, [1.0, omega])

    @pytest.mark.parametrize("kappa", ALL_METHODS)
    def test_product_route_matches_log_sum_route(self, kappa):
        model = design_integrator(reference_spec(kappa, 0.7))
        for omega in np.geomspace(1e-4, 1e4, 25):
            (value,), _, _ = frequency_response(model, [omega])
            (product,), _, _ = reference_frequency_response(model, [omega])
            assert abs(value - product) / abs(product) < 1e-12

    @pytest.mark.parametrize("kappa", ALL_METHODS)
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_vectorized_kernel_is_bitwise_reference(self, kappa, k):
        # Orders 0.3 and 0.7 give s powers 0 and -1/+1 on methods 1..4.
        grids = (np.array([0.37]), make_grid(1e-4, 1e4, 2), make_grid(1e-4, 1e4, 1000),
                 make_grid(1e-4, 1e4, 10000))
        for alpha in (0.3, 0.7):
            pair = design_pair(reference_spec(kappa, alpha, k=k))
            for model in (pair.integrator, pair.differentiator):
                for grid in grids:
                    product, *want = reference_frequency_response(model, grid)
                    values, *got = frequency_response(model, grid)
                    for logs in (got, log_response(model, grid)):
                        for g, r in zip(logs, want, strict=True):
                            assert np.array_equal(g, r)
                    # Measured worst case over these grids: 8.3e-15.
                    assert np.max(np.abs(values - product) / np.abs(product)) < 1e-13

    def test_vectorized_rejects_nonpositive_and_nan_frequencies(self):
        m = FactoredModel(1.0, 0, 1, ((2.0, 1.0),))
        for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, math.nan], [math.nan]):
            with pytest.raises(DomainError):
                frequency_response(m, np.array(bad))

    def test_vectorized_matches_scalar(self):
        model = design_integrator(reference_spec(3, 0.6))
        grid = make_grid(1e-3, 1e3, 50)
        values, mag, phase = frequency_response(model, grid)
        for j in (0, 17, 49):
            (value,), (magnitude_db,), (phase_deg,) = frequency_response(model, grid[j:j + 1])
            assert values[j] == pytest.approx(value, rel=1e-14)
            assert mag[j] == pytest.approx(magnitude_db, rel=1e-14)
            assert phase[j] == pytest.approx(phase_deg, rel=1e-14)


def mpmath_log_response(model, omegas, dps=40):
    """``(magnitude_db, phase_deg)`` summed factor by factor in ``dps``-digit
    arithmetic, where no square leaves the exponent range."""
    magnitudes, phases = [], []
    with mpmath.workdps(dps):
        for omega in omegas:
            w = mpmath.mpf(float(omega))
            magnitude = 20 * mpmath.log10(model.gain) + 20 * model.s_exponent * mpmath.log10(w)
            phase = model.s_exponent * mpmath.pi / 2
            for z, p in model.factors:
                ratio = (w * w + mpmath.mpf(z) ** 2) / (w * w + mpmath.mpf(p) ** 2)
                magnitude += 10 * model.multiplicity * mpmath.log10(ratio)
                phase += model.multiplicity * (mpmath.atan2(w, z) - mpmath.atan2(w, p))
            magnitudes.append(float(magnitude))
            phases.append(float(mpmath.degrees(phase)))
    return np.array(magnitudes), np.array(phases)


# Integrators scale as lambda**power when the band is scaled by lambda: a
# matched design keeps its magnitude at the band center on omega_m**power.
# Method 5's integrator is matched to 1/omega_m, so it scales as 1/lambda;
# every differentiator scales as lambda**alpha.
def _scaling_power(kappa, alpha, kind):
    if kind == "differentiator":
        return alpha
    return -1.0 if kappa == 5 else -alpha


class TestBandPlacement:
    """Bands far from 1 rad/s: squared frequencies and corners would leave
    the float range, so log_response takes the log of hypot quotients there."""

    @pytest.mark.parametrize("kappa, alpha, band, n, k", (
        (1, 0.7, (1e-200, 1e-190), 10, 2),
        (3, 0.3, (1e-170, 1e-160), 10, 2),
        (6, 0.7, (1e160, 1e170), 10, 2),
        (2, 0.3, (1e-154, 1e154), 1, 1),
        (4, 0.7, (1e-300, 1e7), 1, 1),
        (2, 0.3, (1e-100, 1e100), 1, 1),  # in range, but corners 1e200 apart
        # Up to the float maximum, where the hypot routes scale by 0.25.
        (1, 0.3, (1e306, 1.7e308), 8, 2),
        (2, 0.7, (1e290, 1.5e308), 8, 1),
        (7, 0.3, (1e200, 1.79e308), 8, 2),
    ))
    def test_matches_mpmath_off_the_squared_range(self, kappa, alpha, band, n, k):
        # Measured worst case over methods 1..7, orders 0.3 and 0.7, both
        # kinds and 40 points on each of these bands: 1.8e-12 dB and 8.5e-14
        # degrees, on magnitudes of up to ~3000 dB (6.8e-12 dB while the
        # hypot route subtracted two logs).  On the three bands up to the
        # float maximum, over methods 1, 2, 5, 6 and 7, k 1..2 and n = 8:
        # 2.7e-12 dB and 7.1e-14 degrees.
        grid = make_grid(*band, 9)
        pair = design_pair(DesignSpec(kappa, alpha, *band, n=n, k=k))
        for model in (pair.integrator, pair.differentiator):
            assert not factored._squares_in_range(grid, model.factors)
            with np.errstate(all="raise"):
                magnitude_db, phase_deg = log_response(model, grid)
            want_db, want_deg = mpmath_log_response(model, grid)
            assert np.max(np.abs(magnitude_db - want_db)) < 2e-11
            assert np.max(np.abs(phase_deg - want_deg)) < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", (2, 4, 5, 7))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    @pytest.mark.parametrize("band", ((1e-100, 1e100), (1e-150, 1e150), (1e-78, 1e77)))
    def test_matches_mpmath_with_corners_far_apart(self, kappa, alpha, band):
        # Every frequency and corner lies in the squared range, but one
        # factor's corners lie up to 1e300 apart, so its quotient of two
        # sums of squares would overflow or underflow.  Measured worst case
        # over these 48 models at 41 points: 4.5e-13 dB and 1.4e-14 degrees.
        grid = make_grid(*band, 41)
        pair = design_pair(DesignSpec(kappa, alpha, *band, n=1, k=1))
        for model in (pair.integrator, pair.differentiator):
            magnitude_db, phase_deg = log_response(model, grid)
            want_db, want_deg = mpmath_log_response(model, grid)
            assert np.max(np.abs(magnitude_db - want_db)) < 1e-12
            assert np.max(np.abs(phase_deg - want_deg)) < 1e-13

    @pytest.mark.parametrize("band", ((1e-200, 1e-190), (1e-170, 1e-160), (1e160, 1e170),
                                      (1e290, 1e300)))
    def test_hypot_route_takes_one_log_per_factor(self, band):
        # One log10 of each factor's hypot quotient, where the difference
        # of two logs near +-195 lost digits to cancellation.  Measured
        # worst case over methods 1..7, orders 0.3 and 0.7, both kinds and
        # these 41 points: 1.4e-12 dB (4 ulp) on the first three bands and
        # 2.7e-12 dB (5 ulp) on magnitudes of ~6000 dB on the last, where
        # two log10(hypot) terms missed by up to 6.8e-12 dB (59 ulp).
        grid = make_grid(*band, 41)
        for kappa in ALL_METHODS:
            for alpha in (0.3, 0.7):
                pair = design_pair(DesignSpec(kappa, alpha, *band))
                for model in (pair.integrator, pair.differentiator):
                    with np.errstate(all="raise"):
                        magnitude_db, phase_deg = log_response(model, grid)
                    want_db, want_deg = mpmath_log_response(model, grid)
                    miss = np.abs(magnitude_db - want_db)
                    assert np.max(miss) < 4e-12
                    assert np.max(miss / np.spacing(np.abs(want_db))) <= 8
                    assert np.max(np.abs(phase_deg - want_deg)) < 1e-12

    @pytest.mark.parametrize("z, p", ((1e-305, 1e8), (1e300, 1e-10), (1e-30, 1e300)))
    def test_corners_past_the_quotient_range_take_two_logs(self, z, p):
        # Corners more than 1e300 apart: near the smaller one the quotient
        # of the two hypot terms would leave the normal range (subnormal,
        # overflowing or zero, in this order).  Phases far below 1 degree
        # may underflow harmlessly.  Measured worst case: 1.8e-12 dB on
        # magnitudes of ~12500 dB, and 2.8e-14 degrees.
        model = FactoredModel(1.0, 0, 2, ((z, p),))
        grid = np.geomspace(min(z, p), max(z, p), 41)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            magnitude_db, phase_deg = log_response(model, grid)
        want_db, want_deg = mpmath_log_response(model, grid)
        assert np.max(np.abs(magnitude_db - want_db)) < 4e-12
        assert np.max(np.abs(phase_deg - want_deg)) < 1e-13

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        kappa=st.integers(1, 7),
        alpha=st.floats(0.01, 0.99),
        n=st.integers(1, 30),
        k=st.integers(1, 4),
        decades=st.floats(-150.0, 150.0),
    )
    def test_scaling_the_band_shifts_magnitude_and_keeps_phase(self, kappa, alpha, n, k,
                                                               decades):
        # Scaling the band by lambda scales every corner by lambda, so the
        # model at lambda * omega is the model at omega times
        # lambda**power.  Over 3000 seeded random draws the worst miss is
        # 1.2e-11 dB and 2.1e-13 degrees.
        scale = 10.0 ** decades
        grid = make_grid(1e-4, 1e4, 33)
        base = design_pair(DesignSpec(kappa, alpha, 1e-3, 1e3, n, k))
        scaled = design_pair(DesignSpec(kappa, alpha, 1e-3 * scale, 1e3 * scale, n, k))
        for kind in ("integrator", "differentiator"):
            shift_db = 20.0 * _scaling_power(kappa, alpha, kind) * math.log10(scale)
            magnitude_db, phase_deg = log_response(getattr(base, kind), grid)
            with np.errstate(all="raise"):
                scaled_db, scaled_deg = log_response(getattr(scaled, kind), grid * scale)
            assert np.max(np.abs(scaled_db - magnitude_db - shift_db)) < 5e-11
            assert np.max(np.abs(scaled_deg - phase_deg)) < 1e-12

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        kappa=st.integers(1, 7),
        alpha=st.floats(0.01, 0.99),
        n=st.integers(1, 200),
        k=st.integers(1, 8),
        low_decade=st.floats(-307.5, 307.0),
        width=st.floats(0.5, 40.0),
    )
    def test_matches_mpmath_anywhere_in_the_float_range(self, kappa, alpha, n, k,
                                                        low_decade, width):
        # Bands anywhere in the normal range up to the float maximum.  The
        # magnitude's rounding grows with the response's largest magnitude,
        # which reaches ~6000 dB far from 1 rad/s, over a floor from the
        # n * k factor terms, which stays when the band sits near 1 rad/s
        # and the response near 0 dB.  Measured worst case over 2400 random
        # draws with these strategies: 4.7e-11 dB on 6155 dB (7.4e-15 of the
        # magnitude), 1.4e-12 dB on 54 dB, 7.1e-14 dB on 0.074 dB, and
        # 1.5e-12 degrees.  7 of the draws were rejected: the matched gain
        # or its reciprocal leaves the float range near the float maximum.
        band = (10.0 ** low_decade, 10.0 ** min(low_decade + width, 308.25))
        try:
            pair = design_pair(DesignSpec(kappa, alpha, *band, n, k))
        except DomainError:
            reject()
        grid = make_grid(*band, 7)
        for model in pair:
            magnitude_db, phase_deg = log_response(model, grid)
            want_db, want_deg = mpmath_log_response(model, grid)
            bound_db = 2e-12 + 1.5e-14 * np.max(np.abs(want_db))
            assert np.max(np.abs(magnitude_db - want_db)) < bound_db
            assert np.max(np.abs(phase_deg - want_deg)) < 3e-12


class TestMultiplyAndSimplify:
    def test_complementary_integrators_collapse_to_pure_integrator(self):
        a = design_integrator(reference_spec(1, 0.4))
        b = design_integrator(reference_spec(1, 0.6))
        product = multiply_and_simplify(a, b)
        assert product.s_exponent == -1
        assert product.factors == ()
        assert product.gain == pytest.approx(1.0, abs=1e-12)

    def test_exact_reciprocal_pair_collapses_to_one(self):
        a = FactoredModel(2.0, 0, 1, ((3.0, 1.0),))
        b = FactoredModel(0.5, 0, 1, ((1.0, 3.0),))
        product = multiply_and_simplify(a, b)
        assert product == FactoredModel(1.0, 0, 1, ())

    def test_double_s_pole_is_a_shape_error(self):
        a = design_integrator(reference_spec(5, 0.4))
        b = design_integrator(reference_spec(5, 0.6))
        assert a.s_exponent == b.s_exponent == -1
        with pytest.raises(ShapeError):
            multiply_and_simplify(a, b)

    def test_mismatched_multiplicities_are_a_shape_error(self):
        a = FactoredModel(1.0, 0, 1, ((2.0, 1.0),))
        b = FactoredModel(1.0, 0, 2, ((2.0, 1.0),))
        with pytest.raises(ShapeError):
            multiply_and_simplify(a, b)

    @pytest.mark.parametrize("gains", ((1e-200, 1e-200), (1e200, 1e200), (1e-308, 1e-308)))
    def test_unrepresentable_product_gain_is_a_domain_error(self, gains):
        a = FactoredModel(gains[0], 0, 1, ((2.0, 1.0),))
        b = FactoredModel(gains[1], 0, 1, ((8.0, 4.0),))
        with pytest.raises(DomainError, match="product's gain .* cannot be represented"):
            multiply_and_simplify(a, b)

    def test_shape_error_takes_precedence_over_product_gain(self):
        a = FactoredModel(1e-200, -1, 1, ())
        b = FactoredModel(1e-200, -1, 1, ())
        with pytest.raises(ShapeError):
            multiply_and_simplify(a, b)

    def test_commutative(self):
        pair = design_pair(reference_spec(5, 0.3))
        left = multiply_and_simplify(pair.differentiator, pair.integrator)
        right = multiply_and_simplify(pair.integrator, pair.differentiator)
        assert left == right

    def test_product_evaluation_matches_pointwise_product(self):
        pair = design_pair(reference_spec(6, 0.35))
        product = multiply_and_simplify(pair.differentiator, pair.integrator)
        grid = make_grid(1e-3, 1e3, 100)
        lhs = frequency_response(product, grid)[0]
        rhs = (
            frequency_response(pair.differentiator, grid)[0]
            * frequency_response(pair.integrator, grid)[0]
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_near_cancellation_within_tolerance(self):
        a = FactoredModel(1.0, 0, 1, ((2.0, 1.0),))
        b = FactoredModel(1.0, 0, 1, ((1.0 + 1e-12, 2.0 * (1.0 + 1e-12)),))
        product = multiply_and_simplify(a, b)
        assert product.factors == ()

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorised_matching_is_bitwise_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        base = np.geomspace(1e-3, 1e3, 7)
        cases = [([], [1.0]), ([1.0], []), ([], []),
                 # a duplicated zero facing one pole: equal gaps, index order decides
                 ([2.0, 2.0], [2.0]), ([2.0], [2.0, 2.0]),
                 # two pairs at exactly the same gap, 2**-20 / (1 + 2**-20)
                 ([2.0, 1.0], [1.0 + 2.0**-20, 2.0 + 2.0**-19])]
        for _ in range(20):
            cases.append((_critical_frequencies(rng, base, rng.integers(0, 12)),
                          _critical_frequencies(rng, base, rng.integers(0, 12))))
        for zeros, poles in cases:
            for rel_tol in (0.0, 1e-9, 1e-6):
                got = factored._greedy_match(zeros, poles, rel_tol)
                assert got == reference_greedy_match(zeros, poles, rel_tol)

        models = []
        for _ in range(8):
            count, k = rng.integers(0, 8), rng.integers(1, 3)
            factors = zip(_critical_frequencies(rng, base, count),
                          _critical_frequencies(rng, base, count))
            models.append(FactoredModel(rng.uniform(0.5, 2.0), 0, k, tuple(factors)))
        pairs = [(a, b) for a in models for b in models if a.multiplicity == b.multiplicity]
        got = [multiply_and_simplify(a, b) for a, b in pairs]
        with monkeypatch.context() as patch:
            patch.setattr(factored, "_greedy_match", reference_greedy_match)
            want = [multiply_and_simplify(a, b) for a, b in pairs]
        assert got == want

    def test_distinct_factors_survive(self):
        a = FactoredModel(1.0, 0, 1, ((2.0, 1.0),))
        b = FactoredModel(1.0, 0, 1, ((8.0, 4.0),))
        product = multiply_and_simplify(a, b)
        assert product.zeros == (2.0, 8.0)
        assert product.poles == (1.0, 4.0)


class TestReciprocal:
    def test_simple_example(self):
        m = FactoredModel(2.0, 0, 1, ((3.0, 1.0),))
        assert reciprocal(m) == FactoredModel(0.5, 0, 1, ((1.0, 3.0),))

    @pytest.mark.parametrize("kappa", ALL_METHODS)
    @pytest.mark.parametrize("alpha", (0.2, 0.5, 0.8))
    def test_involution(self, kappa, alpha):
        m = design_integrator(reference_spec(kappa, alpha))
        back = reciprocal(reciprocal(m))
        assert back.s_exponent == m.s_exponent
        assert back.multiplicity == m.multiplicity
        assert back.factors == m.factors
        # IEEE-754 double reciprocal is involutive only to the last ulp.
        assert abs(back.gain - m.gain) <= math.ulp(m.gain)

    def test_high_branch_reciprocal_carries_bare_s(self):
        m = design_integrator(reference_spec(1, 0.7))
        r = reciprocal(m)
        assert m.s_exponent == -1 and r.s_exponent == 1
        assert r.zeros == m.poles and r.poles == m.zeros
        grid = make_grid(1e-3, 1e3, 100)
        product = frequency_response(m, grid)[0] * frequency_response(r, grid)[0]
        np.testing.assert_allclose(product, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4, 7))
    def test_product_with_original_is_unity_on_band(self, kappa):
        m = design_integrator(reference_spec(kappa, 0.45))
        r = reciprocal(m)
        grid = make_grid(1e-3, 1e3, 64)
        product = frequency_response(m, grid)[0] * frequency_response(r, grid)[0]
        np.testing.assert_allclose(product, 1.0, rtol=1e-13)
