"""Frequency grids, ideal operator responses and band error norms."""

import math
import sys

import numpy as np
import pytest

from conftest import reference_spec
from difint import (
    DIFFERENTIATOR,
    INTEGRATOR,
    DesignSpec,
    DomainError,
    design_integrator,
    error_series,
    exact_response,
    log_response,
    make_grid,
    reciprocal,
    sweep_table,
)

SWEEP_ALPHAS = [a / 10.0 for a in range(1, 10)]


class TestMakeGrid:
    def test_three_point_example(self):
        np.testing.assert_allclose(make_grid(0.01, 100.0, 3), [0.01, 1.0, 100.0], rtol=1e-15)

    def test_endpoints_and_log_uniformity(self):
        grid = make_grid(1e-3, 1e3, 10000)
        assert grid[0] == 1e-3 and grid[-1] == 1e3
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_odd_count_midpoint_is_band_center(self):
        grid = make_grid(1e-3, 1e3, 101)
        assert grid[50] == pytest.approx(1.0, rel=1e-13)

    def test_rejects_degenerate_input(self):
        with pytest.raises(DomainError):
            make_grid(1.0, 10.0, 1)
        with pytest.raises(DomainError):
            make_grid(10.0, 1.0, 5)

    @pytest.mark.parametrize("band, message", (
        ((1e-300, 1e300), "band ratio omega_h / omega_l must be finite"),
        ((1e-3, float("inf")), "band must satisfy 0 < omega_l < omega_h"),
        ((float("nan"), 1.0), "band must satisfy 0 < omega_l < omega_h"),
        ((0.0, 1.0), "band must satisfy 0 < omega_l < omega_h"),
        ((1e-310, 1e-300), "smallest normal float"),
    ))
    def test_rejects_bands_as_design_spec_does(self, band, message):
        # The same rule and text as DesignSpec: no grid with inf points.
        with pytest.raises(DomainError, match=message) as grid_err:
            make_grid(*band, 5)
        with pytest.raises(DomainError) as spec_err:
            DesignSpec(1, 0.3, *band)
        assert str(grid_err.value) == str(spec_err.value)

    def test_accepts_smallest_normal_lower_edge(self):
        grid = make_grid(sys.float_info.min, 1.0, 5)
        assert grid[0] == sys.float_info.min and grid[-1] == 1.0
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)

    @pytest.mark.parametrize("low", (9.723530853358486, 1e300, 1.7976931348623e308))
    def test_accepts_the_float_maximum_as_upper_edge(self, low):
        # omega_l * ratio rounds past the float maximum, and on the last
        # band, 1.2e-14 relative wide, so do 12 interior points: no overflow
        # warning (an error under this suite's filter), no inf point, and
        # the edges are kept exactly.
        grid = make_grid(low, sys.float_info.max, 1000)
        assert grid[0] == low and grid[-1] == sys.float_info.max
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) >= 0.0)

    @pytest.mark.parametrize("count", (2.5, 3.0, True, "3"))
    def test_rejects_non_integral_count(self, count):
        with pytest.raises(DomainError):
            make_grid(1.0, 10.0, count)

    def test_accepts_numpy_integer_count(self):
        np.testing.assert_array_equal(make_grid(1.0, 10.0, np.int64(5)), make_grid(1.0, 10.0, 5))

    # numpy refuses both counts outright: the first needs about 711 PiB,
    # the second is past its own size limit.
    @pytest.mark.parametrize("count", (10**17, 10**20))
    def test_rejects_a_count_too_long_to_allocate(self, count):
        with pytest.raises(DomainError, match=f"^a grid of {count} points is too long to allocate$"):
            make_grid(1.0, 10.0, count)


class TestExactResponse:
    def test_half_order_integrator_at_one(self):
        magnitude_db, phase_deg = exact_response(0.5, INTEGRATOR, [1.0])
        assert magnitude_db[0] == pytest.approx(0.0, abs=1e-15)
        assert phase_deg[0] == pytest.approx(-45.0)

    def test_differentiator_sample(self):
        magnitude_db, phase_deg = exact_response(0.3, DIFFERENTIATOR, np.array([10.0, 1e3]))
        np.testing.assert_allclose(magnitude_db, [6.0, 18.0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(phase_deg, [27.0, 27.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_integrator_times_differentiator_is_unity(self, seed):
        # In dB and degrees the product I * D = 1 is a sum that vanishes.
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.05, 0.95))
        omegas = 10.0 ** rng.uniform(-3, 3, size=50)
        mag_i, phase_i = exact_response(alpha, INTEGRATOR, omegas)
        mag_d, phase_d = exact_response(alpha, DIFFERENTIATOR, omegas)
        np.testing.assert_allclose(mag_i + mag_d, 0.0, atol=1e-13)
        np.testing.assert_allclose(phase_i + phase_d, 0.0, atol=1e-13)

    def test_rejects_bad_arguments(self):
        for omega in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(DomainError, match="^all frequencies must be finite and > 0$"):
                exact_response(0.5, INTEGRATOR, [1.0, omega])
        with pytest.raises(DomainError):
            exact_response(1.2, INTEGRATOR, [1.0])
        with pytest.raises(DomainError):
            exact_response(0.5, "other", [1.0])


class TestErrorSeries:
    def test_reciprocal_antisymmetry(self):
        model = design_integrator(reference_spec(1, 0.4))
        grid = make_grid(1e-3, 1e3, 501)
        forward_mag, forward_phase = error_series(model, 0.4, INTEGRATOR, grid)
        mirrored_mag, mirrored_phase = error_series(reciprocal(model), 0.4, DIFFERENTIATOR, grid)
        np.testing.assert_allclose(mirrored_mag, -forward_mag, atol=1e-11)
        assert np.max(np.abs(mirrored_mag)) == pytest.approx(np.max(np.abs(forward_mag)), rel=1e-10)
        assert np.sqrt(np.sum(mirrored_phase**2)) == pytest.approx(
            np.sqrt(np.sum(forward_phase**2)), rel=1e-10)

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    def test_zero_error_at_band_center(self, kappa):
        model = design_integrator(reference_spec(kappa, 0.3))
        grid = make_grid(1e-3, 1e3, 101)  # odd count puts a sample at the center
        magnitude_error_db, _ = error_series(model, 0.3, INTEGRATOR, grid)
        assert abs(magnitude_error_db[50]) < 1e-10

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4, 5, 6, 7))
    def test_phase_error_bounded_by_quadrant(self, kappa):
        model = design_integrator(reference_spec(kappa, 0.6))
        grid = make_grid(1e-3, 1e3, 400)
        _, phase_error_deg = error_series(model, 0.6, INTEGRATOR, grid)
        assert np.max(np.abs(phase_error_deg)) < 90.0

    def test_returns_exact_minus_model_pair(self):
        model = design_integrator(reference_spec(2, 0.5))
        grid = make_grid(1e-3, 1e3, 64)
        exact_mag, exact_phase = exact_response(0.5, INTEGRATOR, grid)
        mag_db, phase_deg = log_response(model, grid)
        magnitude_error_db, phase_error_deg = error_series(model, 0.5, INTEGRATOR, grid)
        np.testing.assert_array_equal(magnitude_error_db, exact_mag - mag_db)
        np.testing.assert_array_equal(phase_error_deg, exact_phase - phase_deg)

    def test_inf_norm_never_exceeds_two_norm(self):
        row = sweep_table(2, INTEGRATOR, [0.8], count=64)
        assert row.mag_norm_inf <= row.mag_norm_two
        assert row.phase_norm_inf <= row.phase_norm_two


class TestSweepTable:
    def test_method2_integrator_reference_values(self):
        row = sweep_table(2, INTEGRATOR, SWEEP_ALPHAS)
        assert row.mag_norm_inf == pytest.approx(0.4533, rel=5e-3)
        assert row.phase_norm_inf == pytest.approx(14.0, rel=1e-2)

    def test_collapsed_methods_match_their_targets(self):
        for kind in (INTEGRATOR, DIFFERENTIATOR):
            row3 = sweep_table(3, kind, SWEEP_ALPHAS, count=2000)
            row1 = sweep_table(1, kind, SWEEP_ALPHAS, count=2000)
            assert row3 == row1 or (
                row3.mag_norm_inf == pytest.approx(row1.mag_norm_inf, rel=1e-10)
                and row3.mag_norm_two == pytest.approx(row1.mag_norm_two, rel=1e-10)
                and row3.phase_norm_inf == pytest.approx(row1.phase_norm_inf, rel=1e-10)
                and row3.phase_norm_two == pytest.approx(row1.phase_norm_two, rel=1e-10)
            )

    def test_classic_recursive_pair_shares_its_norms(self):
        # The method-5 differentiator and method-7 models are mutual mirrors
        # on a geometrically symmetric band, so their rows coincide.
        row5 = sweep_table(5, DIFFERENTIATOR, SWEEP_ALPHAS, count=2000)
        row7 = sweep_table(7, DIFFERENTIATOR, SWEEP_ALPHAS, count=2000)
        assert row5.mag_norm_inf == pytest.approx(row7.mag_norm_inf, rel=1e-9)
        assert row5.phase_norm_two == pytest.approx(row7.phase_norm_two, rel=1e-9)

    @pytest.mark.parametrize("kappa", (1, 2, 4, 7))
    def test_integrator_and_differentiator_rows_match(self, kappa):
        left = sweep_table(kappa, INTEGRATOR, (0.2, 0.5, 0.7), count=1500)
        right = sweep_table(kappa, DIFFERENTIATOR, (0.2, 0.5, 0.7), count=1500)
        assert left.mag_norm_inf == pytest.approx(right.mag_norm_inf, rel=1e-12)
        assert left.mag_norm_two == pytest.approx(right.mag_norm_two, rel=1e-12)
        assert left.phase_norm_inf == pytest.approx(right.phase_norm_inf, rel=1e-12)
        assert left.phase_norm_two == pytest.approx(right.phase_norm_two, rel=1e-12)

    def test_interior_error_strictly_decreases_with_model_size(self):
        # Adding sections at a fixed band tightens the staircase towards the
        # band-limited operator, whose error against the ideal is
        # 10*log10(2)*alpha dB and 45*alpha degrees at the band edges (every
        # corner lies inside the band).  The phase maximum sits on a band
        # edge and falls towards 13.5 degrees; at n = 20 it is only 4.9e-5
        # degrees above it.  The interior magnitude norm at n = 20
        # (0.0120 dB) already sits at the band-limiting floor one decade
        # inside the band (0.0130 dB); at n = 40 it is 0.0127 dB, so this
        # strict ordering holds only up to n = 20.
        from difint import DesignSpec, design_integrator, error_series, make_grid

        interior = make_grid(1e-2, 1e2, 4000)
        mags, phases = [], []
        for n in (5, 10, 20):
            model = design_integrator(DesignSpec(1, 0.3, 1e-3, 1e3, n, 2))
            magnitude_error_db, _ = error_series(model, 0.3, INTEGRATOR, interior)
            mags.append(np.max(np.abs(magnitude_error_db)))
            _, phase_error_deg = error_series(model, 0.3, INTEGRATOR, make_grid(1e-3, 1e3, 4000))
            phases.append(np.max(np.abs(phase_error_deg)))
        assert mags[0] > mags[1] > mags[2]
        assert phases[0] > phases[1] > phases[2]

    def test_rejects_empty_sweep(self):
        with pytest.raises(DomainError):
            sweep_table(1, INTEGRATOR, ())
