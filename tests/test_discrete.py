"""Bilinear discretization, cascade simulation and identity experiments."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import reference_spec
from difint import (
    DesignSpec,
    DomainError,
    FactoredModel,
    ShapeError,
    design_pair,
    discretize,
    identity_experiment,
    multiply_and_simplify,
    simulate_filter,
)
from difint import discrete
from difint.discrete import DiscreteFilter, FilterSection


def reference_simulate(filt, samples, lookahead=None):
    """One lfilter pass per first-order section: the reference the sosfilt
    passes must reproduce bit for bit."""
    from scipy.signal import lfilter

    u = np.asarray(samples, dtype=float)
    if filt.central_difference:
        pre, post = lookahead
        extended = np.concatenate(([pre], u, [post]))
        y = (extended[2:] - extended[:-2]) / (2.0 * filt.sample_period)
    else:
        y = u.copy()
    for section in filt.sections:
        y = lfilter([section.b0, section.b1], [1.0, section.a1], y)
    return y


def assert_bitwise_reference(model, h=0.001, counts=(1, 2, 1000, 10000)):
    filt = discretize(model, h)
    for count in counts:
        t = np.arange(count) * h
        u = np.sin(t)
        need = None
        if filt.central_difference:
            need = (math.sin(-h), math.sin(t[-1] + h))
        got = simulate_filter(filt, u, need)
        assert np.array_equal(got, reference_simulate(filt, u, need))
    return filt


class TestDiscretize:
    def test_section_coefficients_are_exact_rationals(self):
        filt = discretize(FactoredModel(1.0, 0, 1, ((1.0, 2.0),)), 0.001)
        section = filt.sections[0]
        assert section.b0 == pytest.approx(2001.0 / 2002.0, rel=1e-15)
        assert section.b1 == pytest.approx(-1999.0 / 2002.0, rel=1e-15)
        assert section.a1 == pytest.approx(-1998.0 / 2002.0, rel=1e-15)
        assert filt.central_difference is False

    def test_multiplicity_repeats_sections(self):
        filt = discretize(FactoredModel(1.0, 0, 2, ((1.0, 2.0), (4.0, 3.0))), 0.01)
        assert len(filt.sections) == 4

    def test_net_s_powers(self):
        accumulator = FilterSection(0.05, 0.05, -1.0)  # Tustin map of 1/(s + 0)
        assert discretize(FactoredModel(1.0, -1), 0.1) == DiscreteFilter((accumulator,), False, 0.1)
        assert discretize(FactoredModel(1.0, 1), 0.1) == DiscreteFilter((), True, 0.1)
        assert discretize(FactoredModel(1.0, 0), 0.1) == DiscreteFilter((), False, 0.1)
        static_gain = FilterSection(2.0, 0.0, 0.0)
        assert discretize(FactoredModel(2.0, 0), 0.1) == DiscreteFilter((static_gain,), False, 0.1)

    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_integrator_leads_with_the_accumulator_section(self, kappa, alpha):
        # 1/s is the factor 1/(s + p) at p = 0: its section (h/2, h/2, -1)
        # runs first, then the gain-folded factor sections of the same model
        # without its s power.  Only a net s takes a central difference.
        h = 0.001
        pair = design_pair(reference_spec(kappa, alpha))
        for model in (pair.integrator, pair.differentiator):
            filt = discretize(model, h)
            factors = discretize(FactoredModel(model.gain, 0, model.multiplicity, model.factors), h)
            if model.s_exponent == -1:
                assert filt.sections == (FilterSection(h / 2.0, h / 2.0, -1.0),) + factors.sections
            else:
                assert filt.sections == factors.sections
            assert filt.central_difference is (model.s_exponent == 1)

    @pytest.mark.parametrize("model, h", (
        (FactoredModel(1.0), 0.0),
        (FactoredModel(1.0), -1.0),
        (FactoredModel(1.0), math.nan),
        # At h = inf the accumulator would be (inf, inf, -1) and method 1's
        # sections would have a1 = 1.0.
        (FactoredModel(1.0, -1), math.inf),
        (design_pair(reference_spec(1, 0.3)).integrator, math.inf),
        # 2/h overflows, so every factor section is NaN.
        (design_pair(reference_spec(1, 0.3)).integrator, 1e-309),
        # 2/h + p overflows, so b0 is NaN.
        (FactoredModel(1.0, 0, 1, ((1e308, 1.5e308),)), 1.2e-308),
    ))
    def test_rejects_bad_sample_period(self, model, h):
        with pytest.raises(DomainError, match="sample period"):
            discretize(model, h)

    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("alpha", (0.2, 0.5, 0.8))
    def test_designed_sections_strictly_stable(self, kappa, alpha):
        pair = design_pair(reference_spec(kappa, alpha))
        for model in (pair.integrator, pair.differentiator):
            sections = discretize(model, 0.001).sections
            if model.s_exponent == -1:
                # Only the leading accumulator of 1/s sits on the unit circle.
                assert sections[0].a1 == -1.0
                sections = sections[1:]
            assert all(abs(s.a1) < 1.0 for s in sections)


class TestSimulateFilter:
    def test_static_gain_on_constant_input(self):
        filt = discretize(FactoredModel(2.0, 0), 0.001)
        out = simulate_filter(filt, np.ones(5))
        np.testing.assert_array_equal(out, 2.0 * np.ones(5))

    def test_passthrough_is_bitwise(self):
        filt = discretize(FactoredModel(1.0, 0), 0.001)
        u = np.sin(np.arange(7) * 0.3)
        out = simulate_filter(filt, u)
        np.testing.assert_array_equal(out, u)

    def test_trapezoid_first_samples(self):
        filt = discretize(FactoredModel(1.0, -1), 0.001)
        out = simulate_filter(filt, np.ones(3))
        np.testing.assert_allclose(out, [0.0005, 0.0015, 0.0025], rtol=1e-15)

    def test_trapezoid_accuracy_against_closed_form(self):
        # Trapezoid global error for the sine integral stays near T*h*h/12.
        h = 0.001
        t = np.arange(int(round(20.0 / h)) + 1) * h
        filt = discretize(FactoredModel(1.0, -1), h)
        out = simulate_filter(filt, np.sin(t))
        assert np.max(np.abs(out - (1.0 - np.cos(t)))) < 1e-5

    def test_central_difference_accuracy(self):
        h = 0.001
        t = np.arange(2001) * h
        filt = discretize(FactoredModel(1.0, 1), h)
        out = simulate_filter(filt, np.sin(t), lookahead=(math.sin(-h), math.sin(t[-1] + h)))
        assert np.max(np.abs(out - np.cos(t))) < 1e-6

    def test_lookahead_contract(self):
        u = np.zeros(4)
        with pytest.raises(ValueError):
            simulate_filter(discretize(FactoredModel(1.0, 1), 0.1), u)
        with pytest.raises(ValueError):
            simulate_filter(discretize(FactoredModel(1.0, 0), 0.1), u, lookahead=(0.0, 0.0))

    @pytest.mark.parametrize(
        "model, lookahead",
        [
            (FactoredModel(1.0, 0), None),  # no sections
            (FactoredModel(2.0, 0), None),  # gain-only section
            (FactoredModel(1.0, -1), None),  # accumulator section
            (FactoredModel(1.0, 1), (0.5, -0.5)),  # central difference
            (FactoredModel(2.0, 0, 2, ((1.0, 2.0),)), None),
        ],
    )
    def test_empty_input_gives_empty_output(self, model, lookahead):
        out = simulate_filter(discretize(model, 0.1), np.array([]), lookahead)
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("samples", [1.0, np.ones((2, 3))])
    def test_rejects_input_that_is_not_one_dimensional(self, samples):
        with pytest.raises(ValueError, match="1-D"):
            simulate_filter(discretize(FactoredModel(2.0, 0), 0.1), samples)


class TestCascadeKernel:
    @pytest.mark.parametrize(
        "model, central_difference, sections",
        [
            (FactoredModel(1.0, 0), False, 0),  # identity
            (FactoredModel(2.5, 0), False, 1),  # gain-only section
            (FactoredModel(1.0, -1), False, 1),  # accumulator section
            (FactoredModel(3.0, -1), False, 2),  # accumulator, then gain-only
            (FactoredModel(1.0, 1), True, 0),
            (FactoredModel(0.5, 1), True, 1),
            (FactoredModel(2.0, 0, 3, ((1.0, 2.0), (40.0, 30.0))), False, 6),
            (FactoredModel(2.0, -1, 2, ((1.0, 2.0),)), False, 3),
        ],
    )
    def test_every_net_s_power_is_bitwise_reference(self, model, central_difference, sections):
        filt = assert_bitwise_reference(model)
        assert filt.central_difference is central_difference
        assert len(filt.sections) == sections

    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_designed_cascades_are_bitwise_reference(self, kappa, k):
        # Orders 0.3 and 0.7 give every net s power on methods 1..4;
        # simplified products add the gain-only and section-free cases.
        for alpha in (0.3, 0.7):
            pair = design_pair(reference_spec(kappa, alpha, k=k))
            models = [pair.integrator, pair.differentiator]
            try:
                models.append(multiply_and_simplify(pair.differentiator, pair.integrator))
            except ShapeError:
                pass
            for model in models:
                assert_bitwise_reference(model)


def public_sosfilt(filt, samples, lookahead=None):
    """The cascade through public ``scipy.signal.sosfilt``, one row per
    section: the reference the direct kernel calls must reproduce bit for bit."""
    from scipy.signal import sosfilt

    u = np.asarray(samples, dtype=float)
    rows = [[s.b0, s.b1, 0.0, 1.0, s.a1, 0.0] for s in filt.sections]
    if filt.central_difference:
        pre, post = lookahead
        extended = np.concatenate(([pre], u, [post]))
        u = (extended[2:] - extended[:-2]) / (2.0 * filt.sample_period)
    return sosfilt(np.array(rows), u)


def with_head(sections, head, h):
    """``sections`` as a filter with the given head: none, the accumulator
    section of 1/s in front, or a central difference."""
    if head == "accumulator":
        sections = (FilterSection(h / 2.0, h / 2.0, -1.0),) + sections
    return DiscreteFilter(sections, head == "central_difference", h)


def random_cascade(rng, head):
    """A seeded stable cascade of 1..130 sections and an input of 1..60k
    samples, some of them signed zeros."""
    sections = tuple(
        FilterSection(float(rng.normal()), float(rng.normal()), float(rng.uniform(-0.999, 0.999)))
        for _ in range(int(rng.integers(1, 131)))
    )
    count = int(rng.integers(1, 60_001))
    u = rng.normal(size=count)
    u[rng.random(count) < 0.05] = 0.0
    u[rng.random(count) < 0.05] = -0.0
    lookahead = tuple(rng.normal(size=2)) if head == "central_difference" else None
    return with_head(sections, head, float(rng.uniform(1e-4, 0.1))), u, lookahead


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


HEADS = ("none", "accumulator", "central_difference")


class TestCompiledKernel:
    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cascades_are_bitwise_public_sosfilt(self, head, seed):
        rng = np.random.default_rng([seed, HEADS.index(head)])
        filt, u, lookahead = random_cascade(rng, head)
        assert_same_bits(simulate_filter(filt, u, lookahead), public_sosfilt(filt, u, lookahead))

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("sections, count", [(1, 1), (130, 1), (1, 60_000), (130, 60_000)])
    def test_extreme_sizes_are_bitwise_public_sosfilt(self, head, sections, count):
        rng = np.random.default_rng(sections + count)
        section = FilterSection(0.3, -0.2, -0.95)
        filt = with_head((section,) * sections, head, 0.001)
        u = rng.normal(size=count)
        lookahead = (0.1, -0.1) if head == "central_difference" else None
        assert_same_bits(simulate_filter(filt, u, lookahead), public_sosfilt(filt, u, lookahead))

    def test_missing_scipy_is_module_not_found(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.signal._sosfilt", raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)  # find_spec("scipy") -> None
        filt = discretize(FactoredModel(2.0, 0), 0.1)
        with pytest.raises(ModuleNotFoundError, match="scipy") as caught:
            simulate_filter(filt, np.ones(3))
        assert caught.value.name == "scipy"

    def test_input_is_not_modified(self):
        u = np.linspace(-1.0, 1.0, 50)
        kept = u.copy()
        simulate_filter(discretize(FactoredModel(2.0, -1, 1, ((1.0, 2.0),)), 0.01), u)
        np.testing.assert_array_equal(u, kept)


PASS = discrete._PASS_SECTIONS
PASS_EDGE_COUNTS = (1, PASS - 1, PASS, PASS + 1, 2 * PASS + 1, 3 * PASS + 1)


def edge_cascade(head, sections):
    """A seeded stable filter of exactly ``sections`` rows, the head's
    accumulator included, and an input with signed zeros."""
    rng = np.random.default_rng([sections, HEADS.index(head)])
    h = 0.001
    body = tuple(
        FilterSection(float(rng.normal()), float(rng.normal()), float(rng.uniform(-0.99, 0.99)))
        for _ in range(sections - (head == "accumulator"))
    )
    u = rng.normal(size=5000)
    u[::7] = -0.0
    u[3::11] = 0.0
    lookahead = (0.2, -0.3) if head == "central_difference" else None
    return with_head(body, head, h), u, lookahead


class TestKernelPasses:
    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("sections", PASS_EDGE_COUNTS)
    def test_pass_edges_are_bitwise_public_sosfilt(self, head, sections):
        filt, u, lookahead = edge_cascade(head, sections)
        assert len(filt.sections) == sections
        assert_same_bits(simulate_filter(filt, u, lookahead), public_sosfilt(filt, u, lookahead))

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("sections", PASS_EDGE_COUNTS + (130,))
    def test_each_pass_holds_at_most_pass_rows(self, monkeypatch, head, sections):
        kernel = discrete._sosfilt_kernel()
        rows_per_call = []

        def recording(sos, x, zi):
            rows_per_call.append(len(sos))
            return kernel(sos, x, zi)

        monkeypatch.setattr(discrete, "_sosfilt_kernel", lambda: recording)
        filt, u, lookahead = edge_cascade(head, sections)
        simulate_filter(filt, u, lookahead)
        assert len(rows_per_call) == math.ceil(sections / PASS)
        assert max(rows_per_call) <= PASS
        assert sum(rows_per_call) == sections
        assert max(rows_per_call) - min(rows_per_call) <= 1  # split evenly


# Runs in a fresh interpreter: the kernel loaded alone and scipy.signal must
# share one extension module, and give the same bits, in either import order.
_IMPORT_ORDER_PROBE = """
import hashlib, json, sys
import numpy as np
from difint.discrete import DiscreteFilter, FilterSection, simulate_filter

accumulator = FilterSection(0.005, 0.005, -1.0)
filt = DiscreteFilter((accumulator,) + (FilterSection(0.7, -0.4, -0.9),) * 12, False, 0.01)
u = np.sin(np.arange(5000) * 0.01)
rows = np.array([[0.005, 0.005, 0.0, 1.0, -1.0, 0.0]] + [[0.7, -0.4, 0.0, 1.0, -0.9, 0.0]] * 12)

def digest(y):
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()

outputs = []
alone = None
if sys.argv[1] == "kernel-first":
    outputs.append(digest(simulate_filter(filt, u)))
    alone = "scipy.signal._sosfilt" in sys.modules and "scipy.signal" not in sys.modules
    import scipy.signal
    outputs.append(digest(scipy.signal.sosfilt(rows, u)))
else:
    import scipy.signal
    outputs.append(digest(scipy.signal.sosfilt(rows, u)))
    outputs.append(digest(simulate_filter(filt, u)))
outputs.append(digest(simulate_filter(filt, u)))
shared = sys.modules["scipy.signal._sosfilt"]._sosfilt is scipy.signal._signaltools._sosfilt
print(json.dumps({"outputs": outputs, "shared": shared, "alone": alone}))
"""


class TestKernelImportOrder:
    def test_either_order_shares_one_module_and_gives_the_same_bits(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        outputs = []
        for order in ("kernel-first", "scipy-signal-first"):
            proc = subprocess.run([sys.executable, "-c", _IMPORT_ORDER_PROBE, order], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            report = json.loads(proc.stdout)
            assert report["shared"] is True, order
            if order == "kernel-first":
                assert report["alone"] is True  # loaded without scipy.signal
            assert proc.stderr == "", order
            outputs.extend(report["outputs"])
        assert len(outputs) == 6 and len(set(outputs)) == 1


class TestCascadeEquivalence:
    def test_product_equals_cascade_without_cancellation(self):
        pair = design_pair(reference_spec(5, 0.4))
        h = 0.001
        t = np.arange(10001) * h
        u = np.sin(t)
        product = multiply_and_simplify(pair.differentiator, pair.integrator)
        combined = simulate_filter(discretize(product, h), u)
        staged = simulate_filter(
            discretize(pair.differentiator, h),
            simulate_filter(discretize(pair.integrator, h), u),
        )
        np.testing.assert_allclose(combined, staged, atol=1e-12)


class TestIdentityExperiment:
    def test_piecewise_methods_hit_discretization_floor(self):
        results = identity_experiment(1, 0.4)
        assert results["x"].inf_norm <= 1e-4
        assert results["y"].inf_norm <= 1e-4
        assert results["z"].inf_norm <= 1e-4

    def test_method7_inverse_law_is_exact(self):
        results = identity_experiment(7, 0.4)
        assert results["y"].inf_norm <= 1e-13

    def test_half_order_behavior_for_method1(self):
        results = identity_experiment(1, 0.5)
        assert results["y"].inf_norm <= 1e-12
        assert results["x"].inf_norm > 1e-3
        assert results["z"].inf_norm == pytest.approx(1.0, abs=1e-3)

    def test_initial_error_of_biproper_chain_is_exactly_one(self):
        # u(0) = 0, so a biproper cascade outputs 0 at t = 0 while the
        # target cos starts at 1.
        results = identity_experiment(5, 0.4)
        assert results["z"].error[0] == 1.0
        assert results["z"].inf_norm == pytest.approx(1.0, abs=1e-3)

    def test_cascade_study_mode_matches_simplified_floor(self):
        results = identity_experiment(1, 0.4, cascade=True)
        assert results["x"].inf_norm <= 1e-4
        assert results["y"].inf_norm <= 1e-4
        assert results["z"].inf_norm <= 1e-4

    def test_result_shapes_and_norms(self):
        results = identity_experiment(2, 0.3, sample_period=0.01, duration=2.0)
        res = results["x"]
        assert len(res.time) == 201
        assert res.time[-1] == pytest.approx(2.0)
        np.testing.assert_array_equal(res.error, res.exact - res.approx)
        assert res.inf_norm == pytest.approx(np.max(np.abs(res.error)))
        assert res.two_norm == pytest.approx(math.sqrt(np.sum(res.error**2)))

    @pytest.mark.parametrize("kappa", (1, 2, 3, 4))
    @pytest.mark.parametrize("alpha", (0.3, pytest.param(0.7, marks=pytest.mark.xfail(
        strict=True,
        reason="above 0.5 law ii's two stages assume different pasts for the input: "
               "D(alpha) runs first and takes a central difference with the analytic "
               "lookahead sin(-h), so its output starts at 1, while I(alpha)'s "
               "trapezoid accumulator starts from a zero past and adds h/2 in its "
               "first step; the output misses sin(t) by -h/2 from the first sample"))))
    def test_cascade_mode_inverse_law_hits_discretization_floor(self, kappa, alpha):
        # Measured: 1.6e-12 at 0.3, a constant -5.0e-4 at 0.7 (h = 1e-3).
        results = identity_experiment(kappa, alpha, sample_period=1e-3, cascade=True)
        assert results["y"].inf_norm <= 1e-6

    def test_rejects_bad_horizon(self):
        with pytest.raises(DomainError):
            identity_experiment(1, 0.4, duration=0.0)

    @pytest.mark.parametrize("sample_period, duration", (
        (0.001, math.inf), (math.inf, 10.0), (math.inf, math.inf),
        (1e-10, 1e300), (math.nan, 10.0), (0.001, math.nan),
    ))
    def test_rejects_non_finite_horizon_or_sample_period(self, sample_period, duration):
        with pytest.raises(DomainError, match="sample period and duration"):
            identity_experiment(1, 0.4, sample_period=sample_period, duration=duration)

    # Sizes numpy refuses outright: 711 PiB of samples, and a count past its
    # array size limit.
    @pytest.mark.parametrize("duration, count", ((1e14, "100000000000000001"),
                                                 (1e20, "99999999999999991611393")))
    def test_rejects_a_horizon_too_long_to_allocate(self, duration, count):
        with pytest.raises(DomainError, match=f"a horizon of {count} samples is too long"):
            identity_experiment(1, 0.4, duration=duration)


# Runs one experiment in a fresh interpreter, whose time base cache is
# empty, and saves every signal of every law.
_COLD_EXPERIMENT_PROBE = """
import sys
import numpy as np
from difint import identity_experiment

results = identity_experiment(3, 0.7, k=2, duration=float(sys.argv[1]), cascade=True)
np.savez(sys.argv[2], **{f"{name}_{field}": getattr(res, field)
                         for name, res in results.items() for field in sys.argv[3:]})
"""

SIGNAL_FIELDS = ("time", "input_signal", "exact", "approx", "error")


class TestTimeBase:
    def test_time_base_is_read_only(self):
        res = identity_experiment(1, 0.3, duration=0.1)
        t, u, c, one_minus_c, _ = discrete._time_base(0.001, 0.1)
        assert not any(array.flags.writeable for array in (t, u, c, one_minus_c))
        with pytest.raises(ValueError, match="read-only"):
            res["x"].time[0] = 1.0
        assert res["x"].time[0] == 0.0

    def test_calls_at_one_horizon_share_it(self):
        first = identity_experiment(1, 0.3, duration=0.1)
        second = identity_experiment(5, 0.7, duration=0.1, cascade=True)
        for name in discrete.EXPERIMENTS:
            for field in ("time", "input_signal", "exact"):
                assert getattr(second[name], field) is getattr(first[name], field)
        assert first["y"].exact is first["y"].input_signal

    def test_interleaved_horizons_are_bitwise_a_cold_run(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        cold = {}
        for duration in (50.0, 2.0):
            path = tmp_path / f"cold-{duration}.npz"
            subprocess.run([sys.executable, "-c", _COLD_EXPERIMENT_PROBE, str(duration),
                            str(path), *SIGNAL_FIELDS],
                           env=env, capture_output=True, timeout=120, check=True)
            with np.load(path) as saved:
                cold[duration] = dict(saved)
        for duration in (50.0, 2.0, 50.0):
            results = identity_experiment(3, 0.7, k=2, duration=duration, cascade=True)
            for name, res in results.items():
                for field in SIGNAL_FIELDS:
                    assert np.array_equal(getattr(res, field), cold[duration][f"{name}_{field}"])

    @pytest.mark.parametrize("sample_period, duration", (
        (0.001, 1e14), (0.001, math.inf), (0.001, 0.0), (1e-309, 1e-305),
    ))
    def test_a_rejected_horizon_leaves_the_next_call_alone(self, sample_period, duration):
        want = identity_experiment(5, 0.3, duration=0.1)
        with pytest.raises(DomainError):
            identity_experiment(5, 0.3, sample_period=sample_period, duration=duration)
        got = identity_experiment(5, 0.3, duration=0.1)
        for name in discrete.EXPERIMENTS:
            assert got[name].time is want[name].time
            assert np.array_equal(got[name].approx, want[name].approx)
            assert got[name].two_norm == want[name].two_norm


def reference_run_composite(first, second, u, h, lookahead, force_cascade):
    """The composite runner as written before it treated the simplified
    product as a one-stage cascade: the reference it must reproduce bit for
    bit."""
    if not force_cascade:
        try:
            product = multiply_and_simplify(first, second)
        except ShapeError:
            pass
        else:
            filt = discretize(product, h)
            need = lookahead if filt.central_difference else None
            return simulate_filter(filt, u, need)
    stages = [second, first]
    stages.sort(key=lambda m: -m.s_exponent)
    y = u
    for stage in stages:
        filt = discretize(stage, h)
        need = lookahead if filt.central_difference else None
        y = simulate_filter(filt, y, need)
    return y


class TestIdentityExperimentReference:
    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("cascade", (False, True))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    @pytest.mark.parametrize("k", (1, 2))
    def test_laws_and_runner_match_the_written_out_experiments(self, kappa, cascade, alpha, k):
        h = 0.001
        spec = reference_spec(kappa, alpha, k=k)
        pair = design_pair(spec)
        pair_c = design_pair(spec.complement())
        t = np.arange(10001) * h
        u = np.sin(t)
        lookahead = (math.sin(-h), math.sin(t[-1] + h))
        experiments = {
            "x": (pair.integrator, pair_c.integrator),
            "y": (pair.differentiator, pair.integrator),
            "z": (pair.differentiator, pair_c.differentiator),
        }
        exact = {"x": 1.0 - np.cos(t), "y": np.sin(t), "z": np.cos(t)}
        results = identity_experiment(kappa, alpha, k=k, sample_period=h, duration=10.0,
                                      cascade=cascade)
        assert list(results) == list(experiments)
        for name, (first, second) in experiments.items():
            expected = reference_run_composite(first, second, u, h, lookahead, cascade)
            result = results[name]
            assert np.array_equal(result.time, t) and np.array_equal(result.input_signal, u)
            assert np.array_equal(result.approx, expected)
            assert np.array_equal(result.exact, exact[name])
            assert np.array_equal(result.error, exact[name] - expected)

    # Stages filtered for the three laws in simplified mode.  Law i of
    # methods 5 and 6 composes two 1/s heads, which no simplified product
    # holds, so it still runs as a two-stage cascade.
    SIMPLIFIED_STAGES = {1: 3, 2: 3, 3: 3, 4: 3, 5: 4, 6: 4, 7: 3}

    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("cascade", (False, True))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_a_shared_first_stage_is_filtered_once(self, monkeypatch, kappa, cascade, alpha):
        # In cascade mode methods 1..4 open two laws with one stage: I(alpha)
        # laws i and ii below 0.5, D(alpha) laws ii and iii above, so their
        # six stages are five filters.  No two methods 5..7 laws share one.
        # The lanes may filter a stage in several slices; together they
        # cover its sections once, in order.
        slices = []
        real = discrete._filter_slice

        def recording(filt, lo, hi, samples, lookahead):
            slices.append((filt, lo, hi, real(filt, lo, hi, samples, lookahead)))
            return slices[-1][-1]

        monkeypatch.setattr(discrete, "_filter_slice", recording)
        results = identity_experiment(kappa, alpha, duration=1.0, cascade=cascade)
        filters = []
        for filt, *_ in slices:
            if not any(filt is seen for seen in filters):
                filters.append(filt)
        if cascade:
            assert len(filters) == (5 if kappa <= 4 else 6)
        else:
            assert len(filters) == self.SIMPLIFIED_STAGES[kappa]
        for filt in filters:
            edges = sorted((lo, hi) for other, lo, hi, _ in slices if other is filt)
            assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]]
            assert edges[-1][1] == len(filt.sections)
        approx = [result.approx for result in results.values()]
        stages = [y for *_, y in slices if not any(y is a for a in approx)]
        for i, a in enumerate(approx):
            for other in approx[i + 1:] + stages:
                assert not np.shares_memory(a, other)


def serial_identity_experiment(kappa, alpha, k, h, duration, cascade):
    """The three laws run one after another in one thread, a shared first
    stage's output kept until the last law that reads it: the reference the
    planned, two-thread run must reproduce bit for bit."""
    spec = reference_spec(kappa, alpha, k=k)
    operands = discrete.law_operands(spec, ("i", "ii", "iii"))
    t = np.arange(int(round(duration / h)) + 1) * h
    u = np.sin(t)
    c = np.cos(t)
    lookahead = (math.sin(-h), math.sin(t[-1] + h))
    laws = (("x", 1.0 - c), ("y", u), ("z", c))
    cascades = [discrete._cascade(first, second, cascade) for first, second in operands]

    def run(stages, y):
        for stage in stages:
            filt = discretize(stage, h)
            y = simulate_filter(filt, y, lookahead if filt.central_difference else None)
        return y

    kept = {}
    results = {}
    for index, ((name, exact), stages) in enumerate(zip(laws, cascades)):
        head, rest = stages[0], stages[1:]
        y = kept.pop(head, None)
        if y is None:
            y = run((head,), u)
        if rest and any(later[0] == head and later[1:] for later in cascades[index + 1:]):
            kept[head] = y
        results[name] = discrete.SimulationResult.from_signals(t, u, exact, run(rest, y))
    return results


def experiment_plan(kappa, alpha, cascade, k=2, n=10):
    """The stage tree and lane plan of an identity experiment at h = 1 ms:
    the filters, their parents, each law's last stage and the plan."""
    spec = DesignSpec(kappa, alpha, 1e-3, 1e3, n, k)
    filters, parents, ends = discrete._stage_tree(
        discrete.law_operands(spec, ("i", "ii", "iii")), cascade, 0.001)
    rows = tuple(len(filt.sections) for filt in filters)
    return filters, parents, ends, discrete._lane_plan(rows, tuple(parents))


def source_of(piece, parents, rows):
    """The (stage, end row) of the slice whose output a plan slice reads,
    or None where it reads the input."""
    stage, lo, _ = piece
    if lo:
        return stage, lo
    parent = parents[stage]
    return None if parent < 0 else (parent, rows[parent])


def planned_makespan(plan, parents, rows):
    """Rows until both lanes are done, each slice starting once its lane is
    free and its source is done; fails if the lanes wait on each other."""
    done, free, todo = {}, [0, 0], [list(lane) for lane in plan]
    while any(todo):
        progressed = False
        for lane in (0, 1):
            while todo[lane]:
                stage, lo, hi = todo[lane][0]
                source = source_of(todo[lane][0], parents, rows)
                if source is not None and source not in done:
                    break
                free[lane] = max(free[lane], done.get(source, 0)) + hi - lo
                done[stage, hi] = free[lane]
                todo[lane].pop(0)
                progressed = True
        assert progressed, "the lanes wait on each other"
    return max(free)


def law_name(exact, input_signal):
    """Which law a check is for, told by its target: u, 1 - cos or cos."""
    return "y" if exact is input_signal else ("x" if exact[0] == 0.0 else "z")


def pass_edges(count):
    """Where the passes of a stage of ``count`` sections start and end, as
    :func:`simulate_filter` cuts them."""
    parts = np.array_split(np.arange(count), max(1, math.ceil(count / PASS)))
    return set(np.cumsum([0] + [len(part) for part in parts]).tolist())


class TestLanePlan:
    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("cascade", (False, True))
    def test_slices_cover_each_stage_once_within_two_passes_of_the_bound(self, kappa, cascade):
        # No filtering: the plan is a function of the stages' row counts.
        # A plan of whole stages may give up a few rows of balance for
        # fewer handoffs; over methods 1..7, alpha 0.1..0.9, k 1..3 and n
        # 1..30 the worst is 9.5 rows above the bound.
        for alpha in (0.1, 0.3, 0.7, 0.9):
            for k in (1, 2, 3):
                for n in (1, 2, 3, 4, 7, 8, 9, 12, 16, 17, 30):
                    filters, parents, _, plan = experiment_plan(kappa, alpha, cascade, k, n)
                    rows = tuple(len(filt.sections) for filt in filters)
                    assert discrete._lane_plan(rows, tuple(parents)) == plan
                    for stage, count in enumerate(rows):
                        edges = sorted((lo, hi) for lane in plan
                                       for other, lo, hi in lane if other == stage)
                        if count == 0:
                            assert edges == [(0, 0)]
                        else:
                            assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]]
                            assert edges[-1][1] == count
                            assert all(lo < hi for lo, hi in edges)
                            assert {lo for lo, _ in edges} <= pass_edges(count)
                    chain = []
                    for count, parent in zip(rows, parents):
                        chain.append(count + (chain[parent] if parent >= 0 else 0))
                    bound = max(sum(rows) / 2, max(chain)) + 2 * PASS
                    assert planned_makespan(plan, parents, rows) <= bound


class LawFailure(Exception):
    pass


class TestIdentityLanes:
    @pytest.mark.parametrize("kappa", range(1, 8))
    @pytest.mark.parametrize("cascade", (False, True))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_lanes_are_bitwise_the_serial_run(self, kappa, cascade, alpha, k):
        h, duration = 0.001, 5.0
        want = serial_identity_experiment(kappa, alpha, k, h, duration, cascade)
        got = identity_experiment(kappa, alpha, k=k, sample_period=h, duration=duration,
                                  cascade=cascade)
        assert list(got) == list(want) == ["x", "y", "z"]
        for name in want:
            assert np.array_equal(got[name].approx, want[name].approx)
            assert np.array_equal(got[name].error, want[name].error)
            assert got[name].inf_norm == want[name].inf_norm
            assert got[name].two_norm == want[name].two_norm

    @pytest.mark.parametrize("failing", (("x",), ("y",), ("z",), ("x", "z"), ("y", "z"),
                                         ("x", "y", "z")))
    @pytest.mark.parametrize("cascade", (False, True))
    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_earliest_failing_law_raises_after_the_helper_is_joined(
            self, monkeypatch, failing, cascade, alpha):
        # Each law's check runs on the lane that filters its last slice, so
        # across both branches and modes the failing sets fall on either
        # thread or on both.
        real = discrete.SimulationResult.from_signals.__func__

        def failing_from_signals(cls, time, input_signal, exact, approx):
            name = law_name(exact, input_signal)
            if name in failing:
                raise LawFailure(name)
            return real(cls, time, input_signal, exact, approx)

        monkeypatch.setattr(discrete.SimulationResult, "from_signals",
                            classmethod(failing_from_signals))
        before = threading.active_count()
        with pytest.raises(LawFailure) as caught:
            identity_experiment(1, alpha, duration=0.1, cascade=cascade)
        assert caught.value.args == (failing[0],)
        assert threading.active_count() == before

    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_a_failing_shared_first_stage_fails_its_groups_first_law(self, monkeypatch, alpha):
        # In cascade mode I(alpha) opens laws i and ii below 0.5, and
        # D(alpha) laws ii and iii above.  The stage's first slice fails,
        # once; its failure is charged to x below 0.5 and to y above, and so
        # raises before law z's own failure either way.
        pair = design_pair(reference_spec(1, alpha))
        shared = discretize(pair.integrator if alpha < 0.5 else pair.differentiator, 0.001)
        failures = []
        real_slice = discrete._filter_slice

        def failing(filt, lo, hi, samples, lookahead):
            if filt == shared and lo == 0:
                failures.append(LawFailure("shared stage"))
                raise failures[-1]
            return real_slice(filt, lo, hi, samples, lookahead)

        real = discrete.SimulationResult.from_signals.__func__

        def failing_z(cls, time, input_signal, exact, approx):
            if exact is not input_signal and exact[0] == 1.0:
                raise LawFailure("z")
            return real(cls, time, input_signal, exact, approx)

        monkeypatch.setattr(discrete, "_filter_slice", failing)
        monkeypatch.setattr(discrete.SimulationResult, "from_signals", classmethod(failing_z))
        before = threading.active_count()
        with pytest.raises(LawFailure) as caught:
            identity_experiment(1, alpha, duration=0.1, cascade=True)
        assert len(failures) == 1 and caught.value is failures[0]
        assert threading.active_count() == before

    # Specs searched, in order, for a slice that one lane hands to the other.
    HANDOFF_CASES = [(kappa, alpha, cascade) for kappa in (5, 6, 7, 1, 2, 3, 4)
                     for cascade in (True, False) for alpha in (0.3, 0.7)]

    @pytest.mark.parametrize("lane, failure", ((0, LawFailure), (1, LawFailure),
                                               (0, KeyboardInterrupt)))
    def test_a_failing_handoff_releases_the_other_lane(self, monkeypatch, lane, failure):
        # A slice that the other lane waits for fails on lane 0 (the calling
        # thread) or lane 1 (the helper); the interrupt reaches only the
        # calling thread.  Each later law off the failing path fails its
        # own check, so only a failure charged to the earliest law on the
        # path raises first.
        for kappa, alpha, cascade in self.HANDOFF_CASES:
            filters, parents, ends, plan = experiment_plan(kappa, alpha, cascade)
            rows = [len(filt.sections) for filt in filters]
            read_across = {source_of(piece, parents, rows) for piece in plan[1 - lane]}
            handoffs = [piece for piece in plan[lane] if (piece[0], piece[2]) in read_across
                        and filters.count(filters[piece[0]]) == 1]
            if handoffs:
                break
        else:
            pytest.fail(f"no lane {lane} slice is read on the other lane")
        stage, lo, hi = handoffs[0]
        paths = []
        for end in ends:
            paths.append(set())
            while end >= 0:
                paths[-1].add(end)
                end = parents[end]
        law = min(index for index, path in enumerate(paths) if stage in path)
        failing_checks = {"xyz"[index] for index, path in enumerate(paths)
                          if index > law and stage not in path}
        raised = []
        real_slice = discrete._filter_slice
        real_check = discrete.SimulationResult.from_signals.__func__

        def failing_slice(filt, first, end, samples, lookahead):
            if filt == filters[stage] and (first, end) == (lo, hi):
                raised.append((failure("handoff"), threading.get_ident()))
                raise raised[-1][0]
            return real_slice(filt, first, end, samples, lookahead)

        def failing_check(cls, time, input_signal, exact, approx):
            if law_name(exact, input_signal) in failing_checks:
                raise LawFailure(law_name(exact, input_signal))
            return real_check(cls, time, input_signal, exact, approx)

        monkeypatch.setattr(discrete, "_filter_slice", failing_slice)
        monkeypatch.setattr(discrete.SimulationResult, "from_signals",
                            classmethod(failing_check))
        caught = []

        def call():
            try:
                identity_experiment(kappa, alpha, duration=0.1, cascade=cascade)
            except BaseException as exc:
                caught.append(exc)

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a lane waits forever"
        assert threading.active_count() == before
        assert len(raised) == 1 and caught == [raised[0][0]]
        assert (raised[0][1] == caller.ident) == (lane == 0)

    def test_outputs_keep_their_recorded_digest(self):
        # The sha256 of every law's output over all methods, both modes and
        # both branches, recorded with numpy 2.4.6 and scipy 1.17.1 when the
        # laws still ran one after another on one thread.  Any change to
        # the input a section sees, or its order, moves it.
        digest = hashlib.sha256()
        for kappa in range(1, 8):
            for alpha in (0.2, 0.3, 0.5, 0.7, 0.9):
                for k in (1, 2, 3):
                    for cascade in (False, True):
                        results = identity_experiment(kappa, alpha, n=12, k=k,
                                                      sample_period=1e-3, duration=5.0,
                                                      cascade=cascade)
                        for name in discrete.EXPERIMENTS:
                            digest.update(results[name].approx.tobytes())
        assert digest.hexdigest() == (
            "c2d2b55028b43bc6ee6755b242d5f65ad3b95f9b8c8a718a32e2ef7e00d0ee94")

    def test_concurrent_experiments_are_bitwise_the_serial_run(self):
        # Four callers, each with its helper thread, on two cores, switching
        # threads as often as the interpreter allows.
        cases = ((1, 0.3), (3, 0.7), (5, 0.3), (6, 0.7))
        want = [serial_identity_experiment(kappa, alpha, 2, 0.001, 2.0, True)
                for kappa, alpha in cases]
        got = [None] * len(cases)

        def run(index):
            kappa, alpha = cases[index]
            got[index] = identity_experiment(kappa, alpha, sample_period=0.001, duration=2.0,
                                             cascade=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for results, reference in zip(got, want):
            assert list(results) == ["x", "y", "z"]
            for name in reference:
                assert np.array_equal(results[name].approx, reference[name].approx)

    def test_an_intermediate_signal_is_freed_once_its_lane_has_read_it(self, monkeypatch):
        # Whenever a lane starts a slice, each output that ends no law and
        # was produced and read on that lane alone, by readers that have all
        # finished, is already gone.  Over this matrix today's plans make 28
        # such checks.
        tree = []
        real_tree = discrete._stage_tree
        real_slice = discrete._filter_slice

        def recording_tree(*args):
            tree[:] = real_tree(*args)
            return tuple(tree)

        def checked_slice(filt, lo, hi, samples, lookahead):
            lane = 0 if threading.get_ident() == caller else 1
            stage = next(i for i, other in enumerate(tree[0]) if other is filt)
            for piece in freed_after[lane]:
                if piece in outputs and freed_after[lane][piece] <= finished:
                    assert outputs[piece]() is None, f"lane {lane} keeps slice {piece}"
                    checks.append(piece)
            output = real_slice(filt, lo, hi, samples, lookahead)
            outputs[stage, lo, hi] = weakref.ref(output)
            finished.add((stage, lo, hi))
            return output

        monkeypatch.setattr(discrete, "_stage_tree", recording_tree)
        monkeypatch.setattr(discrete, "_filter_slice", checked_slice)
        caller = threading.get_ident()
        checks = []
        for kappa in range(1, 8):
            for cascade in (False, True):
                for alpha in (0.3, 0.7):
                    for k in (1, 2, 3):
                        # Each lane's slices that end no law and are read on
                        # that lane alone, mapped to their readers.
                        filters, parents, ends, plan = experiment_plan(kappa, alpha, cascade, k)
                        rows = [len(filt.sections) for filt in filters]
                        lane_of = {piece: lane for lane in (0, 1) for piece in plan[lane]}
                        law_ends = {(stage, rows[stage]) for stage in ends}
                        freed_after = ({}, {})
                        for piece, lane in lane_of.items():
                            stage, _, hi = piece
                            readers = {other for other in lane_of
                                       if source_of(other, parents, rows) == (stage, hi)}
                            if (readers and (stage, hi) not in law_ends
                                    and all(lane_of[other] == lane for other in readers)):
                                freed_after[lane][piece] = readers
                        outputs, finished = {}, set()
                        identity_experiment(kappa, alpha, k=k, duration=0.2, cascade=cascade)
        assert checks, "no plan holds such a slice"


def mpmath_first_order(x, b0, b1, a1):
    """y[t] = b0*x[t] + b1*x[t-1] - a1*y[t-1] from a zero past, each sum
    formed exactly by ``mpmath.fdot`` and rounded once to the working
    precision; on a 2-vCPU Xeon that also takes 40 % less time than three
    products and two sums."""
    y, previous_x, previous_y = [], 0, 0
    minus_a1 = -a1
    for value in x:
        previous_y = mpmath.fdot(((b0, value), (b1, previous_x), (minus_a1, previous_y)))
        previous_x = value
        y.append(previous_y)
    return y


def mpmath_stage(model, samples, h, lookahead, dps=30):
    """One experiment stage in ``dps``-digit arithmetic, over the exact
    values of its input: floats, or the mpmath output of a stage before.
    The Tustin coefficients are formed here from the model's corners, gain
    and h: a net s is the central difference over the analytic lookahead, a
    net 1/s the trapezoid accumulator, and the gain scales the output, which
    is returned as mpmath numbers."""
    with mpmath.workdps(dps):
        h = mpmath.mpf(h)
        x = [mpmath.mpf(value) for value in samples]
        if model.s_exponent == 1:
            pre, post = (mpmath.mpf(value) for value in lookahead)
            padded = [pre] + x + [post]
            x = [(padded[i + 2] - padded[i]) / (2 * h) for i in range(len(x))]
        elif model.s_exponent == -1:
            x = mpmath_first_order(x, h / 2, h / 2, -1)
        c = 2 / h
        for z, p in model.factors:
            z, p = mpmath.mpf(z), mpmath.mpf(p)
            for _ in range(model.multiplicity):
                x = mpmath_first_order(x, (c + z) / (c + p), (z - c) / (c + p),
                                       (p - c) / (c + p))
        gain = mpmath.mpf(model.gain)
        return [gain * value for value in x]


def as_floats(values):
    return np.array([float(value) for value in values])


@functools.cache
def mpmath_sine(count, h, dps=30):
    """sin(t) at the experiment's float sample times ``arange(count) * h``,
    and its lookahead pair sin(-h) and sin(t[-1] + h), in ``dps``-digit
    arithmetic."""
    t = np.arange(count) * h
    with mpmath.workdps(dps):
        h = mpmath.mpf(h)
        last = mpmath.mpf(t[-1])
        return ([mpmath.sin(mpmath.mpf(value)) for value in t],
                (mpmath.sin(-h), mpmath.sin(last + h)))


ORACLE_H = 1e-3  # sample period of the oracle experiments


def oracle_experiments(kappa):
    """The experiments of method ``kappa`` that the oracle tests check:
    both branches, k 1..3 and both modes, at n = 3 over 1000 samples.
    Yields each one's case, its results and the stages, in run order, of
    each law's cascade, by law name."""
    n = 3
    for alpha in (0.3, 0.7):
        for k in (1, 2, 3):
            spec = DesignSpec(kappa, alpha, 1e-3, 1e3, n, k)
            operands = discrete.law_operands(spec, ("i", "ii", "iii"))
            for cascade in (False, True):
                results = identity_experiment(kappa, alpha, n=n, k=k, sample_period=ORACLE_H,
                                              duration=0.999, cascade=cascade)
                assert len(results["x"].time) == 1000
                stages = {name: discrete._cascade(first, second, cascade)
                          for name, (first, second) in zip("xyz", operands)}
                yield (alpha, k, cascade), results, stages


class TestTimeDomainOracle:
    @pytest.mark.parametrize("kappa", range(1, 8))
    def test_every_experiment_stage_matches_mpmath(self, kappa):
        # Each stage an identity experiment runs, fed the float output of
        # the stage before, against the 30-digit recurrence over the same
        # input; the last stage's output is the experiment's approx bit for
        # bit.  Measured worst case over methods 1..7: 6.6e-13 of the
        # stage's largest output, at method 4, k = 3 in cascade mode, in
        # the stage D(0.7) that opens law iii at alpha 0.3 and laws ii and
        # iii at 0.7 (5.4e-13 at k <= 2).
        h = ORACLE_H
        exact = {}  # by stage prefix: stages shared between laws run once
        for case, results, law_stages in oracle_experiments(kappa):
            t = results["x"].time
            u = np.sin(t)
            lookahead = (math.sin(-h), math.sin(t[-1] + h))
            for name, stages in law_stages.items():
                y = u
                for index, stage in enumerate(stages):
                    filt = discretize(stage, h)
                    ahead = lookahead if filt.central_difference else None
                    want = exact.get(stages[:index + 1])
                    if want is None:
                        want = exact[stages[:index + 1]] = as_floats(
                            mpmath_stage(stage, y, h, ahead))
                    y = simulate_filter(filt, y, ahead)
                    miss = np.max(np.abs(y - want)) / np.max(np.abs(want))
                    assert miss < 1e-12, (case, name, index)
                assert np.array_equal(y, results[name].approx)

    @pytest.mark.parametrize("kappa", range(1, 8))
    def test_every_law_matches_mpmath_end_to_end(self, kappa):
        # Each law's whole chain of stages run in 30-digit arithmetic from
        # sin(t) itself, with no rounding between stages, against the
        # experiment's approx: the error the float run accumulates from
        # its input samples through every stage.  Measured worst case over
        # methods 1..7: 4.8e-13 of the law's largest output, at method 1,
        # k = 3, law iii in cascade mode at alpha 0.3 and 0.7 alike (the
        # same chain D(0.7), D(0.3): a central difference, then 18
        # sections).
        u, lookahead = mpmath_sine(1000, ORACLE_H)
        exact = {}  # by stage prefix, as above
        for case, results, law_stages in oracle_experiments(kappa):
            for name, stages in law_stages.items():
                y = u
                for index, stage in enumerate(stages):
                    prefix = stages[:index + 1]
                    if prefix not in exact:
                        exact[prefix] = mpmath_stage(stage, y, ORACLE_H, lookahead)
                    y = exact[prefix]
                want = as_floats(y)
                miss = np.max(np.abs(results[name].approx - want)) / np.max(np.abs(want))
                assert miss < 1e-12, (case, name)


class TestSimulationResultNorms:
    def test_two_norm_keeps_the_plain_sum_where_it_is_finite(self):
        rng = np.random.default_rng(7)
        for scale in (1e-300, 1.0, 1e150):
            exact = rng.normal(size=1000) * scale
            result = discrete.SimulationResult.from_signals(
                np.arange(1000), exact, exact, np.zeros(1000))
            assert result.two_norm == math.sqrt(np.sum(exact * exact))

    def test_two_norm_scales_when_the_squares_overflow(self):
        exact = np.array([3e200, -4e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = discrete.SimulationResult.from_signals(
                np.arange(3), exact, exact, np.zeros(3))
        assert result.inf_norm == 4e200
        assert result.two_norm == pytest.approx(5e200, rel=1e-15)

    def test_two_norm_beyond_the_float_range_is_a_domain_error(self):
        exact = np.full(4, 1.5e308)
        with pytest.raises(DomainError, match="2-norm exceeds the float range"):
            discrete.SimulationResult.from_signals(np.arange(4), exact, exact, np.zeros(4))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_output_is_a_domain_error(self, bad):
        approx = np.array([0.0, bad, 1.0])
        with pytest.raises(DomainError, match="not finite"):
            discrete.SimulationResult.from_signals(np.arange(3), np.zeros(3), np.zeros(3), approx)


# Runs in a fresh interpreter: two threads make their first simulate_filter
# call at the same moment, so both race to load the compiled kernel.
_FIRST_LOAD_RACE_PROBE = """
import threading
import numpy as np
from difint.discrete import DiscreteFilter, FilterSection, simulate_filter

filt = DiscreteFilter((FilterSection(0.7, -0.4, -0.9),) * 3, False, 0.01)
barrier = threading.Barrier(2)
errors = []

def first_call():
    barrier.wait()
    try:
        simulate_filter(filt, np.ones(100))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(errors)
"""


class TestKernelFirstLoad:
    def test_two_threads_loading_at_once_both_succeed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", _FIRST_LOAD_RACE_PROBE], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            assert (proc.stdout, proc.stderr) == ("[]\n", "")
