"""Shared helpers for the test suite."""

from difint import DesignSpec

# Benchmark defaults shared by most reference checks.
BAND = (1e-3, 1e3)
N_PAIRS = 10
MULTIPLICITY = 2


def reference_spec(kappa, alpha, k=MULTIPLICITY, n=N_PAIRS, band=BAND, epsilon=None):
    """DesignSpec at the benchmark defaults; methods 3/4 get their special
    offset unless one is passed explicitly."""
    return DesignSpec(kappa, alpha, band[0], band[1], n, k, epsilon)
