"""Identity-preserving rational approximation of fractional differintegrators.

Builds band-limited zero-pole-gain approximants of s**(-alpha) and s**alpha
whose compositions collapse exactly to 1/s, 1 and s, quantifies their
frequency- and time-domain accuracy against classic recursive designs, and
exports partial-fraction and passive RC realizations.
"""

from .design import (
    Branch,
    DesignSpec,
    DesignedPair,
    design_integrator,
    design_pair,
    epsilon_bounds,
    special_epsilon,
)
from .discrete import (
    DiscreteFilter,
    FilterSection,
    SimulationResult,
    discretize,
    identity_experiment,
    simulate_filter,
)
from .errors import (
    ConditioningError,
    DomainError,
    EpsilonRangeError,
    NotRealizableError,
    ShapeError,
)
from .factored import (
    ComplexResponse,
    FactoredModel,
    complex_response,
    frequency_response,
    log_response,
    multiply_and_simplify,
    reciprocal,
)
from .frequency import (
    DIFFERENTIATOR,
    INTEGRATOR,
    ErrorReport,
    SweepRow,
    error_series,
    exact_response,
    make_grid,
    sweep_table,
)
from .identities import (
    CONDITIONS,
    IdentityVerdict,
    associativity_table,
    check_identity,
)
from .realization import (
    ParallelRC,
    PartialFractionForm,
    PartialFractionTerm,
    RcNetwork,
    SeriesCapacitor,
    SeriesResistor,
    evaluate_partial_fractions,
    export_netlist,
    network_impedance,
    synthesize_rc,
    to_partial_fractions,
)

__version__ = "0.1.0"
