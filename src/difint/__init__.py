"""Identity-preserving rational approximation of fractional differintegrators.

Builds band-limited zero-pole-gain approximants of s**(-alpha) and s**alpha
whose compositions collapse exactly to 1/s, 1 and s, quantifies their
frequency- and time-domain accuracy against classic recursive designs, and
exports partial-fraction and passive RC realizations.
"""

from . import design, discrete, errors, factored, frequency, identities, realization
from .design import *
from .discrete import *
from .errors import *
from .factored import *
from .frequency import *
from .identities import *
from .realization import *

__all__ = [name for module in (design, discrete, errors, factored, frequency, identities,
                               realization)
           for name in module.__all__]

__version__ = "0.1.0"
