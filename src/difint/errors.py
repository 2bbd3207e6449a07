"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """A composition cannot be represented: net s power outside {-1, 0, +1}
    or mismatched factor multiplicities."""


class EpsilonRangeError(ValueError):
    """A ripple offset lies outside the admissible half-open interval of the
    one-point design methods, widened at both ends by a relative 1e-12;
    the message prints the nominal interval."""

    def __init__(self, epsilon, lower, upper):
        self.epsilon = epsilon
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"epsilon={epsilon!r} is out of range; "
            f"admissible interval is ({lower!r}, {upper!r}] dB"
        )


class ConditioningError(ValueError):
    """A partial-fraction expansion hit coincident poles from different
    factor pairs, or came out with a non-finite coefficient because it
    overflowed: for designed models, only with repeated poles on bands of
    some 200 decades, where the residues themselves exceed the float range."""


class NotRealizableError(ValueError):
    """The summation form is not the driving-point impedance of a passive
    series RC network."""
