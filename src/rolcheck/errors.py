"""Exception types shared across the package."""


class RolcheckError(Exception):
    """Base class for all library errors."""


class DomainMismatch(RolcheckError):
    """Operands live in different scalar domains; no coercion is performed."""


class DimensionMismatch(RolcheckError):
    """Matrix shapes are incompatible for the requested operation."""


class DivisionByZero(RolcheckError):
    """Inversion of the zero scalar."""


class Singular(RolcheckError):
    """A square matrix required to be invertible is rank deficient."""


class NoMPInverse(RolcheckError):
    """The Moore-Penrose inverse does not exist (possible over prime fields)."""


class NotGroupInvertible(RolcheckError):
    """rank(a^2) < rank(a), so no group inverse exists."""


class EmptyK(RolcheckError):
    """K-inverse membership with K = {} is rejected rather than vacuously true."""


class HypothesisNotMet(RolcheckError):
    """A law was evaluated on an instance violating one of its hypotheses."""

    def __init__(self, hypothesis):
        super().__init__(f"hypothesis not met: {hypothesis}")
        self.hypothesis = hypothesis


class BlanketIdentityFailed(RolcheckError):
    """A defining identity of the blanket elements p, q, r, s fails, so a
    computed a+ or b+ is not a Moore-Penrose inverse."""

    def __init__(self, identity):
        super().__init__(f"blanket identity fails: {identity}")
        self.identity = identity


class InvalidSpec(RolcheckError):
    """An instance-generation spec is out of range or inconsistent."""
