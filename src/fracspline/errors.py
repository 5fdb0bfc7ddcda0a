"""Exception types shared across the package."""


class FracSplineError(Exception):
    """Base class for all errors raised by fracspline."""


class DimensionMismatchError(FracSplineError):
    """Operands live in Clifford algebras of different dimension."""


class DomainError(FracSplineError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class BranchCutError(DomainError):
    """Base of a principal power lies on the negative real axis."""


class PoleError(DomainError):
    """Gamma function evaluated at a nonpositive integer."""


class OrderError(DomainError):
    """Spline or hypercomplex order is not finite or violates its
    scalar-part constraint."""


class ParameterError(FracSplineError, ValueError):
    """Invalid operator or family parameter (weights, damping, truncation)."""


class NumericError(FracSplineError, ArithmeticError):
    """Computation would be meaningless at working precision."""


class EmptyAdmissibleSetError(FracSplineError):
    """Every grid frequency is a zero of a verifier's base, which has no log there."""


class SignalFormatError(FracSplineError, ValueError):
    """Sampled-signal input violates the uniform-grid contract."""


class ConditioningWarning(UserWarning):
    """Finite differencing is close to noise level on the given grid."""
