"""Exception types shared across the package."""


class PermlinError(Exception):
    """Base class for all errors raised by this package."""


class PermParseError(PermlinError, ValueError):
    """Malformed permutation text (duplicate label, out-of-range, bad parens)."""


class SizeMismatchError(PermlinError, ValueError):
    """Operands live on different ground sets or have incompatible shapes."""


class InvarianceError(PermlinError, ValueError):
    """A matrix claimed to be invariant violates the column-equality pattern."""


class EquivarianceError(PermlinError, ValueError):
    """A matrix claimed to be equivariant does not commute with the action."""


class StructuralError(PermlinError, ValueError):
    """A matrix violates a required structural pattern (e.g. realization blocks)."""


class RankDeficientError(PermlinError, ValueError):
    """Data Gram matrix is numerically rank deficient and no ridge was supplied."""


class NonFiniteError(PermlinError, ValueError):
    """Input data or an output value is NaN or infinite."""


class MatrixFormatError(PermlinError, ValueError):
    """A matrix file is missing or malformed, or has complex entries where real ones are needed."""


class IndefiniteError(PermlinError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class ComponentError(PermlinError, ValueError):
    """A rank vector is not admissible for the requested field or spectrum."""


class SearchLimitError(PermlinError, ValueError):
    """Component enumeration would exceed the caller-supplied limit."""


class SizeCapError(PermlinError, ValueError):
    """An oracle received an instance beyond its hard size cap."""


class CyclicOnlyError(PermlinError, ValueError):
    """Component enumeration is defined for a single cyclic generator only."""


class ConvergenceError(PermlinError, RuntimeError):
    """An iterative numerical routine (e.g. SVD) failed to converge."""
