"""Exception types shared across the package."""


class CdfRegError(Exception):
    """Base class for all package errors."""


class SingularGram(CdfRegError):
    """Raised when an unregularized solve is attempted on a singular Gram matrix."""


class ConvergenceError(CdfRegError):
    """Iterative solver failed to meet its stopping rule."""


class BracketError(CdfRegError):
    """Inverse-CDF search could not bracket the target level."""
