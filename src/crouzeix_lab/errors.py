"""Exception types shared across the package."""


class DomainError(ValueError):
    """Parameters outside the admissible domain of an operation."""


class SingularMatrixError(ValueError):
    """Matrix is singular (or numerically singular) where an inverse is required."""


class DegenerateDenominatorError(ValueError):
    """Polynomial vanishes on the whole boundary sample; the ratio is undefined."""
