"""Exception types shared across the package."""


class DomainError(ValueError):
    """Parameters outside the admissible domain of an operation."""


class DegenerateDenominatorError(ValueError):
    """Polynomial vanishes on the whole boundary sample; the ratio is undefined."""
