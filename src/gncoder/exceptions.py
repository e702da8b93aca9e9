"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Two grid functions live on different grids."""


class SmoothnessError(ValueError):
    """Requested derivative order is not available for this activation."""


class ShapeError(ValueError):
    """Parameter or vector dimensions are inconsistent."""


class UnsupportedDimensionError(ValueError):
    """Operator is not defined for this spatial dimension."""


class RankDeficiencyError(RuntimeError):
    """A factorization that must have full column rank does not.

    The ``deficit`` attribute carries the number of missing rank.
    """

    def __init__(self, message, deficit=0):
        super().__init__(message)
        self.deficit = deficit


class NumericError(RuntimeError):
    """Non-finite values were produced during an iteration."""


class InsufficientDataError(ValueError):
    """Not enough qualifying iterations to estimate a convergence rate."""


class ResolutionError(ValueError):
    """The grid has fewer nodes than the requested number of columns."""


class ConfigError(ValueError):
    """Invalid or missing experiment configuration."""
