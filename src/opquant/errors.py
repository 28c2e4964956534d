"""Exception types shared across the package."""


class OpquantError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OpquantError):
    """Coefficient and vector lists (or matrix shapes) disagree in length."""


class IncompatibleTails(OpquantError):
    """Nonzero geometric tails with different ratios, or a common period above the cap, cannot be combined exactly."""


class ZeroVector(OpquantError):
    """Operation requires a nonzero vector."""


class UnsupportedTail(OpquantError):
    """Operation is restricted to finitely supported vectors for this norm."""


class DegenerateFunctionals(OpquantError):
    """Functional representers are (numerically) linearly dependent."""


class DegenerateBasis(OpquantError):
    """Subspace basis fails positive definiteness at tolerance."""


class BadDimensions(OpquantError):
    """Quantity dimensions must satisfy 1 <= k <= K <= N."""


class ExhaustedSubspace(OpquantError):
    """No admissible direction remains in the window."""


class BudgetInfeasible(OpquantError):
    """No finite truncation meets the requested approximation budget."""


class InvalidWitness(OpquantError):
    """Witness subspace is degenerate, or its quantity rounding, for the requested experiment."""


class ConfigError(OpquantError):
    """Invalid experiment configuration; message names the offending field."""
