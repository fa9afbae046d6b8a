"""Exception types shared across the library."""


class HermquadError(Exception):
    """Base class for every error raised by this package."""


class InvalidRank(HermquadError):
    """A rank or dimension parameter is outside the defined range."""


class DivisionByZero(HermquadError):
    """Polynomial division by the zero polynomial."""


class NonExactDivision(HermquadError):
    """Polynomial division left a nonzero remainder."""


class InconsistentDecomposition(HermquadError):
    """A direct-sum identity failed to balance at the realization level."""


class ZeroValue(HermquadError):
    """Zero where a nonzero rational is required."""


class InvalidExtension(HermquadError):
    """The extension class is a square, so it defines no quadratic field."""


class UnsupportedDimension(HermquadError):
    """The dimension is outside the family this operation covers."""


class InputTooLarge(HermquadError):
    """An input is past a size limit beyond which the work has no useful bound."""
