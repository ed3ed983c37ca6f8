"""Exception types raised by the certificate engine."""


class HypodecayError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(HypodecayError):
    """Matrix input is malformed (not square, wrong payload, oversized)."""


class NonConvergence(HypodecayError):
    """The underlying eigenvalue iteration failed to converge."""


class NotPositiveStable(HypodecayError):
    """The matrix has an eigenvalue with non-positive real part."""


class DefectiveInput(HypodecayError):
    """Operation requires a full eigenbasis but the matrix is defective."""


class NotAdmissible(HypodecayError):
    """Candidate P fails the matrix inequality at the requested rate."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class RateOutOfRange(HypodecayError):
    """Requested decay rate lies outside the valid interval."""


class ZeroMode(HypodecayError):
    """The k = 0 mode has no spectral-gap certificate; it is handled separately."""


class CutoffTooLarge(HypodecayError):
    """Mode cutoff exceeds what the spatial grid can resolve."""


class NotNormalized(HypodecayError):
    """Field does not carry the reference total mass."""
