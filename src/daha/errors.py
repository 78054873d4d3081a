"""Exception hierarchy shared across the package."""


class DahaError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(DahaError):
    """A parameter quadruple or operation input violates its defining constraint."""


class SingularMatrixError(DahaError):
    """Inversion was requested for a matrix with zero determinant."""


class TranscriptionError(DahaError):
    """An internal consistency check failed (non-cancelling division,
    disagreeing computation routes).  Signals a bug in a transcribed
    formula, never a bad user input."""


class InputError(DahaError):
    """A module or parameter file does not have the documented shape."""


class ClassificationError(DahaError):
    """Certification of a classification result failed."""
