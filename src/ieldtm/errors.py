"""Exception hierarchy shared across the library."""


class IeldtmError(Exception):
    """Base class for all library errors."""


class NonFiniteStateError(IeldtmError):
    """A state vector or coefficient table picked up a NaN/Inf."""


class SingularMatrixError(IeldtmError):
    """LU factorization hit a pivot below the singularity threshold."""


class NewtonFailureError(IeldtmError):
    """Newton iteration hit its iteration limit without converging."""


class PoleError(IeldtmError):
    """The rational stability function was evaluated at (or next to) a pole."""
