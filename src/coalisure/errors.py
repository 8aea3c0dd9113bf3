"""Exception types shared across the package."""


class CoalisureError(Exception):
    """Base class for all library errors."""


class GameSpecError(CoalisureError):
    """Invalid game definition (agents, coalition structure, value model)."""


class UnknownCoalitionError(GameSpecError):
    """A coalition was queried that the value model does not define."""


class DistributionError(CoalisureError):
    """Invalid distribution parameters or sample request."""


class LpError(CoalisureError):
    """Malformed linear program (dimension mismatch, non-finite input)."""


class LpNumericalError(LpError):
    """The solver could not certify its result to the required tolerance."""


class EmptyCoreError(CoalisureError):
    """An operation that requires a non-empty core was called on an empty one."""


class GuardError(CoalisureError):
    """A size guard for an enumeration-based routine was exceeded."""


class NoRootError(CoalisureError):
    """A root search found no sign change; carries the points it evaluated
    (``scan_points``, in order) and the function's sign at each (``scan_signs``)."""

    def __init__(self, message, scan_points=None, scan_signs=None):
        super().__init__(message)
        self.scan_points = scan_points
        self.scan_signs = scan_signs


class ConfigError(CoalisureError):
    """Invalid experiment configuration or artifact schema."""
