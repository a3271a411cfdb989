"""Exception types shared across the package."""


class FlagkeError(Exception):
    """Base class for all package errors."""


class InputError(FlagkeError):
    """Rejected input: bad family/rank, vector outside the center, etc."""


class DegreeMismatchError(FlagkeError):
    """Declared endpoint degrees disagree with the computed wall structure."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class SingularConfigurationError(FlagkeError):
    """A quantity that must stay nonzero vanished in the interior."""


class NoKahlerEinsteinError(FlagkeError):
    """The Einstein first integral is not positive on the open segment."""


class InternalError(FlagkeError):
    """An internal invariant failed: a bug, not a property of the input."""
