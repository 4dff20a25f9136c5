"""Exception hierarchy shared across the package."""


class EmcavityError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EmcavityError, ValueError):
    """An input is outside the physical domain of a formula."""


class DataError(EmcavityError):
    """Malformed or unusable input data (files, traces); `row`, where
    known, is the 0-based sample at fault."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConfigError(EmcavityError):
    """Config schema violation; the message carries the field path."""


class GuessError(DataError):
    """A trace does not support automatic initial-guess extraction."""


class NumericalError(EmcavityError):
    """A numerical computation failed or is unreliable."""
