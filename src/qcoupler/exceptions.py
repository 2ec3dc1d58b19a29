"""Exception and warning types shared across the package."""


class QcouplerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QcouplerError):
    """An input value violates a documented domain constraint."""


class UnsupportedConfigurationError(QcouplerError):
    """The configuration is valid input but outside the supported scope."""


class ScenarioParseError(QcouplerError):
    """A scenario document could not be parsed.

    Carries the offending line number and key, when known, so the CLI can
    point at the exact spot in the file.
    """

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class NumericalError(QcouplerError):
    """A numerical routine failed to produce a trustworthy result."""


class TruncationError(NumericalError):
    """A truncated-basis computation leaked too much probability mass."""


class ParameterRegimeWarning(UserWarning):
    """Non-fatal notice that parameters sit outside the interesting regime."""


class TruncationWarning(UserWarning):
    """Non-fatal notice that a truncated basis is starting to fill up."""


class PrecisionWarning(UserWarning):
    """Non-fatal notice that a result is losing digits to roundoff."""
