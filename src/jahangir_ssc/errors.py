"""Exception taxonomy shared across the package.

Every deliberate failure derives from JssError so the CLI can map errors
to exit codes without fishing for stdlib exception types.
"""


class JssError(Exception):
    """Base class for all errors raised on purpose by this package."""


class InvalidParameterError(JssError, ValueError):
    """An argument violates a documented precondition."""


class GraphParseError(JssError, ValueError):
    """A graph document is malformed; the message names the offending entry."""


class CapacityError(JssError, RuntimeError):
    """The requested computation exceeds a documented exhaustion bound."""


class PurityError(JssError, ValueError):
    """An operation that requires a pure complex received a non-pure one."""
