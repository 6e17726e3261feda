"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so solver and harness code
should raise the most specific type that applies.
"""


class DcmError(Exception):
    """Base class for all package errors."""


class ConfigError(DcmError):
    """Invalid model parameters, run configuration, or trace file."""


class FeasibilityError(DcmError):
    """A schedule or operating point violates a problem constraint."""


class CapacityError(DcmError):
    """A solver budget (state count, enumeration size) was exceeded."""


class LookaheadViolation(DcmError):
    """An online algorithm tried to read past its revealed window."""
