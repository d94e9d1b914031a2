"""Exception types shared across the package."""


class QDatingError(Exception):
    """Base class for all domain errors raised by this package."""


class SizeError(QDatingError, ValueError):
    """Register size outside the supported desk-scale range."""


class DimensionError(QDatingError, ValueError):
    """Operands act on registers of different sizes."""


class StateError(QDatingError, ValueError):
    """State vector violates an invariant (e.g. lost normalization)."""


class ConfigurationError(QDatingError, ValueError):
    """A run configuration is internally inconsistent or out of bounds."""


class FeatureNotFoundError(QDatingError, LookupError):
    """Requested feature label does not occur in the table."""


class MalformedTableError(QDatingError, ValueError):
    """Feature table breaks its structural invariants."""


class SweepExhaustedError(QDatingError, RuntimeError):
    """Without-replacement proposer has already visited every index."""
