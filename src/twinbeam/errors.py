"""Exception hierarchy shared by all twinbeam modules."""


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwinbeamError, ValueError):
    """An argument or config value is outside the domain of an operation; maps to exit code 2."""


class BelowThresholdError(DomainError):
    """Pump power below oscillation threshold; the above-threshold model is invalid there."""


class InfeasibleMeasurementError(TwinbeamError):
    """A measured value is physically inconsistent (e.g. below the electronics floor)."""


class SchemaError(TwinbeamError):
    """A config or analysis document violates its strict schema; maps to exit code 1."""


class IdentifiabilityError(TwinbeamError):
    """The fit Jacobian is rank deficient along a named parameter direction."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class InsufficientDataError(TwinbeamError):
    """A series is too short for the requested estimate."""

    def __init__(self, message, required_length=None):
        super().__init__(message)
        self.required_length = required_length


class TraceFormatError(TwinbeamError):
    """A trace file is corrupt or truncated; carries the offending byte offset."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset
