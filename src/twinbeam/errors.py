"""Exception hierarchy shared by all twinbeam modules.

cli.main maps each class to an exit code: SchemaError (and cli.UsageError)
to 1; DomainError, TraceFormatError and any other TwinbeamError to 2.  A
TraceFormatError's message is followed by the byte offset it carries.
"""


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwinbeamError, ValueError):
    """A value outside an operation's domain, or an infeasible measurement (below threshold
    or the electronics floor, too short to estimate, unidentifiable); maps to exit code 2."""


class SchemaError(TwinbeamError):
    """A config or analysis document violates its strict schema; maps to exit code 1."""


class TraceFormatError(TwinbeamError):
    """A trace file is corrupt or truncated; carries the offending byte offset."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset
