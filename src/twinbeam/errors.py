"""Exception hierarchy shared by all twinbeam modules.

There is one class per exit code of cli.main: UsageError exits 1 and
DomainError exits 2.  TraceFormatError exits 2 as well; it stays apart
because it carries the byte offset that cli.main prints after its message.
"""


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwinbeamError, ValueError):
    """A value outside an operation's domain, or an infeasible measurement (below threshold
    or the electronics floor, too short to estimate, unidentifiable); maps to exit code 2."""


class UsageError(TwinbeamError):
    """A bad command-line flag, or a config or analysis document that breaks its strict
    schema; maps to exit code 1."""


class TraceFormatError(TwinbeamError):
    """A trace file is corrupt or truncated; carries the offending byte offset."""

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset
