"""Exception types shared across the package.

The CLI maps these onto process exit codes: UsageError -> 1, check
failures -> 2, BlowUpError -> 3, DataError and I/O trouble -> 4.
"""


class LLBarError(Exception):
    """Base class for package errors."""


class UsageError(LLBarError, ValueError):
    """Invalid argument, configuration key, or value."""


class GridMismatchError(UsageError):
    """Operands live on different grids."""


class DataError(LLBarError, ValueError):
    """Field data violates a representation invariant."""


class SnapshotFormatError(DataError):
    """Snapshot file is malformed."""


class BlowUpError(LLBarError, RuntimeError):
    """Integration left the regime where the discretization is meaningful.

    Carries the failure location and whatever diagnostics were collected
    before the blow-up so callers can flush a partial record.
    """

    def __init__(self, message, t=None, step=None, series=None, field=None):
        super().__init__(message)
        self.t = t
        self.step = step
        self.series = series
        self.field = field
