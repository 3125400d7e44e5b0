"""Exception hierarchy for the shared-memory characterization framework.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch framework errors without also swallowing programming
mistakes such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "HistoryError",
    "MalformedOperationError",
    "AmbiguousValueError",
    "IllegalViewError",
    "SpecError",
    "CheckerError",
    "MachineError",
    "SchedulerError",
    "ProgramError",
    "ParseError",
    "EngineError",
    "DiffError",
    "KernelError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class HistoryError(ReproError):
    """A system or processor execution history is structurally invalid."""


class MalformedOperationError(HistoryError):
    """An operation violates a structural invariant (e.g. a read with no value)."""


class AmbiguousValueError(HistoryError):
    """A derived order cannot be computed because reads-from is ambiguous.

    The writes-before order (paper Section 2, "Writes-before order") relates a
    write ``w(x)v`` to every read ``r(x)v`` that returns the value it wrote.
    When two distinct writes store the same value into the same location, a
    read of that value has more than one candidate writer and the relation is
    not a function of the history alone.  Fast-path checkers require the
    conventional *distinct write values per location* discipline; the general
    solver enumerates reads-from choices instead of raising this error.
    """


class IllegalViewError(ReproError):
    """A sequence offered as a processor view violates legality.

    A view is *legal* (paper Section 2) when every read returns the value of
    the most recent preceding write to the same location, or the initial
    value when no write precedes it.
    """


class SpecError(ReproError):
    """A memory-model specification is internally inconsistent."""


class CheckerError(ReproError):
    """A consistency checker was invoked on input it cannot decide."""


class MachineError(ReproError):
    """An operational memory machine reached an invalid internal state."""


class SchedulerError(ReproError):
    """A scheduler was asked to choose from an empty or invalid event set."""


class ProgramError(ReproError):
    """A concurrent test program misused the thread/operation protocol."""


class ParseError(ReproError):
    """Litmus-notation text could not be parsed into a history."""


class EngineError(ReproError):
    """The batch-checking engine was given an invalid job, spec, or store."""


class DiffError(ReproError):
    """The differential fuzzer was given an invalid campaign, shape, or corpus."""


class KernelError(ReproError):
    """The constraint kernel was misconfigured (for example, a bad plane)."""
