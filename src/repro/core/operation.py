"""Memory operations: the atoms of execution histories.

The paper models a system as processors interacting through a shared memory
by executing *read* and *write* operations; each operation acts on a named
location and carries a value (Section 2).  Release consistency additionally
distinguishes *labeled* (synchronization) operations from *ordinary* ones
(Section 3.4), and footnote 4 treats read-modify-write operations as writes
that appear in every processor view.

An :class:`Operation` is immutable and identified by ``(proc, index)`` — its
issuing processor and its position in that processor's program order.  Two
operations with equal identity are the same operation; equality therefore
compares full field tuples and identity collisions with differing payloads
are rejected when histories are constructed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.errors import MalformedOperationError

__all__ = ["OpKind", "Operation", "read", "write", "rmw", "INITIAL_VALUE"]

#: Initial value of every memory location (paper Section 2, footnote 1).
INITIAL_VALUE = 0


class OpKind(enum.Enum):
    """The kind of a memory operation.

    ``RMW`` models atomic read-modify-write instructions such as SPARC
    ``swap`` or *test-and-set*.  Following the paper's footnotes 3 and 4 these
    are treated like writes for view-inclusion purposes, but they also return
    a value, so legality constrains both their read and write halves.
    """

    READ = "r"
    WRITE = "w"
    RMW = "u"  # "update"; reads `read_value` then writes `value` atomically

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality; Enum's default hashes the name in
    # Python, which dominated hashing an Operation.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Operation:
    """One read, write, or read-modify-write in an execution history.

    Parameters
    ----------
    proc:
        Identifier of the issuing processor (any hashable, conventionally a
        short string such as ``"p"`` or ``"q"``).
    index:
        Zero-based position of the operation in the issuing processor's
        execution history; defines program order.
    kind:
        :class:`OpKind` of the operation.
    location:
        Name of the memory location acted upon.
    value:
        For writes and RMWs, the value stored; for reads, the value returned.
    read_value:
        For RMWs only: the value the read half returned.  ``None`` otherwise.
    labeled:
        ``True`` for synchronization ("labeled") operations under release
        consistency; ordinary operations are unlabeled.  A labeled read is an
        *acquire* and a labeled write is a *release* (paper Section 3.4).
    """

    proc: Any
    index: int
    kind: OpKind
    location: str
    value: int
    read_value: int | None = None
    labeled: bool = False

    def __post_init__(self) -> None:
        if self.index < 0:
            raise MalformedOperationError(
                f"operation index must be non-negative, got {self.index}"
            )
        if not isinstance(self.kind, OpKind):
            raise MalformedOperationError(f"kind must be an OpKind, got {self.kind!r}")
        if self.kind is OpKind.RMW:
            if self.read_value is None:
                raise MalformedOperationError("RMW operations require a read_value")
        elif self.read_value is not None:
            raise MalformedOperationError(
                f"{self.kind.name} operations must not carry a read_value"
            )

    # -- classification helpers -------------------------------------------------

    @property
    def uid(self) -> tuple[Any, int]:
        """Unique identity of this operation within a system history."""
        return (self.proc, self.index)

    @property
    def is_read(self) -> bool:
        """True for reads and for the read half of an RMW."""
        return self.kind in (OpKind.READ, OpKind.RMW)

    @property
    def is_write(self) -> bool:
        """True for writes and for the write half of an RMW."""
        return self.kind in (OpKind.WRITE, OpKind.RMW)

    @property
    def is_pure_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_pure_write(self) -> bool:
        return self.kind is OpKind.WRITE

    @property
    def is_acquire(self) -> bool:
        """A labeled read is an acquire operation (Section 3.4)."""
        return self.labeled and self.is_read

    @property
    def is_release(self) -> bool:
        """A labeled write is a release operation (Section 3.4)."""
        return self.labeled and self.is_write

    @property
    def value_read(self) -> int:
        """The value observed by the read half of this operation.

        Raises
        ------
        MalformedOperationError
            If the operation has no read half.
        """
        if self.kind is OpKind.READ:
            return self.value
        if self.kind is OpKind.RMW:
            assert self.read_value is not None
            return self.read_value
        raise MalformedOperationError(f"{self} has no read half")

    @property
    def value_written(self) -> int:
        """The value stored by the write half of this operation.

        Raises
        ------
        MalformedOperationError
            If the operation has no write half.
        """
        if self.is_write:
            return self.value
        raise MalformedOperationError(f"{self} has no write half")

    # -- derived constructors ---------------------------------------------------

    def with_labeled(self, labeled: bool = True) -> "Operation":
        """Return a copy of this operation with its labeled flag replaced."""
        return Operation(
            proc=self.proc,
            index=self.index,
            kind=self.kind,
            location=self.location,
            value=self.value,
            read_value=self.read_value,
            labeled=labeled,
        )

    def __str__(self) -> str:
        label = "*" if self.labeled else ""
        if self.kind is OpKind.RMW:
            payload = f"{self.read_value}->{self.value}"
        else:
            payload = str(self.value)
        return f"{self.kind}{label}_{self.proc}({self.location}){payload}"

    __repr__ = __str__


def read(
    proc: Any, index: int, location: str, value: int, *, labeled: bool = False
) -> Operation:
    """Construct a read operation ``r_proc(location)value``."""
    return Operation(proc, index, OpKind.READ, location, value, labeled=labeled)


def write(
    proc: Any, index: int, location: str, value: int, *, labeled: bool = False
) -> Operation:
    """Construct a write operation ``w_proc(location)value``."""
    return Operation(proc, index, OpKind.WRITE, location, value, labeled=labeled)


def rmw(
    proc: Any,
    index: int,
    location: str,
    read_value: int,
    value: int,
    *,
    labeled: bool = False,
) -> Operation:
    """Construct a read-modify-write that observed ``read_value`` and stored ``value``."""
    return Operation(
        proc, index, OpKind.RMW, location, value, read_value=read_value, labeled=labeled
    )
