"""Processor and system execution histories (paper Section 2).

A *processor execution history* ``H_p`` is the sequence of operations issued
by processor ``p``; a *system execution history* ``H`` is the set of all
processor histories.  Memory models are characterized by the set of system
histories they allow, so these classes are the central value type of the
whole framework: checkers consume them, machines produce them, generators
enumerate them.

Both classes are immutable after construction and validate their structural
invariants eagerly (indices are dense and start at zero; one history per
processor; identities are unique).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import HistoryError
from repro.core.operation import Operation, read, rmw, write

__all__ = ["ProcessorHistory", "SystemHistory", "HistoryBuilder"]


class ProcessorHistory(Sequence[Operation]):
    """The totally ordered sequence of operations issued by one processor.

    Program order (``->po``) over a processor's operations is exactly the
    order of this sequence.
    """

    __slots__ = ("_proc", "_ops")

    def __init__(self, proc: Any, ops: Iterable[Operation]) -> None:
        ops = tuple(ops)
        for i, op in enumerate(ops):
            if op.proc != proc:
                raise HistoryError(
                    f"operation {op} belongs to processor {op.proc!r}, "
                    f"not {proc!r}"
                )
            if op.index != i:
                raise HistoryError(
                    f"operation {op} has index {op.index} but sits at "
                    f"position {i} of {proc!r}'s history"
                )
        self._proc = proc
        self._ops = ops

    @property
    def proc(self) -> Any:
        """The processor whose execution this history records."""
        return self._proc

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, i):  # type: ignore[override]
        return self._ops[i]

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessorHistory):
            return NotImplemented
        return self._proc == other._proc and self._ops == other._ops

    def __hash__(self) -> int:
        return hash((self._proc, self._ops))

    def __repr__(self) -> str:
        body = " ".join(str(op) for op in self._ops)
        return f"{self._proc}: {body}"

    # -- convenience -------------------------------------------------------------

    @property
    def reads(self) -> tuple[Operation, ...]:
        """All operations with a read half, in program order."""
        return tuple(op for op in self._ops if op.is_read)

    @property
    def writes(self) -> tuple[Operation, ...]:
        """All operations with a write half, in program order."""
        return tuple(op for op in self._ops if op.is_write)

    @property
    def labeled(self) -> tuple[Operation, ...]:
        """All labeled (synchronization) operations, in program order."""
        return tuple(op for op in self._ops if op.labeled)


class SystemHistory(Mapping[Any, ProcessorHistory]):
    """A system execution history: one processor history per processor.

    This is the object a memory model either *allows* or *rejects*.  The
    mapping interface is keyed by processor identifier; iteration order is
    the (sorted, when orderable) processor order so that renderings and
    enumeration are deterministic.
    """

    __slots__ = ("_histories", "_procs", "_all_ops", "_by_uid")

    def __init__(self, histories: Iterable[ProcessorHistory]) -> None:
        hs = list(histories)
        procs = [h.proc for h in hs]
        if len(set(procs)) != len(procs):
            raise HistoryError(f"duplicate processor histories for {procs!r}")
        try:
            order = sorted(range(len(hs)), key=lambda i: str(procs[i]))
        except TypeError:  # pragma: no cover - unorderable exotic ids
            order = list(range(len(hs)))
        self._histories = {hs[i].proc: hs[i] for i in order}
        self._procs = tuple(self._histories)
        all_ops: list[Operation] = []
        by_uid: dict[tuple[Any, int], Operation] = {}
        for h in self._histories.values():
            for op in h:
                by_uid[op.uid] = op
                all_ops.append(op)
        self._all_ops = tuple(all_ops)
        self._by_uid = by_uid

    # -- Mapping interface --------------------------------------------------------

    def __getitem__(self, proc: Any) -> ProcessorHistory:
        return self._histories[proc]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._procs)

    def __len__(self) -> int:
        return len(self._procs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemHistory):
            return NotImplemented
        return self._histories == other._histories

    def __hash__(self) -> int:
        return hash(tuple(self._histories.values()))

    def __repr__(self) -> str:
        return "\n".join(repr(h) for h in self._histories.values())

    # -- accessors ---------------------------------------------------------------

    @property
    def procs(self) -> tuple[Any, ...]:
        """Processor identifiers, in deterministic order."""
        return self._procs

    @property
    def operations(self) -> tuple[Operation, ...]:
        """Every operation of every processor (grouped by processor)."""
        return self._all_ops

    def op(self, proc: Any, index: int) -> Operation:
        """Look an operation up by its ``(proc, index)`` identity."""
        try:
            return self._by_uid[(proc, index)]
        except KeyError:
            raise HistoryError(f"no operation ({proc!r}, {index})") from None

    def ops_of(self, proc: Any) -> tuple[Operation, ...]:
        """All operations of ``proc``, in program order."""
        return tuple(self._histories[proc])

    @property
    def locations(self) -> tuple[str, ...]:
        """All memory locations touched by any operation, sorted."""
        return tuple(sorted({op.location for op in self._all_ops}))

    @property
    def reads(self) -> tuple[Operation, ...]:
        """Every operation with a read half."""
        return tuple(op for op in self._all_ops if op.is_read)

    @property
    def writes(self) -> tuple[Operation, ...]:
        """Every operation with a write half."""
        return tuple(op for op in self._all_ops if op.is_write)

    @property
    def labeled_ops(self) -> tuple[Operation, ...]:
        """Every labeled (synchronization) operation."""
        return tuple(op for op in self._all_ops if op.labeled)

    def writes_to(self, location: str) -> tuple[Operation, ...]:
        """Every write-half operation on ``location``."""
        return tuple(
            op for op in self._all_ops if op.is_write and op.location == location
        )

    def reads_of(self, location: str) -> tuple[Operation, ...]:
        """Every read-half operation on ``location``."""
        return tuple(
            op for op in self._all_ops if op.is_read and op.location == location
        )

    def remote_ops(self, proc: Any, predicate: Callable[[Operation], bool]) -> tuple[Operation, ...]:
        """Operations of processors other than ``proc`` satisfying ``predicate``."""
        return tuple(
            op for op in self._all_ops if op.proc != proc and predicate(op)
        )

    def remote_writes(self, proc: Any) -> tuple[Operation, ...]:
        """The delta-set ``w``: write operations of the other processors.

        This is the most common choice of ``δ_p`` in the paper: only writes
        change memory state, so a processor's view need only include remote
        writes (Section 2, parameter 1).
        """
        return self.remote_ops(proc, lambda op: op.is_write)

    # -- transformations ----------------------------------------------------------

    def map_operations(
        self, transform: Callable[[Operation], Operation]
    ) -> "SystemHistory":
        """Apply ``transform`` to every operation, preserving structure."""
        return SystemHistory(
            ProcessorHistory(h.proc, (transform(op) for op in h))
            for h in self._histories.values()
        )

    def relabel(self, should_label: Callable[[Operation], bool]) -> "SystemHistory":
        """Return a copy where ``labeled`` is recomputed by ``should_label``."""
        return self.map_operations(lambda op: op.with_labeled(should_label(op)))

    def project(
        self, predicate: Callable[[Operation], bool]
    ) -> tuple["SystemHistory", dict[tuple[Any, int], Operation]]:
        """Sub-history of the operations satisfying ``predicate``.

        Operations are reindexed densely per processor so the result is a
        well-formed :class:`SystemHistory` (used e.g. to treat the labeled
        operations of an RC execution as a history in their own right,
        Section 3.4).  Returns the sub-history together with a map from
        each projected operation's identity back to the original operation.

        Processors with no surviving operations are dropped.
        """
        back: dict[tuple[Any, int], Operation] = {}
        histories: list[ProcessorHistory] = []
        for proc in self._procs:
            new_ops: list[Operation] = []
            for op in self._histories[proc]:
                if predicate(op):
                    reindexed = Operation(
                        proc=op.proc,
                        index=len(new_ops),
                        kind=op.kind,
                        location=op.location,
                        value=op.value,
                        read_value=op.read_value,
                        labeled=op.labeled,
                    )
                    back[reindexed.uid] = op
                    new_ops.append(reindexed)
            if new_ops:
                histories.append(ProcessorHistory(proc, new_ops))
        return SystemHistory(histories), back

    def has_distinct_write_values(self) -> bool:
        """True when no two writes to the same location store the same value.

        The conventional discipline under which the writes-before relation is
        a function of the history; the TSO fast path requires it.
        """
        seen: set[tuple[str, int]] = set()
        for op in self._all_ops:
            if op.is_write:
                key = (op.location, op.value_written)
                if key in seen:
                    return False
                seen.add(key)
        return True


class HistoryBuilder:
    """Fluent construction of :class:`SystemHistory` values.

    Example
    -------
    The Figure 1 history (allowed by TSO but not SC)::

        h = (HistoryBuilder()
             .proc("p").write("x", 1).read("y", 0)
             .proc("q").write("y", 1).read("x", 0)
             .build())
    """

    def __init__(self) -> None:
        self._ops: dict[Any, list[Operation]] = {}
        self._current: Any = None

    def proc(self, proc: Any) -> "HistoryBuilder":
        """Switch the builder to appending operations for ``proc``."""
        self._ops.setdefault(proc, [])
        self._current = proc
        return self

    def _require_proc(self) -> Any:
        if self._current is None:
            raise HistoryError("call .proc(name) before adding operations")
        return self._current

    def read(self, location: str, value: int, *, labeled: bool = False) -> "HistoryBuilder":
        """Append a read to the current processor."""
        p = self._require_proc()
        ops = self._ops[p]
        ops.append(read(p, len(ops), location, value, labeled=labeled))
        return self

    def write(self, location: str, value: int, *, labeled: bool = False) -> "HistoryBuilder":
        """Append a write to the current processor."""
        p = self._require_proc()
        ops = self._ops[p]
        ops.append(write(p, len(ops), location, value, labeled=labeled))
        return self

    def rmw(
        self, location: str, read_value: int, value: int, *, labeled: bool = False
    ) -> "HistoryBuilder":
        """Append a read-modify-write to the current processor."""
        p = self._require_proc()
        ops = self._ops[p]
        ops.append(rmw(p, len(ops), location, read_value, value, labeled=labeled))
        return self

    # Short aliases matching the paper's notation.
    r = read
    w = write
    u = rmw

    def build(self) -> SystemHistory:
        """Finalize and validate the system history."""
        return SystemHistory(
            ProcessorHistory(p, ops) for p, ops in self._ops.items()
        )
