"""The writes-before order ``->wb`` and reads-from analysis (Section 2).

``o1 ->wb o2`` when ``o1`` is a write, ``o2`` is a read of the same
location, and ``o2`` returns the value ``o1`` wrote.  With the conventional
*distinct write values* discipline (no two writes store the same value into
the same location) the relation is a function of the history; otherwise a
read may have several candidate writers and callers must either enumerate
the choices (:func:`reads_from_choices`) or accept an
:class:`~repro.core.errors.AmbiguousValueError`.

A read may also return the initial value 0 of a location, in which case it
reads from no write at all; such reads contribute no ``wb`` edge and their
source is represented as ``None``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from repro.core.errors import AmbiguousValueError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.orders.relation import Relation

__all__ = [
    "ReadsFrom",
    "reads_from_candidates",
    "unique_reads_from",
    "reads_from_choices",
    "wb_relation",
]

#: A reads-from assignment: each read-half op maps to its source write, or
#: ``None`` when it reads the initial value.
ReadsFrom = Mapping[Operation, Operation | None]


def reads_from_candidates(
    history: SystemHistory,
) -> dict[Operation, tuple[Operation | None, ...]]:
    """All possible source writes for every read-half operation.

    A candidate is a write-half operation on the same location storing the
    value the read returned; ``None`` (the initial value) is a candidate when
    the read returned :data:`~repro.core.operation.INITIAL_VALUE`.  An RMW
    never reads from its own write half.
    """
    writes_by_loc: dict[str, list[Operation]] = {}
    for op in history.operations:
        if op.is_write:
            writes_by_loc.setdefault(op.location, []).append(op)

    out: dict[Operation, tuple[Operation | None, ...]] = {}
    for op in history.operations:
        if not op.is_read:
            continue
        wanted = op.value_read
        cands: list[Operation | None] = [
            w
            for w in writes_by_loc.get(op.location, [])
            if w.value_written == wanted and w.uid != op.uid
        ]
        if wanted == INITIAL_VALUE:
            cands.append(None)
        out[op] = tuple(cands)
    return out


def unique_reads_from(history: SystemHistory) -> dict[Operation, Operation | None]:
    """The reads-from function, when it is unambiguous.

    Raises
    ------
    AmbiguousValueError
        If any read has more than one candidate source (including the
        initial-value pseudo-source).  Reads with *no* candidate map to a
        missing entry; they make the history illegal under every model and
        are left for the checkers to reject.
    """
    out: dict[Operation, Operation | None] = {}
    for op, cands in reads_from_candidates(history).items():
        if len(cands) > 1:
            raise AmbiguousValueError(
                f"read {op} has {len(cands)} candidate writers; "
                "use reads_from_choices or distinct write values"
            )
        if cands:
            out[op] = cands[0]
    return out


def unambiguous_reads_from(
    history: SystemHistory,
) -> dict[Operation, Operation | None] | None:
    """The reads-from function if every read has at most one candidate.

    Returns ``None`` when any read is ambiguous — either two writes store
    its value into its location, or it returns the initial value 0 which
    some write also stores (initial-vs-written ambiguity; Bakery's
    ``choosing := false`` writes hit this case).  Reads with no candidate
    at all are simply absent from the result.
    """
    out: dict[Operation, Operation | None] = {}
    for op, cands in reads_from_candidates(history).items():
        if len(cands) > 1:
            return None
        if cands:
            out[op] = cands[0]
    return out


def reads_from_choices(history: SystemHistory) -> Iterator[dict[Operation, Operation | None]]:
    """Enumerate every total reads-from assignment of the history.

    Yields nothing when some read has no candidate source at all (the
    history is then illegal under every memory model).
    """
    cands = reads_from_candidates(history)
    reads = list(cands)
    option_lists = [cands[r] for r in reads]
    if any(not opts for opts in option_lists):
        return
    for combo in itertools.product(*option_lists):
        yield dict(zip(reads, combo))


def wb_relation(
    history: SystemHistory, reads_from: ReadsFrom | None = None
) -> Relation[Operation]:
    """The writes-before relation for a (given or inferred) reads-from map."""
    if reads_from is None:
        reads_from = unique_reads_from(history)
    rel: Relation[Operation] = Relation(history.operations)
    for read_op, src in reads_from.items():
        if src is not None:
            rel.add(src, read_op)
    return rel
