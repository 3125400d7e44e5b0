"""Program order ``->po`` and partial program order ``->ppo`` (Section 2).

Program order totally orders each processor's operations by issue index.
The *partial* program order models non-blocking writes: a read that follows
a write to a different location may bypass it.  Formally ``o1 ->ppo o2``
when ``o1 ->po o2`` and one of

* ``o1`` and ``o2`` access the same location,
* both are reads,
* both are writes,
* ``o1`` is a read and ``o2`` is a write, or
* the pair is implied transitively.

Only write→read pairs on distinct locations escape the order.  RMW
operations count as both read and write, so they order against everything —
they behave as fences, matching the SPARC treatment of ``swap``.
"""

from __future__ import annotations

from typing import Any

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.orders.relation import Relation

__all__ = [
    "po_positions",
    "po_relation",
    "ppo_relation",
    "ppo_base_pairs",
    "in_program_order",
]


def po_positions(history: SystemHistory) -> dict[tuple[Any, int], int]:
    """Map each operation identity to its program-order index.

    Program order only relates operations of the same processor, so
    position-within-processor plus a processor equality check answers any
    ``->po`` query in O(1); see :func:`in_program_order`.
    """
    return {op.uid: op.index for op in history.operations}


def in_program_order(o1: Operation, o2: Operation) -> bool:
    """True when ``o1 ->po o2`` (same processor, earlier index)."""
    return o1.proc == o2.proc and o1.index < o2.index


def po_relation(history: SystemHistory) -> Relation[Operation]:
    """The full (transitive) program-order relation as pairs.

    Materializes O(k²) pairs per processor of k operations — intended for
    small histories; use :func:`in_program_order` for point queries.
    """
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                rel.add(a, b)
    return rel


def _ppo_base_condition(o1: Operation, o2: Operation) -> bool:
    """The non-transitive cases of the ``->ppo`` definition."""
    if o1.location == o2.location:
        return True
    if o1.is_pure_read and o2.is_pure_read:
        return True
    if o1.is_write and o2.is_write:
        return True
    if o1.is_read and o2.is_write:
        return True
    # RMWs have both halves, so (RMW, read) pairs fall under "both reads".
    if o1.is_read and o2.is_read:
        return True
    return False


def ppo_base_pairs(history: SystemHistory) -> Relation[Operation]:
    """Direct (pre-closure) ``->ppo`` pairs of a history."""
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if _ppo_base_condition(a, b):
                    rel.add(a, b)
    return rel


def ppo_relation(history: SystemHistory) -> Relation[Operation]:
    """The partial program order ``->ppo`` (transitively closed).

    The closure matters: ``w(x) ->ppo r(x)`` (same location) and
    ``r(x) ->ppo r(y)`` (both reads) force ``w(x) ->ppo r(y)`` even though
    that pair alone is a write→read on distinct locations.
    """
    return ppo_base_pairs(history).transitive_closure()
