"""The causal order ``->co`` (Section 2).

Lamport's happens-before relation adapted to shared memory: two operations
are causally ordered when they are related by program order, by
writes-before (a read observing a write plays the role of message receipt),
or transitively::

    ->co  =  (->po  ∪  ->wb)+

Causal memory (Section 3.5) requires processor views to respect ``->co``;
PRAM requires only ``->po``.  The gap between the two is exactly what
Figure 4 exhibits.
"""

from __future__ import annotations

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.orders.relation import Relation
from repro.orders.program_order import po_relation
from repro.orders.writes_before import ReadsFrom, wb_relation

__all__ = ["causal_relation", "causal_base_pairs"]


def causal_base_pairs(
    history: SystemHistory, reads_from: ReadsFrom | None = None
) -> Relation[Operation]:
    """The union ``->po ∪ ->wb`` before transitive closure."""
    return po_relation(history).union(wb_relation(history, reads_from))


def causal_relation(
    history: SystemHistory, reads_from: ReadsFrom | None = None
) -> Relation[Operation]:
    """The causal order ``->co = (->po ∪ ->wb)+`` of a history.

    Parameters
    ----------
    history:
        The system execution history.
    reads_from:
        An explicit reads-from assignment; when omitted the unique one is
        inferred (requires distinct write values, else
        :class:`~repro.core.errors.AmbiguousValueError`).
    """
    return causal_base_pairs(history, reads_from).transitive_closure()
