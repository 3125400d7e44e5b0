"""Transitive closure of a relation stored as one integer bitmask per item.

The relation algebra (:class:`repro.orders.relation.Relation`) and the
kernel's mask planes (:mod:`repro.kernel.backend`) both close relations
this way; the function lives here, below both, so neither imports the
other.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["close_masks"]


def close_masks(masks: Sequence[int]) -> list[int]:
    """Transitive closure of bit rows (bitset Floyd–Warshall).

    Row ``i`` bit ``k`` set means an edge between items ``i`` and ``k``;
    the loop is the same whether rows hold predecessors or successors,
    since the closure of a relation's transpose is the transpose of its
    closure.  A cyclic relation is closed too: every item on a cycle
    gets its own bit.
    """
    out = list(masks)
    n = len(out)
    for k in range(n):
        pk = out[k]
        if not pk:
            continue
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= pk
    return out
