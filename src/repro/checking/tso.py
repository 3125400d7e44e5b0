"""Fast total-store-ordering checker (paper Section 3.2).

TSO in the paper's framework: views contain own operations plus all remote
writes (``δ_p = w``); all views order *all* writes identically (mutual
consistency); the partial program order ``->ppo`` is respected.

The fast path exploits a structural fact: once the shared write order is
fixed, the views decouple and each processor's reads can be placed
*greedily*.  A read only needs a slot in the write sequence where

* the most recent write to its location stores the value it returned,
* all of its ``->ppo`` predecessors among its own writes are already
  placed, and its own later writes are not,
* it does not precede an earlier (program-ordered) read of its processor.

Placing every read at the earliest feasible slot is optimal because all
constraints relating reads are lower bounds that only grow with later
placement.  This turns the per-write-order check from exponential to
O(reads × writes), leaving only the write-order enumeration exponential —
and that enumeration is pruned by forced reads-from edges.

Falls back to the generic solver for histories with RMW operations or
duplicated write values, where the greedy argument does not apply.
"""

from __future__ import annotations

from typing import Any

from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation, OpKind
from repro.core.view import View
from repro.kernel.results import CheckResult
from repro.kernel.search import SearchBudget, check_with_spec
from repro.kernel.serializations import forced_write_order
from repro.orders.program_order import ppo_relation
from repro.orders.relation import Relation
from repro.orders.writes_before import unambiguous_reads_from
from repro.spec.registry import TSO_SPEC

__all__ = ["check_tso"]


def check_tso(history: SystemHistory, budget: SearchBudget | None = None) -> CheckResult:
    """Decide TSO membership, with witness views on success."""
    rf = unambiguous_reads_from(history)
    if rf is None or any(op.kind is OpKind.RMW for op in history.operations):
        # Ambiguous reads-from or RMWs: the greedy argument does not apply.
        return check_with_spec(TSO_SPEC, history, budget)

    forced = forced_write_order(history, rf)
    if not forced.is_acyclic():
        return CheckResult(
            "TSO", False, reason="reads-from forces a cyclic write order"
        )

    ppo = ppo_relation(history)
    explored = 0
    for order in forced.all_topological_sorts():
        explored += 1
        views = _views_for_write_order(history, order, ppo)
        if views is not None:
            return CheckResult("TSO", True, views=views, explored=explored)
    return CheckResult(
        "TSO",
        False,
        reason="no shared write order admits legal per-processor views",
        explored=explored,
    )


def _views_for_write_order(
    history: SystemHistory, order: list[Operation], ppo: Relation[Operation]
) -> dict[Any, View] | None:
    """Greedy construction of every processor's view for one write order."""
    wpos = {w.uid: i for i, w in enumerate(order)}
    # Value of each location after the first k writes of `order`.
    nwrites = len(order)
    views: dict[Any, View] = {}
    for proc in history.procs:
        slots = _place_reads(history, proc, order, wpos, ppo)
        if slots is None:
            return None
        # Interleave: reads assigned slot s appear just before order[s].
        merged: list[Operation] = []
        reads = [op for op in history.ops_of(proc) if op.is_pure_read]
        ri = 0
        for s in range(nwrites + 1):
            while ri < len(reads) and slots[ri] == s:
                merged.append(reads[ri])
                ri += 1
            if s < nwrites:
                merged.append(order[s])
        views[proc] = View(proc, merged, history, validate=False)
    return views


def _place_reads(
    history: SystemHistory,
    proc: Any,
    order: list[Operation],
    wpos: dict[tuple, int],
    ppo: Relation[Operation],
) -> list[int] | None:
    """Earliest-feasible slots for ``proc``'s reads, or ``None``.

    Slot ``s`` means "after the first ``s`` writes of the shared order".
    """
    nwrites = len(order)
    # Per-location prefix values: value_at[loc][s] = value after s writes.
    value_at: dict[str, list[int]] = {}
    for loc in history.locations:
        vals = [INITIAL_VALUE]
        for w in order:
            vals.append(w.value_written if w.location == loc else vals[-1])
        value_at[loc] = vals

    own_ops = history.ops_of(proc)
    own_writes = [op for op in own_ops if op.is_write]
    reads = [op for op in own_ops if op.is_pure_read]
    slots: list[int] = []
    current_min = 0
    for r in reads:
        lo = current_min
        hi = nwrites
        for w in own_writes:
            if ppo.orders(w, r):
                lo = max(lo, wpos[w.uid] + 1)
            elif ppo.orders(r, w):
                hi = min(hi, wpos[w.uid])
        if lo > hi:
            return None
        vals = value_at[r.location]
        want = r.value_read
        slot = next((s for s in range(lo, hi + 1) if vals[s] == want), None)
        if slot is None:
            return None
        slots.append(slot)
        current_min = slot
    return slots
