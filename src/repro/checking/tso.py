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

The write orders come from the kernel's integer enumerator
(:func:`~repro.kernel.serializations.iter_linear_extensions` over
:func:`~repro.kernel.serializations.write_order_masks`), in the same order
the kernel's TSO candidates are tried, and the ``->ppo`` bounds from the
history plane's compiled ``ppo`` rows; reads are placed on universe
indices throughout.

Falls back to the generic solver for histories with RMW operations or
duplicated write values, where the greedy argument does not apply, and
for histories with a read no write can serve, which the kernel denies
before enumerating anything.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, OpKind
from repro.core.view import View
from repro.kernel.backend import masks_acyclic
from repro.kernel.constraints import HistoryPlane, history_plane, rule_masks
from repro.kernel.results import CheckResult
from repro.kernel.rf import impossible_read
from repro.kernel.search import SearchBudget, check_with_spec
from repro.kernel.serializations import iter_linear_extensions, write_order_masks
from repro.spec.parameters import PPO
from repro.spec.registry import TSO_SPEC

__all__ = ["check_tso"]


def check_tso(history: SystemHistory, budget: SearchBudget | None = None) -> CheckResult:
    """Decide TSO membership, with witness views on success."""
    plane = history_plane(history)
    rf = plane.unique_rf
    if (
        rf is None
        or any(op.kind is OpKind.RMW for op in history.operations)
        or impossible_read(history, plane.candidates) is not None
    ):
        # Ambiguous reads-from or RMWs: the greedy argument does not apply.
        # A read no write can serve: the kernel denies without enumerating.
        return check_with_spec(TSO_SPEC, history, budget)

    forced = write_order_masks(plane, rf)
    if not masks_acyclic(forced, plane.n):
        return CheckResult(
            "TSO", False, reason="reads-from forces a cyclic write order"
        )

    # ``->ppo`` needs no attribution; the rows are the kernel's, shared
    # on the plane with every ppo-ordered spec.
    ppo = plane.masks.get(PPO)
    if ppo is None:
        ppo = plane.masks[PPO] = rule_masks(plane, PPO, rf, {})
    placers = [_ReadPlacer(plane, proc, ppo) for proc in history.procs]
    explored = 0
    for order in iter_linear_extensions(plane.write_idx, forced):
        explored += 1
        views = _views_for_write_order(plane, order, placers)
        if views is not None:
            return CheckResult("TSO", True, views=views, explored=explored)
    return CheckResult(
        "TSO",
        False,
        reason="no shared write order admits legal per-processor views",
        explored=explored,
    )


class _ReadPlacer:
    """One processor's reads with their ``->ppo`` bounds among its writes."""

    __slots__ = ("proc", "reads", "after", "before")

    def __init__(self, plane: HistoryPlane, proc: Any, ppo: Sequence[int]) -> None:
        start, end = plane.ranges[proc]
        own_writes = [i for i in range(start, end) if plane.uni_write[i] is not None]
        self.proc = proc
        #: Universe indices of the pure reads, in program order.
        self.reads = [i for i in range(start, end) if plane.uni_write[i] is None]
        #: Per read: own writes ``->ppo``-before it (it goes after them) and
        #: ``->ppo``-after it (it goes before them).
        self.after = [[w for w in own_writes if ppo[r] >> w & 1] for r in self.reads]
        self.before = [[w for w in own_writes if ppo[w] >> r & 1] for r in self.reads]

    def place(
        self,
        wpos: Sequence[int],
        nwrites: int,
        value_at: Sequence[Sequence[int | None]],
        uni_loc: Sequence[int],
        uni_read: Sequence[int | None],
    ) -> list[int] | None:
        """Earliest-feasible slots for the reads, or ``None``.

        Slot ``s`` means "after the first ``s`` writes of the shared order".
        """
        slots: list[int] = []
        current_min = 0
        for r, after, before in zip(self.reads, self.after, self.before):
            lo = current_min
            for w in after:
                if wpos[w] + 1 > lo:
                    lo = wpos[w] + 1
            hi = nwrites
            for w in before:
                if wpos[w] < hi:
                    hi = wpos[w]
            vals = value_at[uni_loc[r]]
            want = uni_read[r]
            slot = next((s for s in range(lo, hi + 1) if vals[s] == want), None)
            if slot is None:
                return None
            slots.append(slot)
            current_min = slot
        return slots


def _views_for_write_order(
    plane: HistoryPlane, order: tuple[int, ...], placers: list[_ReadPlacer]
) -> dict[Any, View] | None:
    """Greedy construction of every processor's view for one write order."""
    nwrites = len(order)
    wpos = [0] * plane.n
    for s, w in enumerate(order):
        wpos[w] = s
    # Value of each location after the first s writes of ``order``.
    uni_loc = plane.uni_loc
    uni_write = plane.uni_write
    value_at: list[list[int | None]] = [
        [INITIAL_VALUE] for _ in plane.locations
    ]
    for w in order:
        for loc, vals in enumerate(value_at):
            vals.append(uni_write[w] if uni_loc[w] == loc else vals[-1])
    ops = plane.ops
    views: dict[Any, View] = {}
    for placer in placers:
        slots = placer.place(wpos, nwrites, value_at, uni_loc, plane.uni_read)
        if slots is None:
            return None
        # Interleave: reads assigned slot s appear just before order[s].
        merged = []
        reads = placer.reads
        ri = 0
        for s in range(nwrites + 1):
            while ri < len(reads) and slots[ri] == s:
                merged.append(ops[reads[ri]])
                ri += 1
            if s < nwrites:
                merged.append(ops[order[s]])
        views[placer.proc] = View(placer.proc, merged, plane.history, validate=False)
    return views
