"""Axiomatic TSO à la Sindhu, Frailong & Cekleov (paper Section 6, E8).

The paper claims its view-based TSO characterization captures the axiomatic
specification of SPARC TSO.  To test that claim empirically we implement
the axiomatic model *independently*:

* **Order** — a single total order ``≤`` over all stores;
* **per-processor FIFO** — ``≤`` extends each processor's program order on
  its own stores (stores drain from a FIFO buffer);
* **LoadOp** — loads of one processor perform in program order, and a store
  program-ordered after a load commits after that load performs;
* **Value** — a load returns the value of the ``≤``-maximal store among
  those committed before it performs *and its own program-earlier stores*
  (store-buffer forwarding);
* **Termination** — implicit: every store occupies a position in ``≤``.

The one semantic gap between this and the paper's characterization is
forwarding: the paper's ``->ppo`` orders a write before a program-later
read *of the same location*, which forbids a processor from seeing its own
store before other processors do.  Hardware TSO permits exactly that
(litmus test ``SB+rfi`` / n5-style shapes).  The equivalence experiment
(``benchmarks/bench_tso_axiomatic.py``) quantifies where the two agree and
exhibits the divergence; see EXPERIMENTS.md.

The checker enumerates store orders (pruned by forced edges) and places
each processor's loads greedily, mirroring :mod:`repro.checking.tso` —
greedy placement is optimal for the same monotonicity reason.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation, OpKind
from repro.kernel.results import CheckResult
from repro.kernel.serializations import forced_write_order
from repro.orders.writes_before import unambiguous_reads_from

__all__ = ["check_axiomatic_tso"]

_MODEL = "TSO-axiomatic"


def check_axiomatic_tso(history: SystemHistory) -> CheckResult:
    """Decide membership in hardware (axiomatic, store-forwarding) TSO.

    Requires distinct write values and no RMW operations — the same
    simplification the paper makes ("we omit [swaps] in this discussion",
    Section 3.2).
    """
    if any(op.kind is OpKind.RMW for op in history.operations):
        raise CheckerError(f"{_MODEL}: RMW operations are not supported")
    rf = unambiguous_reads_from(history)
    if rf is None:
        raise CheckerError(f"{_MODEL}: requires an unambiguous reads-from map")

    # Forwarded (same-processor) sources impose no cross-store constraint
    # beyond the FIFO chains forced_write_order already includes.
    forced = forced_write_order(history, rf)
    if not forced.is_acyclic():
        return CheckResult(
            _MODEL, False, reason="reads-from forces a cyclic store order"
        )

    explored = 0
    for order in forced.all_topological_sorts():
        explored += 1
        if all(_loads_placeable(history, proc, order) for proc in history.procs):
            return CheckResult(_MODEL, True, explored=explored)
    return CheckResult(
        _MODEL,
        False,
        reason="no store order satisfies the Value axiom for all loads",
        explored=explored,
    )


def _loads_placeable(
    history: SystemHistory, proc: Any, order: list[Operation]
) -> bool:
    """Greedy earliest placement of ``proc``'s loads against a store order.

    Slot ``s`` means the load performs after the first ``s`` stores have
    committed to memory.  Constraints: slots are nondecreasing in program
    order (LoadOp); a store program-ordered after a load commits after the
    load performs; the Value axiom with forwarding decides feasibility.
    """
    wpos = {w.uid: i for i, w in enumerate(order)}
    nstores = len(order)
    prefix: dict[str, list[int]] = {}
    for loc in history.locations:
        vals = [INITIAL_VALUE]
        for w in order:
            vals.append(w.value_written if w.location == loc else vals[-1])
        prefix[loc] = vals

    own_ops = history.ops_of(proc)
    current_min = 0
    for r in own_ops:
        if not r.is_pure_read:
            continue
        lo = current_min
        later_stores = [w for w in own_ops[r.index + 1:] if w.is_write]
        hi = min((wpos[w.uid] for w in later_stores), default=nstores)
        if lo > hi:
            return False
        own_prior = None
        for w in own_ops[: r.index]:
            if w.is_write and w.location == r.location:
                own_prior = w  # latest program-earlier own store to the location
        want = r.value_read
        vals = prefix[r.location]
        slot = None
        for s in range(lo, hi + 1):
            if own_prior is not None and wpos[own_prior.uid] >= s:
                value_here = own_prior.value_written  # forwarded from the buffer
            else:
                value_here = vals[s]
            if value_here == want:
                slot = s
                break
        if slot is None:
            return False
        current_min = slot
    return True
