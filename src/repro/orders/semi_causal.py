"""Semi-causality ``->sem`` with its remote components (Section 3.3).

Processor consistency (DASH flavor) orders operations inside each view by a
*semi-causality* relation that weakens full causality.  It augments the
partial program order with two "remote" orders built on a coherence order:

Remote writes-before (``->rwb``)
    ``o1 ->rwb o2`` iff ``o1 = w(x)v``, ``o2 = r(y)u``, and there is a write
    ``o' = w(y)u`` with ``o1 ->ppo o'`` and ``o2`` reads from ``o'``.  The
    ordinary writes-before edge would relate ``o'`` to ``o2``; the remote
    variant pulls the *earlier* (program-ordered) write of the same
    processor in front of the observing read.

Remote reads-before (``->rrb``)
    ``o1 ->rrb o2`` iff ``o1 = r(x)v``, ``o2 = w(y)u``, and there is a write
    ``o' = w(x)v'`` such that ``o1`` precedes ``o'`` in coherence order (the
    write ``o1`` read is older than ``o'``) and ``o' ->ppo o2``.

Then::

    ->sem  =  (->ppo  ∪  ->rwb  ∪  ->rrb)+

Legality of views supplies the ordinary writes-before constraint, so the
paper does not fold ``->wb`` into ``->sem`` and neither do we.
"""

from __future__ import annotations

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.orders.coherence import CoherenceOrder, coherence_position
from repro.orders.program_order import ppo_relation
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom

__all__ = ["rwb_relation", "rrb_relation", "sem_relation", "labeled_sem_relation"]


def rwb_relation(
    history: SystemHistory,
    reads_from: ReadsFrom,
    ppo: Relation[Operation] | None = None,
) -> Relation[Operation]:
    """The remote writes-before order for a fixed reads-from assignment."""
    if ppo is None:
        ppo = ppo_relation(history)
    rel: Relation[Operation] = Relation(history.operations)
    for read_op, src in reads_from.items():
        if src is None:
            continue
        # Every write program-ordered (by ppo) before the source write is
        # remotely ordered before the observing read.
        for earlier in history.ops_of(src.proc):
            if earlier.is_write and earlier.uid != src.uid and ppo.orders(earlier, src):
                rel.add(earlier, read_op)
    return rel


def rrb_relation(
    history: SystemHistory,
    reads_from: ReadsFrom,
    coherence: CoherenceOrder,
    ppo: Relation[Operation] | None = None,
) -> Relation[Operation]:
    """The remote reads-before order for fixed reads-from and coherence orders."""
    if ppo is None:
        ppo = ppo_relation(history)
    pos = coherence_position(coherence)
    rel: Relation[Operation] = Relation(history.operations)
    for read_op, src in reads_from.items():
        if not read_op.is_read:
            continue
        loc = read_op.location
        # Writes to the read's location that are coherence-newer than the
        # value it observed (all writes, when it observed the initial value).
        newer = [
            w
            for w in coherence.get(loc, ())
            if src is None or (w.uid != src.uid and pos[w.uid] > pos[src.uid])
        ]
        for o_prime in newer:
            for later in history.ops_of(o_prime.proc):
                if later.is_write and later.uid != o_prime.uid and ppo.orders(o_prime, later):
                    rel.add(read_op, later)
    return rel


def sem_relation(
    history: SystemHistory,
    reads_from: ReadsFrom,
    coherence: CoherenceOrder,
) -> Relation[Operation]:
    """The semi-causality relation ``(->ppo ∪ ->rwb ∪ ->rrb)+``."""
    ppo = ppo_relation(history)
    rwb = rwb_relation(history, reads_from, ppo)
    rrb = rrb_relation(history, reads_from, coherence, ppo)
    return ppo.union(rwb, rrb).transitive_closure()


def labeled_sem_relation(
    history: SystemHistory,
    reads_from: ReadsFrom,
    coherence: CoherenceOrder,
) -> Relation[Operation]:
    """Semi-causality of the labeled operations alone (``RC_pc``, Section 3.4).

    The labeled sub-history gets the attribution and the write orders
    projected onto it; a labeled read whose source is an ordinary write
    reads from nothing there.  The result is over ``history``'s own
    operations.
    """
    sub, back = history.project(lambda op: op.labeled)
    fwd = {back[new.uid].uid: new for new in sub.operations}
    rf_sub: dict[Operation, Operation | None] = {}
    for new in sub.reads:
        src = reads_from.get(back[new.uid])
        rf_sub[new] = fwd[src.uid] if src is not None and src.uid in fwd else None
    co_sub = {}
    for loc, chain in coherence.items():
        projected = tuple(fwd[w.uid] for w in chain if w.uid in fwd)
        if projected:
            co_sub[loc] = projected
    rel: Relation[Operation] = Relation(history.operations)
    for a, b in sem_relation(sub, rf_sub, co_sub).pairs():
        rel.add(back[a.uid], back[b.uid])
    return rel
