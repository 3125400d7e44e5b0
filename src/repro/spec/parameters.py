"""The three characterization parameters of the paper (Section 2).

A memory model in the framework is a choice of

1. **Set of operations** (:class:`OperationSet`) — which remote operations
   each processor's view must contain in addition to its own;
2. **Mutual consistency** (:class:`MutualConsistency`) — which cross-view
   agreement is required;
3. **Ordering** (:class:`OrderingRule`) — which order derived from the
   history every view must respect.

These are deliberately declarative values, not code: the kernel search in
:mod:`repro.kernel.search` interprets them, the registry composes them
into the paper's named models, and new memories (Section 7) are built by
recombining them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.orders.causal import causal_relation
from repro.orders.coherence import CoherenceOrder
from repro.orders.program_order import po_relation, ppo_relation
from repro.orders.relation import Relation
from repro.orders.semi_causal import sem_relation
from repro.orders.writes_before import ReadsFrom, unambiguous_reads_from

__all__ = [
    "OperationSet",
    "MutualConsistency",
    "LabeledDiscipline",
    "OrderingRule",
    "PO",
    "PO_LOC",
    "PO_SYNC",
    "PPO",
    "CAUSAL",
    "SEMI_CAUSAL",
    "SESSION_COMPONENTS",
    "session_rule",
    "partition_rule",
    "partition_block_map",
    "rule_by_name",
]


class OperationSet(enum.Enum):
    """Parameter 1: the contents of ``δ_p`` (remote operations in a view)."""

    #: ``δ_p = a``: all operations of the other processors.  Views then see
    #: the entire execution; SC further requires the views to coincide.
    ALL_REMOTE = "all"

    #: ``δ_p = w``: only the write operations of other processors — the
    #: common choice for weak memories, since only writes change state.
    REMOTE_WRITES = "writes"

    def members(self, history: SystemHistory, proc: Any) -> tuple[Operation, ...]:
        """The remote operations that must appear in ``proc``'s view."""
        if self is OperationSet.ALL_REMOTE:
            return history.remote_ops(proc, lambda op: True)
        return history.remote_writes(proc)

    def view_contents(self, history: SystemHistory, proc: Any) -> tuple[Operation, ...]:
        """Own operations plus the required remote operations."""
        return history.ops_of(proc) + self.members(history, proc)


class MutualConsistency(enum.Enum):
    """Parameter 2: cross-view agreement requirements."""

    #: No agreement between views beyond sharing the one history (PRAM,
    #: causal memory).
    NONE = "none"

    #: All views order *all* writes identically (TSO's store order).
    TOTAL_WRITE_ORDER = "total-write-order"

    #: All views order the writes *to each location* identically — cache
    #: coherence (PC, RC).
    COHERENCE = "coherence"

    #: Views must be identical sequences (SC collapses every view to one
    #: common legal sequence over all operations).
    IDENTICAL = "identical"

    #: All views order the *labeled* (strong) operations identically —
    #: hybrid consistency's agreement requirement (Attiya & Friedman,
    #: cited by the paper as the strong/weak example of parameter 1).
    LABELED_TOTAL_ORDER = "labeled-total-order"

    #: Locations are split into ``k`` blocks and all views order the
    #: writes *within each block* identically — Partition Consistency
    #: (Cheng, Higham & Kawash) as a parameterized family.  The block
    #: count lives on the spec (``partition_blocks``); one block is
    #: total-write-order agreement, one block per location degenerates
    #: to coherence.
    PARTITION = "partition"


class LabeledDiscipline(enum.Enum):
    """Consistency required of labeled (synchronization) operations under RC."""

    #: ``RC_sc``: labeled operations are sequentially consistent.
    SC = "sc"

    #: ``RC_pc``: labeled operations are processor consistent.
    PC = "pc"


@dataclass(frozen=True)
class OrderingRule:
    """Parameter 3: the per-view ordering constraint.

    ``build`` produces, for a fixed reads-from assignment and (when the
    model has one) coherence order, the relation that every view must
    embed as a linear extension on the operations it contains.
    """

    name: str
    build: Callable[
        [SystemHistory, ReadsFrom, CoherenceOrder | None], Relation[Operation]
    ]
    #: Whether ``build`` needs a coherence order (only semi-causality does).
    needs_coherence: bool = False

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"OrderingRule({self.name})"


def _build_po(history: SystemHistory, rf: ReadsFrom, co: CoherenceOrder | None):
    return po_relation(history)


def _build_ppo(history: SystemHistory, rf: ReadsFrom, co: CoherenceOrder | None):
    return ppo_relation(history)


def _build_causal(history: SystemHistory, rf: ReadsFrom, co: CoherenceOrder | None):
    return causal_relation(history, rf)


def _build_sem(history: SystemHistory, rf: ReadsFrom, co: CoherenceOrder | None):
    if co is None:
        raise ValueError("semi-causality requires a coherence order")
    return sem_relation(history, rf, co)


def _build_po_loc(history: SystemHistory, rf: ReadsFrom, co: CoherenceOrder | None):
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if a.location == b.location:
                    rel.add(a, b)
    return rel


def _build_po_sync(history: SystemHistory, rf: ReadsFrom, co: CoherenceOrder | None):
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if a.labeled or b.labeled:
                    rel.add(a, b)
    return rel.transitive_closure()


#: Program order — full, blocking operations (SC, PRAM).
PO = OrderingRule("po", _build_po)

#: Program order restricted to pairs with at least one labeled (strong)
#: operation — hybrid consistency's ordering: weak operations are ordered
#: only relative to the strong operations around them.
PO_SYNC = OrderingRule("po-sync", _build_po_sync)

#: Program order restricted to same-location pairs — per-location SC, the
#: ordering half of plain cache coherence.
PO_LOC = OrderingRule("po-loc", _build_po_loc)

#: Partial program order — write→read bypass allowed (TSO, PC, RC).
PPO = OrderingRule("ppo", _build_ppo)

#: Causal order ``(po ∪ wb)+`` (causal memory).
CAUSAL = OrderingRule("causal", _build_causal)

#: Semi-causality ``(ppo ∪ rwb ∪ rrb)+`` (processor consistency).
SEMI_CAUSAL = OrderingRule("sem", _build_sem, needs_coherence=True)


# -- session guarantees (Terry et al.; Steinke & Nutt's basic orders) ----------

#: The four per-session guarantee components, in canonical order:
#: read-your-writes (``w →po r``), monotonic reads (``r →po r``),
#: monotonic writes (``w →po w``) and writes-follow-reads
#: (``src(r) → w'`` for a read ``r`` program-order-before a write ``w'``).
SESSION_COMPONENTS = ("ryw", "mr", "mw", "wfr")


def _build_session(
    components: tuple[str, ...],
    history: SystemHistory,
    rf: ReadsFrom,
    co: CoherenceOrder | None,
):
    comps = set(components)
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if (
                    ("mw" in comps and a.is_write and b.is_write)
                    or ("ryw" in comps and a.is_write and b.is_read)
                    or ("mr" in comps and a.is_read and b.is_read)
                ):
                    rel.add(a, b)
    if "wfr" in comps:
        reads = rf if rf is not None else unambiguous_reads_from(history)
        if reads is not None:
            for r, src in reads.items():
                if src is None:
                    continue
                for later in history.ops_of(r.proc)[r.index + 1:]:
                    if later.is_write and later.uid != src.uid:
                        rel.add(src, later)
    return rel.transitive_closure()


@lru_cache(maxsize=None)
def session_rule(*components: str) -> OrderingRule:
    """The ordering rule enforcing a meet of session-guarantee components.

    ``components`` is any non-empty subset of :data:`SESSION_COMPONENTS`;
    the returned rule is cached so equal component sets share one rule
    object (the kernel's per-history mask cache keys on rule identity).
    The full meet ``session_rule(*SESSION_COMPONENTS)`` is Steinke &
    Nutt's composition recovering a causal-like memory without the
    ``r →po w`` edges of full program order.
    """
    seen = set(components)
    unknown = seen - set(SESSION_COMPONENTS)
    if unknown or not seen:
        raise ValueError(
            f"session components must be a non-empty subset of "
            f"{SESSION_COMPONENTS}, got {components!r}"
        )
    canon = tuple(c for c in SESSION_COMPONENTS if c in seen)
    return OrderingRule(
        f"session({'+'.join(canon)})", partial(_build_session, canon)
    )


# -- Partition Consistency (Cheng, Higham & Kawash) ----------------------------


def partition_block_map(history: SystemHistory, blocks: int) -> dict[str, int]:
    """The location → block assignment of a ``blocks``-way partition.

    Deterministic and history-derived: locations sort lexicographically
    and take blocks round-robin, so every layer (ordering rule, candidate
    enumeration, pre-pass) agrees on the partition without carrying it
    through the wire format.
    """
    return {loc: i % blocks for i, loc in enumerate(sorted(history.locations))}


def _build_po_block(
    blocks: int,
    history: SystemHistory,
    rf: ReadsFrom,
    co: CoherenceOrder | None,
):
    block = partition_block_map(history, blocks)
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if block[a.location] == block[b.location]:
                    rel.add(a, b)
    return rel


@lru_cache(maxsize=None)
def partition_rule(blocks: int) -> OrderingRule:
    """Program order restricted to same-block pairs of a ``blocks``-way split.

    The ordering half of Partition Consistency: with one block it is full
    program order, with one block per location it degenerates to
    ``po-loc``.  Cached per ``blocks`` so every spec with the same
    parameter shares one rule object.
    """
    if blocks < 1:
        raise ValueError(f"partition needs at least one block, got {blocks}")
    return OrderingRule(f"po-block({blocks})", partial(_build_po_block, blocks))


_BASE_RULES = {
    rule.name: rule for rule in (PO, PO_SYNC, PO_LOC, PPO, CAUSAL, SEMI_CAUSAL)
}


def rule_by_name(name: str) -> OrderingRule | None:
    """Resolve an ordering rule from its stable name, or ``None``.

    Covers the module singletons plus every factory-made session and
    partition rule.  The factories cache, so the resolved object is
    identical to the one specs hold and may key caches on rule identity.
    """
    base = _BASE_RULES.get(name)
    if base is not None:
        return base
    if name.startswith("session(") and name.endswith(")"):
        parts = tuple(name[len("session("):-1].split("+"))
        try:
            return session_rule(*parts)
        except ValueError:
            return None
    if name.startswith("po-block(") and name.endswith(")"):
        try:
            return partition_rule(int(name[len("po-block("):-1]))
        except ValueError:
            return None
    return None
