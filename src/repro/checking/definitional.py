"""The definitional oracle: admission decided straight from Section 2.

A history is admitted by a model when every processor ``p`` has a view:
a legal sequence of its own operations plus ``δp``, respecting the
model's ordering, such that the views satisfy the mutual consistency.
:func:`definitional_allowed` searches for such views by brute force,
reading nothing but the spec's parameters and the definitional
:class:`~repro.orders.relation.Relation` forms:

1. every reads-from attribution (:func:`reads_from_choices`);
2. every agreed object the mutual consistency asks for, each as plain
   permutations — the one write order, the per-location or per-block
   write orders, or the order of the labeled operations;
3. every order the labeled discipline allows, and the bracketing;
4. for each view, a legal sequence of ``δp`` that respects the
   transitive closure of the union of those constraints.  Legality is
   checked by replaying the sequence against a sequential register, with
   no memo and no budget.

There is no pruning beyond the definition, so the search is factorial
and the oracle only answers histories of at most
:data:`DEFINITIONAL_MAX_OPS` operations.  A model built from existing
parameters needs no change here.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Any, Iterable, Iterator, Sequence

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.orders.relation import Relation
from repro.orders.semi_causal import labeled_sem_relation
from repro.orders.writes_before import ReadsFrom, reads_from_choices
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    LabeledDiscipline,
    MutualConsistency,
    partition_block_map,
)

__all__ = ["DEFINITIONAL_MAX_OPS", "definitional_allowed"]

#: The largest history (in operations) the oracle will answer.
DEFINITIONAL_MAX_OPS = 8

Pairs = set[tuple[Operation, Operation]]


def definitional_allowed(spec: MemoryModelSpec, history: SystemHistory) -> bool:
    """Whether some choice of views witnesses ``history ∈ spec``."""
    if len(history.operations) > DEFINITIONAL_MAX_OPS:
        raise CheckerError(
            f"the definitional oracle answers at most {DEFINITIONAL_MAX_OPS} "
            f"operations, got {len(history.operations)}"
        )
    for rf in reads_from_choices(history):
        for agreed, coherence in _agreed_objects(spec, history):
            ordering = set(spec.ordering.build(history, rf, coherence).pairs())
            common = agreed | _bracketing(spec, history, rf)
            for labeled in _labeled_orders(spec, history, rf, coherence):
                if _views_exist(spec, history, ordering, common | labeled):
                    return True
    return False


def _chain(order: Sequence[Operation]) -> Pairs:
    """Every ``(earlier, later)`` pair of a sequence."""
    return {(a, b) for i, a in enumerate(order) for b in order[i + 1:]}


def _agreed_objects(
    spec: MemoryModelSpec, history: SystemHistory
) -> Iterator[tuple[Pairs, dict[str, tuple[Operation, ...]] | None]]:
    """Every object the views must agree on, with its per-location orders.

    Yields ``(pairs, coherence)``: the order every view must embed, and
    for write orders the per-location write sequences the ordering may
    depend on (``None`` for the labeled order and for no agreement).
    """
    mc = spec.mutual_consistency
    groups: dict[Any, list[Operation]] = {}
    if mc is MutualConsistency.LABELED_TOTAL_ORDER:
        groups[0] = list(history.labeled_ops)
    elif mc is MutualConsistency.TOTAL_WRITE_ORDER:
        groups[0] = list(history.writes)
    elif mc is MutualConsistency.COHERENCE:
        for w in history.writes:
            groups.setdefault(w.location, []).append(w)
    elif mc is MutualConsistency.PARTITION:
        assert spec.partition_blocks is not None
        block = partition_block_map(history, spec.partition_blocks)
        for w in history.writes:
            groups.setdefault(block[w.location], []).append(w)
    else:
        yield set(), None
        return
    for orders in product(*(permutations(g) for g in groups.values())):
        pairs: Pairs = set().union(*(_chain(o) for o in orders))
        if mc is MutualConsistency.LABELED_TOTAL_ORDER:
            yield pairs, None
            continue
        coherence: dict[str, tuple[Operation, ...]] = {}
        for w in (w for order in orders for w in order):
            coherence[w.location] = coherence.get(w.location, ()) + (w,)
        yield pairs, coherence


def _bracketing(
    spec: MemoryModelSpec, history: SystemHistory, rf: ReadsFrom
) -> Pairs:
    """Section 3.4's two conditions on ordinary operations.

    An ordinary operation follows the write each earlier acquire read
    from, and precedes every later release, in every view.
    """
    pairs: Pairs = set()
    if not spec.bracketing:
        return pairs
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, op in enumerate(ops):
            if op.labeled:
                continue
            for earlier in ops[:i]:
                src = rf.get(earlier) if earlier.is_acquire else None
                if src is not None:
                    pairs.add((src, op))
            pairs.update((op, later) for later in ops[i + 1:] if later.is_release)
    return pairs


def _labeled_orders(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    coherence: dict[str, tuple[Operation, ...]] | None,
) -> Iterator[Pairs]:
    """Every order the labeled discipline puts on the labeled operations.

    SC: any legal sequence of the labeled operations alone that keeps
    their program order.  PC: the semi-causality of the labeled
    sub-history (:func:`~repro.orders.semi_causal.labeled_sem_relation`).
    """
    labeled = history.labeled_ops
    if spec.labeled_discipline is None or not labeled:
        yield set()
    elif spec.labeled_discipline is LabeledDiscipline.SC:
        for order in permutations(labeled):
            if _legal(order) and all(
                a.index < b.index for a, b in _chain(order) if a.proc == b.proc
            ):
                yield _chain(order)
    else:
        yield set(labeled_sem_relation(history, rf, coherence or {}).pairs())


def _views_exist(
    spec: MemoryModelSpec,
    history: SystemHistory,
    ordering: Pairs,
    common: Pairs,
) -> bool:
    """Whether every view has a legal sequence under its constraints."""

    def constraints(proc: Any) -> Pairs:
        if not spec.ordering_own_view_only:
            return common | ordering
        return common | {(a, b) for a, b in ordering if a.proc == proc == b.proc}

    if spec.mutual_consistency is MutualConsistency.IDENTICAL:
        every = set().union(*(constraints(p) for p in history.procs))
        return _legal_sequence(history, history.operations, every)
    return all(
        _legal_sequence(
            history, spec.operation_set.view_contents(history, p), constraints(p)
        )
        for p in history.procs
    )


def _legal_sequence(
    history: SystemHistory, ops: Sequence[Operation], pairs: Pairs
) -> bool:
    """Whether ``ops`` has a legal order embedding the closure of ``pairs``."""
    closed = Relation(history.operations, pairs).transitive_closure()
    before = {op: {a for a in ops if closed.orders(a, op)} for op in ops}
    if any(op in preds for op, preds in before.items()):
        return False

    def extend(placed: frozenset, state: dict[str, int] | None) -> bool:
        if state is None:
            return False
        if len(placed) == len(ops):
            return True
        return any(
            extend(placed | {op}, _step(state, op))
            for op in ops
            if op not in placed and before[op] <= placed
        )

    return extend(frozenset(), {})


def _step(state: dict[str, int], op: Operation) -> dict[str, int] | None:
    """Replay one operation on a register state; ``None`` when it is illegal."""
    if op.is_read and state.get(op.location, INITIAL_VALUE) != op.value_read:
        return None
    if op.is_write:
        return {**state, op.location: op.value_written}
    return state


def _legal(ops: Iterable[Operation]) -> bool:
    state: dict[str, int] | None = {}
    for op in ops:
        state = None if state is None else _step(state, op)
    return state is not None
