"""Independent validation of witness views.

A positive checker verdict carries views; this module re-verifies them
against the spec *without* reusing the solver's machinery — contents,
legality, ordering, and mutual consistency are each checked directly from
the definitions.  The property suite runs every witness produced over the
exhaustive 2×2 space through this validator, so a solver bug that
fabricates invalid witnesses cannot hide behind its own verdict.

For ``RC_sc`` the labeled discipline is validated in its mutual-agreement
form — all views must order common labeled operations identically and
admit a common extension; the full discipline re-check would be the
solver again.  ``RC_pc``'s labeled semi-causality, bracketing and every
write-order agreement (total, per location, per partition block) are
validated exactly.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.core.view import View, first_legality_violation
from repro.orders.relation import Relation
from repro.orders.semi_causal import labeled_sem_relation
from repro.orders.writes_before import unambiguous_reads_from
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    LabeledDiscipline,
    MutualConsistency,
    partition_block_map,
)

__all__ = ["validate_witness"]


def validate_witness(
    spec: MemoryModelSpec,
    history: SystemHistory,
    views: Mapping[Any, View],
) -> list[str]:
    """All the ways ``views`` fail to witness ``history ∈ spec`` (empty = valid).

    Partition consistency's agreement is one write order per block of
    :func:`~repro.spec.parameters.partition_block_map`.

    Requires an unambiguous reads-from attribution (the litmus
    discipline); raises :class:`CheckerError` otherwise, since the
    ordering relations are then not functions of the history.
    """
    problems: list[str] = []
    rf = unambiguous_reads_from(history)
    if rf is None:
        raise CheckerError("witness validation requires unambiguous reads-from")

    # -- contents and legality --------------------------------------------------
    for proc in history.procs:
        if proc not in views:
            problems.append(f"missing view for {proc!r}")
            continue
        view = views[proc]
        expected = {op.uid for op in spec.operation_set.view_contents(history, proc)}
        actual = {op.uid for op in view}
        if actual != expected:
            problems.append(
                f"view for {proc!r} has wrong contents: "
                f"missing {sorted(expected - actual)}, extra {sorted(actual - expected)}"
            )
        violation = first_legality_violation(list(view))
        if violation is not None:
            pos, op, want = violation
            problems.append(
                f"view for {proc!r} illegal at {pos}: {op} should read {want}"
            )

    if problems:
        return problems  # structural problems make the rest meaningless

    # -- mutual consistency -------------------------------------------------------
    mc = spec.mutual_consistency
    procs = list(history.procs)
    if mc is MutualConsistency.IDENTICAL:
        first = [op.uid for op in views[procs[0]]]
        for proc in procs[1:]:
            if [op.uid for op in views[proc]] != first:
                problems.append(f"views differ ({proc!r} vs {procs[0]!r}) under IDENTICAL")
    elif mc is MutualConsistency.TOTAL_WRITE_ORDER:
        first = [op.uid for op in views[procs[0]].writes_only]
        for proc in procs[1:]:
            if [op.uid for op in views[proc].writes_only] != first:
                problems.append(f"write orders disagree at {proc!r}")
    elif mc is MutualConsistency.COHERENCE:
        for loc in history.locations:
            first = [op.uid for op in views[procs[0]].writes_to(loc)]
            for proc in procs[1:]:
                if [op.uid for op in views[proc].writes_to(loc)] != first:
                    problems.append(f"coherence order for {loc!r} disagrees at {proc!r}")
    elif mc is MutualConsistency.PARTITION:
        assert spec.partition_blocks is not None
        block = partition_block_map(history, spec.partition_blocks)
        for b in range(spec.partition_blocks):
            orders = {
                proc: [op.uid for op in views[proc].writes_only if block[op.location] == b]
                for proc in procs
            }
            for proc in procs[1:]:
                if orders[proc] != orders[procs[0]]:
                    problems.append(f"write order of block {b} disagrees at {proc!r}")
    elif mc is MutualConsistency.LABELED_TOTAL_ORDER:
        _check_labeled_agreement(history, views, problems)

    # -- ordering -------------------------------------------------------------------
    coherence = _coherence_from_views(history, views)
    try:
        ordering = spec.ordering.build(history, rf, coherence)
    except ValueError as exc:
        problems.append(f"cannot build ordering relation: {exc}")
        return problems
    for proc in procs:
        view = views[proc]
        for a, b in ordering.pairs():
            if spec.ordering_own_view_only and a.proc != proc:
                continue
            if spec.ordering_own_view_only and b.proc != proc:
                continue
            if a in view and b in view and not view.orders(a, b):
                problems.append(
                    f"view for {proc!r} violates {spec.ordering.name}: {a} -> {b}"
                )

    # -- release consistency extras ----------------------------------------------------
    if spec.bracketing:
        _check_bracketing(history, views, rf, problems)
    if spec.labeled_discipline is LabeledDiscipline.SC:
        _check_labeled_agreement(history, views, problems)
    elif spec.labeled_discipline is LabeledDiscipline.PC:
        sem = labeled_sem_relation(history, rf, coherence)
        for proc in procs:
            view = views[proc]
            for a, b in sem.pairs():
                if a in view and b in view and not view.orders(a, b):
                    problems.append(
                        f"view for {proc!r} violates labeled sem: {a} -> {b}"
                    )

    return problems


def _coherence_from_views(
    history: SystemHistory, views: Mapping[Any, View]
) -> dict[str, tuple[Operation, ...]]:
    """Per-location write order as the first view presents it."""
    first = views[history.procs[0]]
    return {loc: first.writes_to(loc) for loc in history.locations}


def _check_labeled_agreement(
    history: SystemHistory, views: Mapping[Any, View], problems: list[str]
) -> None:
    """Views must order common labeled operations identically, and the
    union of their labeled orders must admit a common extension."""
    labeled = history.labeled_ops
    union: Relation[Operation] = Relation(labeled)
    positions: dict[Any, dict[tuple, int]] = {}
    for proc, view in views.items():
        pos = {op.uid: i for i, op in enumerate(view.labeled_only)}
        positions[proc] = pos
    for i, a in enumerate(labeled):
        for b in labeled[i + 1:]:
            orders = set()
            for proc, pos in positions.items():
                if a.uid in pos and b.uid in pos:
                    orders.add(pos[a.uid] < pos[b.uid])
            if len(orders) > 1:
                problems.append(f"views disagree on labeled order of {a} vs {b}")
            elif orders == {True}:
                union.add(a, b)
            elif orders == {False}:
                union.add(b, a)
    if not union.is_acyclic():
        problems.append("labeled orders have no common extension (cyclic)")


def _check_bracketing(
    history: SystemHistory,
    views: Mapping[Any, View],
    rf,
    problems: list[str],
) -> None:
    for proc in history.procs:
        ops = history.ops_of(proc)
        for op in ops:
            if op.labeled:
                continue
            for earlier in ops[: op.index]:
                if earlier.is_acquire:
                    src = rf.get(earlier)
                    if src is None:
                        continue
                    for vproc, view in views.items():
                        if src in view and op in view and not view.orders(src, op):
                            problems.append(
                                f"bracketing violated in {vproc!r}'s view: "
                                f"{src} (acquired) not before {op}"
                            )
            for later in ops[op.index + 1:]:
                if later.is_release:
                    for vproc, view in views.items():
                        if op in view and later in view and not view.orders(op, later):
                            problems.append(
                                f"bracketing violated in {vproc!r}'s view: "
                                f"{op} not before release {later}"
                            )
