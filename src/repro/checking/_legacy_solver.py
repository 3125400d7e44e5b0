"""Frozen pre-kernel generic solver, kept as an equivalence/benchmark oracle.

This is the monolithic ``check_with_spec`` (and its private extension
search) exactly as it stood before the :mod:`repro.kernel` refactor.  It is
**not** part of the public API and receives no new features; it exists so

* ``tests/kernel/test_equivalence.py`` can assert the kernel's verdicts,
  witnesses and ``explored`` counts are identical to the pre-refactor
  solver on every catalog × model pair, and
* ``benchmarks/bench_kernel.py`` can measure the kernel's speedup against
  a live baseline rather than a number in a commit message.

Do not import this module from production code.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.kernel.results import CheckResult
from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.core.view import View
from repro.orders.coherence import (
    CoherenceOrder,
    coherence_relation,
    enumerate_coherence_orders,
    forced_coherence_pairs,
)
from repro.orders.program_order import in_program_order
from repro.orders.relation import Relation
from repro.orders.writes_before import (
    ReadsFrom,
    reads_from_candidates,
    reads_from_choices,
    unambiguous_reads_from,
)
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import LabeledDiscipline, MutualConsistency

__all__ = ["legacy_check_with_spec", "LegacySearchBudget"]

_MAX_OPS = 64


class LegacySearchBudget:
    """Verbatim copy of the pre-kernel ``SearchBudget``."""

    def __init__(
        self,
        max_reads_from: int = 4096,
        max_serializations: int = 200_000,
        max_labeled_orders: int = 100_000,
        use_reads_from_pruning: bool = True,
    ) -> None:
        self.max_reads_from = max_reads_from
        self.max_serializations = max_serializations
        self.max_labeled_orders = max_labeled_orders
        self.use_reads_from_pruning = use_reads_from_pruning


# -- frozen copy of the old repro.checking.extension search -------------------


def _prepare(
    ops: Sequence[Operation], constraints: Relation[Operation]
) -> tuple[list[int], list[str], list[int | None], list[int | None]] | None:
    n = len(ops)
    if n > _MAX_OPS:
        raise CheckerError(
            f"view of {n} operations exceeds the {_MAX_OPS}-operation solver limit"
        )
    index = {op.uid: i for i, op in enumerate(ops)}
    pred_mask = [0] * n
    for a, b in constraints.pairs():
        ia, ib = index.get(a.uid), index.get(b.uid)
        if ia is not None and ib is not None and ia != ib:
            pred_mask[ib] |= 1 << ia
    if not constraints.restrict(list(ops)).is_acyclic():
        return None
    locations = [op.location for op in ops]
    read_vals: list[int | None] = [
        op.value_read if op.is_read else None for op in ops
    ]
    write_vals: list[int | None] = [
        op.value_written if op.is_write else None for op in ops
    ]
    return pred_mask, locations, read_vals, write_vals


def _legacy_find_legal_extension(
    ops: Sequence[Operation],
    constraints: Relation[Operation],
    *,
    initial: int = INITIAL_VALUE,
    memoize: bool = True,
) -> list[Operation] | None:
    prep = _prepare(ops, constraints)
    if prep is None:
        return None
    pred_mask, locations, read_vals, write_vals = prep
    n = len(ops)
    loc_names = sorted(set(locations))
    loc_index = {loc: i for i, loc in enumerate(loc_names)}
    op_loc = [loc_index[loc] for loc in locations]

    full = (1 << n) - 1
    failed: set[tuple[int, tuple[int, ...]]] = set()
    order: list[int] = []

    def dfs(placed: int, values: tuple[int, ...]) -> bool:
        if placed == full:
            return True
        key = (placed, values)
        if memoize and key in failed:
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred_mask[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            order.append(i)
            if dfs(placed | bit, new_values):
                return True
            order.pop()
        if memoize:
            failed.add(key)
        return False

    if dfs(0, tuple([initial] * len(loc_names))):
        return [ops[i] for i in order]
    return None


def _legacy_iter_legal_extensions(
    ops: Sequence[Operation],
    constraints: Relation[Operation],
    *,
    initial: int = INITIAL_VALUE,
    limit: int | None = None,
):
    prep = _prepare(ops, constraints)
    if prep is None:
        return
    pred_mask, locations, read_vals, write_vals = prep
    n = len(ops)
    loc_names = sorted(set(locations))
    loc_index = {loc: i for i, loc in enumerate(loc_names)}
    op_loc = [loc_index[loc] for loc in locations]
    full = (1 << n) - 1
    order: list[int] = []
    yielded = 0

    def dfs(placed: int, values: tuple[int, ...]):
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if placed == full:
            yielded += 1
            yield [ops[i] for i in order]
            return
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred_mask[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            order.append(i)
            yield from dfs(placed | bit, new_values)
            order.pop()

    yield from dfs(0, tuple([initial] * len(loc_names)))


# -- frozen copy of the old repro.checking.solver -----------------------------


def legacy_check_with_spec(
    spec: MemoryModelSpec,
    history: SystemHistory,
    budget: LegacySearchBudget | None = None,
) -> CheckResult:
    """The pre-kernel ``check_with_spec``, byte-for-byte behaviour."""
    budget = budget or LegacySearchBudget()

    for op, cands in reads_from_candidates(history).items():
        if not cands:
            return CheckResult(
                spec.name,
                False,
                reason=f"{op} observes a value never written to {op.location!r}",
            )

    explored = 0
    for rf in _reads_from_assignments(history, budget):
        fixed_ordering = (
            None
            if spec.ordering.needs_coherence
            else spec.ordering.build(history, rf, None)
        )
        for coherence, mutual_edges in _mutual_candidates(spec, history, rf, budget):
            prepared = _base_constraints(
                spec, history, rf, coherence, mutual_edges, fixed_ordering
            )
            if prepared is None:
                continue
            base, own_ordering = prepared
            for extra in _labeled_constraints(spec, history, rf, coherence, budget):
                explored += 1
                if explored > budget.max_serializations:
                    raise CheckerError(
                        f"{spec.name}: search budget exceeded after "
                        f"{budget.max_serializations} candidate serializations"
                    )
                constraints = base.union(extra) if extra is not None else base
                views = _solve_views(spec, history, constraints, own_ordering)
                if views is not None:
                    return CheckResult(
                        spec.name, True, views=views, explored=explored
                    )
    return CheckResult(
        spec.name,
        False,
        reason="no choice of views satisfies the model's requirements",
        explored=explored,
    )


def _reads_from_assignments(
    history: SystemHistory, budget: LegacySearchBudget
) -> Iterator[ReadsFrom]:
    unambiguous = unambiguous_reads_from(history)
    if unambiguous is not None:
        yield unambiguous
        return
    count = 0
    for rf in reads_from_choices(history):
        count += 1
        if count > budget.max_reads_from:
            raise CheckerError(
                f"more than {budget.max_reads_from} reads-from attributions; "
                "use distinct write values"
            )
        yield rf


def _mutual_candidates(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    budget: LegacySearchBudget,
) -> Iterator[tuple[CoherenceOrder | None, Relation[Operation] | None]]:
    mc = spec.mutual_consistency
    unambiguous = (
        budget.use_reads_from_pruning
        and unambiguous_reads_from(history) is not None
    )
    if mc in (MutualConsistency.NONE, MutualConsistency.IDENTICAL):
        yield None, None
        return

    if mc is MutualConsistency.TOTAL_WRITE_ORDER:
        writes = history.writes
        forced: Relation[Operation] = Relation(writes)
        for proc in history.procs:
            chain = [op for op in history.ops_of(proc) if op.is_write]
            for a, b in zip(chain, chain[1:]):
                forced.add(a, b)
        if unambiguous:
            for loc in history.locations:
                for a, b in forced_coherence_pairs(history, loc, rf).pairs():
                    forced.add(a, b)
        if not forced.is_acyclic():
            return
        for order in forced.all_topological_sorts():
            rel: Relation[Operation] = Relation(history.operations)
            for i, a in enumerate(order):
                for b in order[i + 1:]:
                    rel.add(a, b)
            coherence = _split_by_location(order)
            yield coherence, rel
        return

    if mc is MutualConsistency.COHERENCE:
        for coherence in enumerate_coherence_orders(
            history, rf if unambiguous else None
        ):
            yield coherence, coherence_relation(history, coherence)
        return

    if mc is MutualConsistency.PARTITION:
        from itertools import product

        from repro.spec.parameters import partition_block_map

        assert spec.partition_blocks is not None
        block = partition_block_map(history, spec.partition_blocks)
        by_block: list[list[Operation]] = [
            [] for _ in range(spec.partition_blocks)
        ]
        for op in history.writes:
            by_block[block[op.location]].append(op)
        per_block: list[list[tuple[Operation, ...]]] = []
        for b in range(spec.partition_blocks):
            forced_b: Relation[Operation] = Relation(by_block[b])
            for proc in history.procs:
                chain = [
                    op
                    for op in history.ops_of(proc)
                    if op.is_write and block[op.location] == b
                ]
                for x, y in zip(chain, chain[1:]):
                    forced_b.add(x, y)
            if unambiguous:
                for loc in history.locations:
                    if block[loc] != b:
                        continue
                    for x, y in forced_coherence_pairs(history, loc, rf).pairs():
                        forced_b.add(x, y)
            if not forced_b.is_acyclic():
                return
            per_block.append(
                [tuple(order) for order in forced_b.all_topological_sorts()]
            )
        for combo in product(*per_block):
            rel_p: Relation[Operation] = Relation(history.operations)
            coherence_p: dict[str, tuple[Operation, ...]] = {}
            for order in combo:
                for i, a in enumerate(order):
                    for b_op in order[i + 1:]:
                        rel_p.add(a, b_op)
                coherence_p.update(_split_by_location(list(order)))
            yield coherence_p, rel_p
        return

    if mc is MutualConsistency.LABELED_TOTAL_ORDER:
        labeled = history.labeled_ops
        forced_l: Relation[Operation] = Relation(labeled)
        for proc in history.procs:
            chain = [op for op in history.ops_of(proc) if op.labeled]
            for a, b in zip(chain, chain[1:]):
                forced_l.add(a, b)
        for order in forced_l.all_topological_sorts():
            rel: Relation[Operation] = Relation(history.operations)
            for i, a in enumerate(order):
                for b in order[i + 1:]:
                    rel.add(a, b)
            yield None, rel
        return

    raise CheckerError(f"unhandled mutual consistency {mc}")  # pragma: no cover


def _split_by_location(order: list[Operation]) -> dict[str, tuple[Operation, ...]]:
    chains: dict[str, list[Operation]] = {}
    for op in order:
        chains.setdefault(op.location, []).append(op)
    return {loc: tuple(ops) for loc, ops in chains.items()}


def _base_constraints(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    coherence: CoherenceOrder | None,
    mutual_edges: Relation[Operation] | None,
    fixed_ordering: Relation[Operation] | None = None,
) -> tuple[Relation[Operation], Relation[Operation] | None] | None:
    if fixed_ordering is not None:
        ordering = fixed_ordering
    else:
        ordering = spec.ordering.build(history, rf, coherence)
    parts: list[Relation[Operation]] = []
    own_ordering: Relation[Operation] | None = None
    if spec.ordering_own_view_only:
        own_ordering = ordering
    else:
        parts.append(ordering)
    if mutual_edges is not None:
        parts.append(mutual_edges)
    if spec.bracketing:
        parts.append(_bracketing_edges(history, rf))
    if not parts:
        parts.append(Relation(history.operations))
    combined = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    if not combined.is_acyclic():
        return None
    return combined.transitive_closure(), own_ordering


def _bracketing_edges(history: SystemHistory, rf: ReadsFrom) -> Relation[Operation]:
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for op in ops:
            if op.labeled:
                continue
            for earlier in ops[: op.index]:
                if earlier.is_acquire:
                    src = rf.get(earlier)
                    if src is not None:
                        rel.add(src, op)
            for later in ops[op.index + 1:]:
                if later.is_release:
                    rel.add(op, later)
    return rel


def _labeled_constraints(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    coherence: CoherenceOrder | None,
    budget: LegacySearchBudget,
) -> Iterator[Relation[Operation] | None]:
    if spec.labeled_discipline is None:
        yield None
        return

    labeled = history.labeled_ops
    if not labeled:
        yield None
        return

    if spec.labeled_discipline is LabeledDiscipline.SC:
        po_labeled: Relation[Operation] = Relation(labeled)
        for a in labeled:
            for b in labeled:
                if in_program_order(a, b):
                    po_labeled.add(a, b)
        count = 0
        for order in _legacy_iter_legal_extensions(labeled, po_labeled):
            count += 1
            if count > budget.max_labeled_orders:
                raise CheckerError(
                    "too many labeled serializations; raise the budget"
                )
            rel: Relation[Operation] = Relation(history.operations)
            for i, a in enumerate(order):
                for b in order[i + 1:]:
                    rel.add(a, b)
            yield rel
        return

    from repro.orders.semi_causal import sem_relation

    sub, back = history.project(lambda op: op.labeled)
    fwd = {back[new.uid].uid: new for new in sub.operations}
    rf_sub: dict[Operation, Operation | None] = {}
    for new_op in sub.operations:
        if new_op.is_read:
            src = rf.get(back[new_op.uid])
            if src is not None and src.uid in fwd and fwd[src.uid].is_write:
                rf_sub[new_op] = fwd[src.uid]
            else:
                rf_sub[new_op] = None
    coherence_sub: dict[str, tuple[Operation, ...]] = {}
    if coherence is not None:
        for loc, chain in coherence.items():
            projected = tuple(fwd[w.uid] for w in chain if w.uid in fwd)
            if projected:
                coherence_sub[loc] = projected
    sem_sub = sem_relation(sub, rf_sub, coherence_sub)
    rel = Relation(history.operations)
    for a, b in sem_sub.pairs():
        rel.add(back[a.uid], back[b.uid])
    if not rel.is_acyclic():
        return
    yield rel.transitive_closure()


def _solve_views(
    spec: MemoryModelSpec,
    history: SystemHistory,
    constraints: Relation[Operation],
    own_ordering: Relation[Operation] | None = None,
) -> dict[Any, View] | None:
    if spec.mutual_consistency is MutualConsistency.IDENTICAL:
        order = _legacy_find_legal_extension(history.operations, constraints)
        if order is None:
            return None
        return {
            proc: View(proc, order, history, validate=False)
            for proc in history.procs
        }
    views: dict[Any, View] = {}
    for proc in history.procs:
        contents = spec.operation_set.view_contents(history, proc)
        per_view = constraints
        if own_ordering is not None:
            own = {op.uid for op in history.ops_of(proc)}
            per_view = constraints.union(
                own_ordering.restrict(lambda op: op.uid in own)
            )
            if not per_view.is_acyclic():
                return None
        order = _legacy_find_legal_extension(contents, per_view)
        if order is None:
            return None
        views[proc] = View(proc, order, history, validate=False)
    return views
