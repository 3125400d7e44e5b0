"""Layer 2 of the constraint kernel: mutual-consistency witness enumeration.

Parameter 2 of the paper asks what the processor views must *agree on*:
nothing, one total order over all writes, per-location coherence orders, or
one total order over the labeled operations.  This layer enumerates the
candidate agreed objects — each one a set of totally ordered chains whose
pairs become cross-view edges — and, for release consistency, the
serializations of the labeled subsequence its discipline admits.

Candidates are enumerated on integer universe indices: the edges every
agreed order must contain become predecessor masks
(:func:`forced_order_masks`), and one bitmask linear-extension enumerator
(:func:`iter_linear_extensions`) walks them.  The TSO fast path
(:mod:`repro.checking.tso`) shares both, so the pruning soundness
argument lives here exactly once; :func:`forced_write_order` is the
definitional :class:`Relation` form the axiomatic TSO reference starts
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.kernel.constraints import (
    HistoryPlane,
    close_masks,
    history_plane,
    masks_acyclic,
    po_pair_masks,
    ppo_related,
)
from repro.orders.coherence import CoherenceOrder, forced_coherence_pairs
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import LabeledDiscipline, MutualConsistency

__all__ = [
    "MutualCandidate",
    "LabeledExtra",
    "coherence_operations",
    "forced_write_order",
    "forced_order_masks",
    "write_order_masks",
    "iter_linear_extensions",
    "iter_mutual_candidates",
    "iter_labeled_extras",
]


class MutualCandidate(NamedTuple):
    """One candidate agreed object: ordered chains plus the coherence view.

    Both fields hold universe indices (positions in
    ``history.operations``), not operations.  ``chains`` is a tuple of
    totally ordered index tuples; every view must order the operations of
    each chain consistently with it (the induced cross-view edges are all
    within-chain pairs).  ``coherence`` is the per-location write order
    the candidate induces, for models whose ordering rule or legality
    propagation needs it; :func:`coherence_operations` turns it back into
    a :data:`~repro.orders.coherence.CoherenceOrder` where a consumer
    needs operations (witnesses, the labeled-PC discipline).
    """

    coherence: dict[str, tuple[int, ...]] | None
    chains: tuple[tuple[int, ...], ...]


def coherence_operations(
    cand: MutualCandidate, ops: Sequence[Operation]
) -> CoherenceOrder | None:
    """``cand``'s coherence order over the operations ``ops`` indexes."""
    if cand.coherence is None:
        return None
    return {
        loc: tuple(ops[i] for i in chain) for loc, chain in cand.coherence.items()
    }


@dataclass(frozen=True)
class LabeledExtra:
    """Extra per-view edges enforcing a labeled discipline candidate.

    Either ``chains`` (a serialization of universe indices the labeled
    subsequences must embed, the ``RC_sc`` case) or ``masks`` (closed
    universe predecessor masks, the ``RC_pc`` semi-causality case).
    """

    chains: tuple[tuple[int, ...], ...] = ()
    masks: list[int] | None = None


def forced_write_order(
    history: SystemHistory, reads_from: ReadsFrom | None
) -> Relation[Operation]:
    """Edges every admissible total write order must contain.

    Program order between each processor's own writes always; plus, when a
    (necessarily unambiguous) ``reads_from`` is supplied, the per-location
    coherence edges it forces.  The definitional form of the kernel's
    total-write-order pruning (:func:`forced_order_masks` is its integer
    twin) and the starting point of the axiomatic TSO reference checker.
    """
    forced: Relation[Operation] = Relation(history.writes)
    for proc in history.procs:
        chain = [op for op in history.ops_of(proc) if op.is_write]
        for a, b in zip(chain, chain[1:]):
            forced.add(a, b)
    if reads_from is not None:
        for loc in history.locations:
            for a, b in forced_coherence_pairs(history, loc, reads_from).pairs():
                forced.add(a, b)
    return forced


def forced_order_masks(
    plane: HistoryPlane,
    group: Sequence[int | None],
    reads_from: ReadsFrom | None,
) -> list[int]:
    """Predecessor masks of the edges every agreed order must contain.

    ``group[i]`` names the agreed order operation ``i`` takes part in
    (``None``: none): one group for a total write order, one per location
    for coherence, one per block for a partition, the labeled operations
    for hybrid consistency.  Each processor's own operations of a group
    are chained in program order; with ``reads_from`` (only ever the
    unique attribution) a read's source also precedes every later write
    of the reading processor to the read's location — the edges
    :func:`~repro.orders.coherence.forced_coherence_pairs` derives, which
    always fall inside one group.
    """
    n = plane.n
    masks = [0] * n
    for start, end in plane.ranges.values():
        last: dict[int, int] = {}
        for i in range(start, end):
            g = group[i]
            if g is None:
                continue
            j = last.get(g)
            if j is not None:
                masks[i] |= 1 << j
            last[g] = i
    if reads_from is not None:
        index = plane.index
        uni_loc = plane.uni_loc
        uni_write = plane.uni_write
        for r, src in reads_from.items():
            if src is None:
                continue
            ir = index[r]
            isrc = index[src]
            loc = uni_loc[ir]
            for later in range(ir + 1, plane.ranges[r.proc][1]):
                if (
                    uni_write[later] is not None
                    and uni_loc[later] == loc
                    and later != isrc
                ):
                    masks[later] |= 1 << isrc
    return masks


def iter_linear_extensions(
    members: Sequence[int], pred: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Every linear extension of ``pred`` over ``members``, lexicographically.

    ``members`` lists universe indices in ascending order and ``pred``
    holds predecessor masks whose bits all lie among them.  The state is
    the bitmask of placed members; at each step the ready members are
    tried in ascending index, so the extensions come out in exactly the
    order :meth:`Relation.all_topological_sorts` yields them over the
    same universe.  A cyclic ``pred`` has no extension and yields nothing.
    """
    k = len(members)
    if k == 0:
        yield ()
        return
    order: list[int] = []
    placed = 0
    # Per depth: the position in ``members`` to try next.
    stack = [0]
    while stack:
        p = stack[-1]
        while p < k:
            i = members[p]
            p += 1
            if not (placed >> i) & 1 and not pred[i] & ~placed:
                break
        else:
            stack.pop()
            if order:
                placed ^= 1 << order.pop()
            continue
        stack[-1] = p
        order.append(i)
        if len(order) == k:
            yield tuple(order)
            order.pop()
        else:
            placed |= 1 << i
            stack.append(0)


def _by_location(
    order: Sequence[int], uni_loc: Sequence[int], names: Sequence[str]
) -> dict[str, tuple[int, ...]]:
    chains: dict[str, list[int]] = {}
    for i in order:
        chains.setdefault(names[uni_loc[i]], []).append(i)
    return {loc: tuple(idx) for loc, idx in chains.items()}


def _cached(
    plane: HistoryPlane,
    key: Any,
    reads_from: ReadsFrom | None,
    compute: Callable[[], Any],
) -> Any:
    """``compute()``, cached on the plane under ``key`` when history-only.

    Forms derived from no attribution or from the plane's unique one are
    functions of the history alone, so they are cached; any other
    attribution recomputes.
    """
    if reads_from is not None and reads_from is not plane.unique_rf:
        return compute()
    if key not in plane.masks:
        plane.masks[key] = compute()
    return plane.masks[key]


def write_order_masks(plane: HistoryPlane, reads_from: ReadsFrom | None) -> list[int]:
    """The forced total write order's masks (TSO's candidates' pruning seed).

    Program order between each processor's writes, plus the coherence
    edges ``reads_from`` forces when given — :func:`forced_write_order`
    on universe indices.
    """
    return _cached(
        plane,
        ("forced", "writes", reads_from is not None),
        reads_from,
        lambda: forced_order_masks(
            plane, [None if w is None else 0 for w in plane.uni_write], reads_from
        ),
    )


def _grouped_orders(
    plane: HistoryPlane,
    reads_from: ReadsFrom | None,
    n_groups: int,
    group_of: Callable[[int], int],
) -> list[list[tuple[int, ...]]] | None:
    """Per group of writes, every linear extension of its forced order.

    ``group_of`` maps a write's location id to its group.  ``None`` when
    some group's forced order is cyclic.
    """
    group = [
        None if w is None else group_of(loc)
        for loc, w in zip(plane.uni_loc, plane.uni_write)
    ]
    masks = forced_order_masks(plane, group, reads_from)
    if not masks_acyclic(masks, plane.n):
        return None
    members: list[list[int]] = [[] for _ in range(n_groups)]
    for i, g in enumerate(group):
        if g is not None:
            members[g].append(i)
    return [list(iter_linear_extensions(m, masks)) for m in members]


def iter_mutual_candidates(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    *,
    use_reads_from_pruning: bool = True,
    unambiguous: bool | None = None,
) -> Iterator[MutualCandidate]:
    """Enumerate the candidate agreed objects for ``spec``'s parameter 2.

    Reads-from based pruning is applied only when the history's attribution
    is the unique one (distinct write values *and* no initial-value
    ambiguity); with an enumerated ``rf`` the forced edges would be
    unsound.  Callers that already know whether the attribution is unique
    (the driver) pass ``unambiguous`` to skip re-deriving it.

    Candidates are enumerated on universe indices, in the order the
    definitional :class:`Relation` enumeration yields them (ascending
    index at every choice), so witnesses and ``explored`` counts do not
    depend on the representation.
    """
    mc = spec.mutual_consistency
    if mc in (MutualConsistency.NONE, MutualConsistency.IDENTICAL):
        yield MutualCandidate(None, ())
        return
    plane = history_plane(history)
    if unambiguous is None:
        unambiguous = plane.unique_rf is not None
    pruning = rf if use_reads_from_pruning and unambiguous else None
    uni_loc = plane.uni_loc
    names = plane.locations

    if mc is MutualConsistency.TOTAL_WRITE_ORDER:
        masks = write_order_masks(plane, pruning)
        if not masks_acyclic(masks, plane.n):
            return
        for order in iter_linear_extensions(plane.write_idx, masks):
            yield MutualCandidate(_by_location(order, uni_loc, names), (order,))
        return

    if mc is MutualConsistency.COHERENCE:
        per = _cached(
            plane,
            ("orders", "locations", pruning is not None),
            pruning,
            lambda: _grouped_orders(plane, pruning, len(names), lambda loc: loc),
        )
        if per is None:
            return
        # Locations nobody writes have no coherence chain.
        written = [(names[g], orders) for g, orders in enumerate(per) if orders[0]]
        for combo in product(*(orders for _, orders in written)):
            yield MutualCandidate(
                {loc: chain for (loc, _), chain in zip(written, combo)}, combo
            )
        return

    if mc is MutualConsistency.PARTITION:
        # Partition Consistency: one agreed total order of the writes
        # *within each block*, independently per block — the candidate
        # space is the product of the per-block linear extensions of the
        # forced block orders.  Location ids follow sorted name order, so
        # ``id % blocks`` is :func:`partition_block_map`'s round robin.
        blocks = spec.partition_blocks
        assert blocks is not None  # spec validation
        per = _cached(
            plane,
            ("orders", blocks, pruning is not None),
            pruning,
            lambda: _grouped_orders(plane, pruning, blocks, lambda loc: loc % blocks),
        )
        if per is None:
            return
        for combo in product(*per):
            coherence: dict[str, tuple[int, ...]] = {}
            for order in combo:
                coherence.update(_by_location(order, uni_loc, names))
            yield MutualCandidate(
                coherence, tuple(order for order in combo if order)
            )
        return

    if mc is MutualConsistency.LABELED_TOTAL_ORDER:
        # Hybrid consistency: one agreed total order over the labeled
        # (strong) operations, extending each processor's program order
        # on them.
        group = [0 if op.labeled else None for op in plane.ops]
        labeled = [i for i, g in enumerate(group) if g is not None]
        masks = forced_order_masks(plane, group, None)
        for order in iter_linear_extensions(labeled, masks):
            yield MutualCandidate(None, (order,))
        return

    raise CheckerError(f"unhandled mutual consistency {mc}")  # pragma: no cover


def iter_labeled_extras(
    spec: MemoryModelSpec,
    history: SystemHistory,
    rf: ReadsFrom,
    cand: MutualCandidate,
    max_labeled_orders: int,
) -> Iterator[LabeledExtra | None]:
    """Enumerate the labeled-discipline constraints, if the model has one.

    Yields ``None`` once for models without a discipline (or with no
    labeled operations); otherwise one :class:`LabeledExtra` per candidate
    serialization (``RC_sc``) or the single semi-causality relation of the
    labeled sub-history (``RC_pc``).  Both are computed on universe
    indices; the labeled sub-history is the labeled indices, with
    program order and ``->ppo`` taken among them alone.
    """
    if spec.labeled_discipline is None:
        yield None
        return

    plane = history_plane(history)
    ops = plane.ops
    labeled = [i for i, op in enumerate(ops) if op.labeled]
    if not labeled:
        yield None
        return

    if spec.labeled_discipline is LabeledDiscipline.SC:
        # Enumerate legal SC serializations of the labeled operations and
        # force every view's labeled subsequence to agree with one.
        from repro.kernel.search import iter_legal_orders  # layer-top import

        pos = {g: k for k, g in enumerate(labeled)}
        pred = [0] * len(labeled)
        for start, end in plane.ranges.values():
            seen = 0
            for g in range(start, end):
                if g in pos:
                    pred[pos[g]] = seen
                    seen |= 1 << pos[g]
        count = 0
        for order in iter_legal_orders([ops[g] for g in labeled], pred):
            count += 1
            if count > max_labeled_orders:
                raise CheckerError(
                    "too many labeled serializations; raise the budget"
                )
            yield LabeledExtra(chains=(tuple(labeled[k] for k in order),))
        return

    # Labeled-PC: add the semi-causality ``(->ppo ∪ ->rwb ∪ ->rrb)+`` of
    # the labeled sub-history.  The attribution is inherited from the
    # ambient reads-from choice so the two levels of the model never
    # disagree about who a labeled read saw; a read whose source is not
    # labeled reads the sub-history's initial value.
    in_sub = writes = 0
    for g in labeled:
        in_sub |= 1 << g
        if plane.uni_write[g] is not None:
            writes |= 1 << g
    related = ppo_related(plane)
    ppo = close_masks(
        po_pair_masks(
            plane, lambda i, j: (in_sub >> i) & (in_sub >> j) & 1 and related(i, j)
        )
    )
    later = [0] * plane.n  # per labeled write: the labeled writes ppo-after it
    for g in labeled:
        if not (writes >> g) & 1:
            continue
        m = ppo[g] & writes
        while m:
            low = m & -m
            m ^= low
            later[low.bit_length() - 1] |= 1 << g
    chains = {} if cand.coherence is None else cand.coherence
    rows = list(ppo)
    index = plane.index
    for g in labeled:
        if plane.uni_read[g] is None:
            continue
        src = rf.get(ops[g])
        isrc = -1 if src is None else index[src]
        if isrc >= 0 and not (in_sub >> isrc) & 1:
            isrc = -1
        if isrc >= 0:
            rows[g] |= ppo[isrc] & writes & ~(1 << isrc)  # ->rwb
        # ->rrb: before every write ppo-after one coherence-newer than src.
        chain = [w for w in chains.get(ops[g].location, ()) if (in_sub >> w) & 1]
        if isrc < 0:
            newer = chain
        else:
            newer = chain[chain.index(isrc) + 1:] if isrc in chain else []
        for w in newer:
            targets = later[w]
            while targets:
                low = targets & -targets
                targets ^= low
                rows[low.bit_length() - 1] |= 1 << g
    closed = close_masks(rows)
    # Any cycle, an RMW ->rwb-before itself included, leaves a diagonal
    # bit; the sub-history's semi-causality then admits no view.
    if any((closed[i] >> i) & 1 for i in range(plane.n)):
        return
    yield LabeledExtra(masks=closed)
