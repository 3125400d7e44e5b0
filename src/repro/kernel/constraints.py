"""Layer 3 of the constraint kernel: spec compilation onto the mask plane.

A :class:`~repro.spec.model_spec.MemoryModelSpec` is declarative; this layer
*compiles* it, for one history, into the integer-bitmask data plane the
search layer runs on:

* the operation universe (``history.operations``) with per-operation
  location ids and read/write payloads,
* each processor's view membership (parameter 1) as index lists in the
  view-contents order the witnesses are built in,
* the per-view ordering constraints (parameter 3) plus release
  consistency's bracketing edges as predecessor bitmasks, built on the
  payload arrays by each ordering rule's mask function
  (:func:`rule_compiler`) — for semi-causality, a coherence-independent
  part plus a per-candidate delta (see
  :meth:`CompiledConstraints.ordering_masks`), and
* the reads-from propagation edges that make the search incremental
  (see :func:`CompiledConstraints.candidate_propagation`).

Compilation is split into what depends on the history and spec alone
(:class:`CompiledConstraints`, cacheable across checks — an active
:func:`~repro.orders.memo.relation_memo` stores these keyed by
``(history, spec.cache_key)``) and what depends on the reads-from
attribution (:class:`AttributionPlane`, one per enumerated attribution and
cached for the unambiguous one).

Mask conventions: ``masks[j]`` bit ``i`` set means *operation i must precede
operation j*.  :func:`close_masks` is a bitset transitive closure;
:func:`masks_acyclic` a Kahn peeling test.  Both live with the one-pass
candidate gate in :mod:`repro.kernel.backend` and replace the
``Relation``-object churn the pre-kernel solver paid per candidate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.core.errors import KernelError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.kernel.backend import active_backend, close_masks, masks_acyclic
from repro.orders.memo import active_memo
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom, reads_from_candidates
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    CAUSAL,
    PO,
    PO_LOC,
    PO_SYNC,
    PPO,
    SEMI_CAUSAL,
    SESSION_COMPONENTS,
    MutualConsistency,
    OperationSet,
    OrderingRule,
    partition_rule,
    session_rule,
)

__all__ = [
    "CompiledConstraints",
    "AttributionPlane",
    "HistoryPlane",
    "RuleCompiler",
    "SemiCausalRows",
    "ViewPlane",
    "compile_constraints",
    "configure_plane_cache",
    "history_plane",
    "install_plane",
    "plane_cache_stats",
    "extend_plane",
    "bracketing_edges",
    "chain_masks",
    "close_masks",
    "insert_bit",
    "masks_acyclic",
    "restrict_masks",
    "rule_compiler",
]


# -- mask primitives ----------------------------------------------------------


def chain_masks(masks: list[int], chain: Iterable[int]) -> None:
    """Add the total order of ``chain`` (universe indices) into ``masks``.

    Each chain member's predecessor mask gains every earlier member, i.e.
    the full set of within-chain pairs — already transitively closed, so a
    chain never needs re-closing.
    """
    seen = 0
    for i in chain:
        masks[i] |= seen
        seen |= 1 << i


def restrict_masks(masks: Sequence[int], members: Sequence[int]) -> list[int]:
    """Re-index universe masks onto the sub-universe ``members``.

    ``members`` lists universe indices in view-contents order; the result
    is the predecessor masks of the restriction, in local bit positions.
    The view search never builds it: it marks non-members as placed
    instead (see :func:`repro.kernel.search._dfs_find`).  This is the
    reference that form is tested against.
    """
    out = []
    for gj in members:
        m = masks[gj]
        local = 0
        for k, gk in enumerate(members):
            if (m >> gk) & 1:
                local |= 1 << k
        out.append(local)
    return out


def insert_bit(mask: int, pos: int) -> int:
    """Renumber a mask for a universe that gained an index at ``pos``.

    Bits at positions ``>= pos`` shift up by one; bit ``pos`` of the
    result is clear (the new operation is related to nothing until its
    own row says otherwise).
    """
    low = mask & ((1 << pos) - 1)
    return ((mask >> pos) << (pos + 1)) | low


# -- release consistency's bracketing (moved verbatim from the old solver) ----


def bracketing_edges(history: SystemHistory, rf: ReadsFrom) -> Relation[Operation]:
    """Release consistency's two bracketing conditions (Section 3.4).

    * An ordinary operation following an acquire is ordered after the write
      the acquire read, in every view containing both.
    * An ordinary operation preceding a release is ordered before that
      release, in every view containing both.
    """
    rel: Relation[Operation] = Relation(history.operations)
    for proc in history.procs:
        ops = history.ops_of(proc)
        for op in ops:
            if op.labeled:
                continue
            # Acquires earlier in program order bracket this ordinary op.
            for earlier in ops[: op.index]:
                if earlier.is_acquire:
                    src = rf.get(earlier)
                    if src is not None:
                        rel.add(src, op)
            # Releases later in program order bracket it from above.
            for later in ops[op.index + 1:]:
                if later.is_release:
                    rel.add(op, later)
    return rel


def _bracketing_masks(plane: HistoryPlane, src: Mapping[int, int]) -> list[int]:
    """:func:`bracketing_edges` as predecessor masks, on universe indices."""
    ops = plane.ops
    rows = [0] * plane.n
    for start, end in plane.ranges.values():
        for j in range(start, end):
            if ops[j].labeled:
                continue
            for i in range(start, j):
                if ops[i].is_acquire:
                    isrc = src.get(i, -1)
                    if isrc >= 0 and isrc != j:
                        rows[j] |= 1 << isrc
            for i in range(j + 1, end):
                if ops[i].is_release:
                    rows[i] |= 1 << j
    return rows


# -- compiled planes ----------------------------------------------------------


class ViewPlane:
    """One processor's view: its members in try order, and as a bitmask.

    The view search runs on universe indices and the universe payload
    arrays of the owning :class:`HistoryPlane`; a view only names which
    operations it searches, and in what order it tries them.
    """

    __slots__ = ("proc", "members", "bits")

    def __init__(self, proc: Any, members: Sequence[int]) -> None:
        self.proc = proc
        self.members: tuple[int, ...] = tuple(members)
        #: The members as a universe bitmask.
        self.bits = 0
        for g in self.members:
            self.bits |= 1 << g


_UNSET = object()


class HistoryPlane:
    """The spec-independent compiled data of one history.

    A sweep checks the same history against many specs (the registry has a
    dozen; the lattice enumerates hundreds), and everything here is a
    function of the history alone, so the kernel shares one instance across
    those checks through a bounded identity-keyed LRU
    (:func:`history_plane`).  Entries in :attr:`masks` are keyed by an
    ordering rule (or a derived tag) and are populated only under the
    *unique* reads-from attribution, where the attribution-dependent
    relations collapse to functions of the history; layer 2's forced
    write orders and their extension lists live there too, under
    ``("forced", ...)`` and ``("orders", ...)`` tags.
    """

    __slots__ = (
        "history",
        "ops",
        "index",
        "n",
        "locations",
        "uni_loc",
        "uni_read",
        "uni_write",
        "writers_by_loc",
        "write_idx",
        "ranges",
        "_views",
        "_universe_plane",
        "_candidates",
        "_unique_rf",
        "masks",
    )

    def __init__(self, history: SystemHistory) -> None:
        self.history = history
        self.ops: tuple[Operation, ...] = history.operations
        # Keyed by operation *value*, not identity: a canonical-key relation
        # cache serves one table to value-equal histories (two parses of the
        # same litmus text), so a compiled plane must accept the equal twin's
        # operation objects.  Values are unique within a history (proc,
        # index), so the map is bijective either way.
        self.index: dict[Operation, int] = {op: i for i, op in enumerate(self.ops)}
        self.n = len(self.ops)
        # One classification pass over the universe; every view plane is a
        # slice of these arrays.  Location ids follow sorted location-name
        # order (``history.locations``), matching the per-view inventories
        # the pre-kernel solver derived independently per view.
        #: Location names by universe location id (sorted).
        self.locations: tuple[str, ...] = history.locations
        loc_id = {loc: i for i, loc in enumerate(self.locations)}
        uni_loc: list[int] = []
        uni_read: list[int | None] = []
        uni_write: list[int | None] = []
        writers: dict[str, list[int]] = {}
        for i, op in enumerate(self.ops):
            uni_loc.append(loc_id[op.location])
            uni_read.append(op.value_read if op.is_read else None)
            if op.is_write:
                uni_write.append(op.value_written)
                writers.setdefault(op.location, []).append(i)
            else:
                uni_write.append(None)
        self.uni_loc = uni_loc
        self.uni_read = uni_read
        self.uni_write = uni_write
        self.writers_by_loc: dict[str, tuple[int, ...]] = {
            loc: tuple(idxs) for loc, idxs in writers.items()
        }
        self.write_idx: list[int] = [
            i for i, v in enumerate(uni_write) if v is not None
        ]
        # ``history.operations`` groups operations by processor, so each
        # processor's own operations are one contiguous index range and the
        # remote part of its view is the universe order outside that range
        # (exactly ``OperationSet.view_contents``'s order).
        ranges: dict[Any, tuple[int, int]] = {}
        start = 0
        for proc in history.procs:
            end = start + len(history[proc])
            ranges[proc] = (start, end)
            start = end
        self.ranges = ranges
        self._views: dict[OperationSet, dict[Any, ViewPlane]] = {}
        self._universe_plane: ViewPlane | None = None
        self._candidates: Any = None
        self._unique_rf: Any = _UNSET
        self.masks: dict[Any, Any] = {}

    def views(self, operation_set: OperationSet) -> dict[Any, ViewPlane]:
        """Per-processor view planes for one choice of parameter 1."""
        cached = self._views.get(operation_set)
        if cached is None:
            all_remote = operation_set is OperationSet.ALL_REMOTE
            cached = {}
            for proc, (start, end) in self.ranges.items():
                if all_remote:
                    remote = [i for i in range(self.n) if i < start or i >= end]
                else:
                    remote = [i for i in self.write_idx if i < start or i >= end]
                cached[proc] = ViewPlane(proc, list(range(start, end)) + remote)
            self._views[operation_set] = cached
        return cached

    @property
    def universe_plane(self) -> ViewPlane:
        """The whole universe as one view, for IDENTICAL models."""
        if self._universe_plane is None:
            self._universe_plane = ViewPlane(None, range(self.n))
        return self._universe_plane

    @property
    def candidates(self):
        """The per-read candidate-source table (layer 1's input)."""
        if self._candidates is None:
            self._candidates = reads_from_candidates(self.history)
        return self._candidates

    @property
    def unique_rf(self) -> ReadsFrom | None:
        """The unique attribution when every read has at most one candidate.

        ``None`` when the history is ambiguous and layer 1 must enumerate.
        The dict matches :func:`repro.kernel.rf.iter_attributions`'s
        unambiguous yield exactly.
        """
        if self._unique_rf is _UNSET:
            cands = self.candidates
            if all(len(c) <= 1 for c in cands.values()):
                self._unique_rf = {op: c[0] for op, c in cands.items() if c}
            else:
                self._unique_rf = None
        return self._unique_rf


#: Bounded keyed LRU of compiled planes: ``id(history) -> (history, plane)``.
#: Entries hold their history strongly, which both keeps the id stable for
#: the entry's lifetime and guarantees a live id can never be recycled by
#: a different history while it is cached (the identity check is a
#: belt-and-braces second line).  Replaces the original single slot, under
#: which interleaved :class:`~repro.engine.session.EngineSession`\ s evicted
#: each other's grown planes on every append.
_PLANE_CACHE: "OrderedDict[int, tuple[SystemHistory, HistoryPlane]]" = OrderedDict()
_PLANE_CAPACITY = 64

#: Plane-cache observability counters (read via :func:`plane_cache_stats`).
_PLANE_HITS = 0
_PLANE_MISSES = 0
_PLANE_EVICTIONS = 0

#: Guards the cache and its counters: the serve layer runs checks on a
#: thread-pool executor, so lookups, LRU reordering, inserts, and
#: evictions interleave across threads.  Without the lock, an eviction
#: between another thread's ``get`` hit and its ``move_to_end`` raises
#: ``KeyError``, and the counters drop increments.  Plane *compilation*
#: stays outside the lock — concurrent misses may compile twice, which
#: is wasteful but harmless (last insert wins).
_PLANE_LOCK = threading.Lock()


def plane_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters and current size of the plane cache.

    Cumulative for the process (the serve layer folds them into
    ``/stats``); reset with :func:`configure_plane_cache`.
    """
    with _PLANE_LOCK:
        return {
            "hits": _PLANE_HITS,
            "misses": _PLANE_MISSES,
            "evictions": _PLANE_EVICTIONS,
            "size": len(_PLANE_CACHE),
            "capacity": _PLANE_CAPACITY,
        }


def configure_plane_cache(capacity: int | None = None) -> None:
    """Resize the plane cache and reset its contents and counters.

    ``capacity=None`` keeps the current bound.  Mainly for tests and for
    long-lived daemons that want a different residency/memory trade-off;
    capacity must cover the histories interleaved checks touch between
    repeats for the LRU to help (the default 64 covers the serve layer's
    default session bound).
    """
    global _PLANE_CAPACITY, _PLANE_HITS, _PLANE_MISSES, _PLANE_EVICTIONS
    if capacity is not None and capacity < 1:
        raise KernelError(f"plane cache capacity must be >= 1, got {capacity}")
    with _PLANE_LOCK:
        if capacity is not None:
            _PLANE_CAPACITY = capacity
        _PLANE_CACHE.clear()
        _PLANE_HITS = _PLANE_MISSES = _PLANE_EVICTIONS = 0


def _plane_cache_insert(history: SystemHistory, plane: HistoryPlane) -> None:
    global _PLANE_EVICTIONS
    with _PLANE_LOCK:
        _PLANE_CACHE[id(history)] = (history, plane)
        _PLANE_CACHE.move_to_end(id(history))
        while len(_PLANE_CACHE) > _PLANE_CAPACITY:
            _PLANE_CACHE.popitem(last=False)
            _PLANE_EVICTIONS += 1


def history_plane(history: SystemHistory) -> HistoryPlane:
    """The shared :class:`HistoryPlane` of ``history`` (identity-cached).

    A bounded keyed LRU: sweeps hit on consecutive specs over one
    history, and interleaved streams (several live :class:`EngineSession`\\ s
    appending in turn) each keep their own entry instead of evicting the
    others.  A cold entry is merely rebuilt — the cache is keyed by
    object identity, never by value.
    """
    global _PLANE_HITS, _PLANE_MISSES
    key = id(history)
    with _PLANE_LOCK:
        entry = _PLANE_CACHE.get(key)
        if entry is not None and entry[0] is history:
            _PLANE_HITS += 1
            _PLANE_CACHE.move_to_end(key)
            return entry[1]
        _PLANE_MISSES += 1
    plane = HistoryPlane(history)
    _plane_cache_insert(history, plane)
    return plane


def install_plane(history: SystemHistory, plane: HistoryPlane) -> None:
    """Make ``plane`` the one :func:`history_plane` returns for ``history``.

    The incremental session's hook: after growing a plane in place
    (:func:`extend_plane`) the session installs it so the stock driver —
    which derives its plane through :func:`history_plane` — runs on the
    extended data instead of recompiling.  Installing a plane that was
    not built for ``history`` corrupts every later check of it; the
    session is the only caller that should install.
    """
    _plane_cache_insert(history, plane)


# -- ordering rules on the integer plane ------------------------------------
#
# Each registered ordering rule has a mask function: ``build(plane, src)``
# returns exactly ``rule.build(history, rf, None).pred_masks(ops)`` — the
# rule's relation as predecessor masks, diagonal clear — computed on the
# plane's payload arrays, where ``src`` maps each attributed read's index
# to its source's index (-1 for the initial value).  Rules whose relation
# is a transitive closure write their direct rows and close them with
# :func:`close_masks`.  ``extend(old, rows, op, isrc)``, where present,
# gives the row of an operation appended by the incremental session
# (see :func:`extend_plane`).  ``tests/property`` pins every function to
# its rule's relation.


class RuleCompiler(NamedTuple):
    """The integer form of one ordering rule."""

    build: Callable[[HistoryPlane, Mapping[int, int]], list[int]]
    extend: (
        Callable[[HistoryPlane, Sequence[int], Operation, int | None], int] | None
    ) = None


def _closed(rows: list[int]) -> list[int]:
    """Transitive closure with the diagonal cleared (``pred_masks``' form)."""
    closed = close_masks(rows)
    for i in range(len(closed)):
        closed[i] &= ~(1 << i)
    return closed


def po_pair_masks(
    plane: HistoryPlane, related: Callable[[int, int], bool]
) -> list[int]:
    """Rows of the program-order pairs ``(i, j)`` with ``related(i, j)``."""
    rows = [0] * plane.n
    for start, end in plane.ranges.values():
        for j in range(start + 1, end):
            row = 0
            for i in range(start, j):
                if related(i, j):
                    row |= 1 << i
            rows[j] = row
    return rows


def _po_masks(plane: HistoryPlane, src: Mapping[int, int]) -> list[int]:
    rows = [0] * plane.n
    for start, end in plane.ranges.values():
        below = (1 << start) - 1
        for j in range(start, end):
            rows[j] = ((1 << j) - 1) ^ below
    return rows


def _po_row(
    old: HistoryPlane, rows: Sequence[int], op: Operation, isrc: int | None
) -> int:
    start, end = old.ranges.get(op.proc, (0, 0))
    return ((1 << end) - 1) ^ ((1 << start) - 1)


def _po_loc_masks(plane: HistoryPlane, src: Mapping[int, int]) -> list[int]:
    loc = plane.uni_loc
    return po_pair_masks(plane, lambda i, j: loc[i] == loc[j])


def _po_loc_row(
    old: HistoryPlane, rows: Sequence[int], op: Operation, isrc: int | None
) -> int:
    start, end = old.ranges.get(op.proc, (0, 0))
    row = 0
    for q in range(start, end):
        if old.ops[q].location == op.location:
            row |= 1 << q
    return row


def _po_sync_masks(plane: HistoryPlane, src: Mapping[int, int]) -> list[int]:
    labeled = [op.labeled for op in plane.ops]
    return _closed(po_pair_masks(plane, lambda i, j: labeled[i] or labeled[j]))


def _po_sync_row(
    old: HistoryPlane, rows: Sequence[int], op: Operation, isrc: int | None
) -> int:
    start, end = old.ranges.get(op.proc, (0, 0))
    row = 0
    for q in range(start, end):
        if old.ops[q].labeled or op.labeled:
            row |= rows[q] | (1 << q)
    return row


def ppo_related(plane: HistoryPlane) -> Callable[[int, int], bool]:
    """``->ppo``'s direct condition on a program-ordered pair ``(i, j)``.

    Only a write-only operation followed by a read-only one of another
    location escapes it (RMWs order against everything).
    """
    loc = plane.uni_loc
    read = plane.uni_read
    write = plane.uni_write
    return lambda i, j: (
        loc[i] == loc[j] or read[i] is not None or write[j] is not None
    )


def _ppo_masks(plane: HistoryPlane, src: Mapping[int, int]) -> list[int]:
    return _closed(po_pair_masks(plane, ppo_related(plane)))


def _ppo_row(
    old: HistoryPlane, rows: Sequence[int], op: Operation, isrc: int | None
) -> int:
    start, end = old.ranges.get(op.proc, (0, 0))
    row = 0
    for q in range(start, end):
        if (
            old.ops[q].location == op.location
            or old.uni_read[q] is not None
            or op.is_write
        ):
            row |= rows[q] | (1 << q)
    return row


def _causal_masks(plane: HistoryPlane, src: Mapping[int, int]) -> list[int]:
    rows = _po_masks(plane, src)
    for ir, isrc in src.items():
        if isrc >= 0:
            rows[ir] |= 1 << isrc
    return _closed(rows)


def _causal_row(
    old: HistoryPlane, rows: Sequence[int], op: Operation, isrc: int | None
) -> int:
    start, end = old.ranges.get(op.proc, (0, 0))
    row = 0
    if end > start:
        row |= rows[end - 1] | (1 << (end - 1))
    if isrc is not None:
        row |= rows[isrc] | (1 << isrc)
    return row


def _session_masks(
    components: tuple[str, ...], plane: HistoryPlane, src: Mapping[int, int]
) -> list[int]:
    read = [v is not None for v in plane.uni_read]
    write = [v is not None for v in plane.uni_write]
    mw = "mw" in components
    ryw = "ryw" in components
    mr = "mr" in components
    rows = po_pair_masks(
        plane,
        lambda i, j: (mw and write[i] and write[j])
        or (ryw and write[i] and read[j])
        or (mr and read[i] and read[j]),
    )
    if "wfr" in components:
        # A read's source precedes every later write of the reader.
        for ir, isrc in src.items():
            if isrc < 0:
                continue
            end = plane.ranges[plane.ops[ir].proc][1]
            for later in range(ir + 1, end):
                if write[later] and later != isrc:
                    rows[later] |= 1 << isrc
    return _closed(rows)


def _block_masks(
    blocks: int, plane: HistoryPlane, src: Mapping[int, int]
) -> list[int]:
    # Location ids follow sorted name order, so ``id % blocks`` is
    # :func:`~repro.spec.parameters.partition_block_map`'s round robin.
    loc = plane.uni_loc
    return po_pair_masks(plane, lambda i, j: loc[i] % blocks == loc[j] % blocks)


_COMPILERS: dict[Any, RuleCompiler] = {
    PO.build: RuleCompiler(_po_masks, _po_row),
    PO_LOC.build: RuleCompiler(_po_loc_masks, _po_loc_row),
    PO_SYNC.build: RuleCompiler(_po_sync_masks, _po_sync_row),
    PPO.build: RuleCompiler(_ppo_masks, _ppo_row),
    CAUSAL.build: RuleCompiler(_causal_masks, _causal_row),
}

#: The parameterized rule families, by the function their ``build``
#: partially applies: the mask function takes the same parameters first.
_FAMILIES: dict[Any, Callable[..., list[int]]] = {
    session_rule(*SESSION_COMPONENTS).build.func: _session_masks,
    partition_rule(1).build.func: _block_masks,
}


def rule_compiler(rule: OrderingRule) -> RuleCompiler | None:
    """The integer form of ``rule``, or ``None`` for an unregistered rule.

    Dispatches on the rule's ``build`` function — what the rule *means* —
    never on its name, so a custom rule that reuses a registered name
    keeps its own relation.
    """
    build = rule.build
    if isinstance(build, partial):
        family = _FAMILIES.get(build.func)
        if family is None:
            return None
        return RuleCompiler(partial(family, *build.args))
    return _COMPILERS.get(build)


def rule_masks(
    plane: HistoryPlane,
    rule: OrderingRule,
    rf: ReadsFrom,
    src: Mapping[int, int],
) -> list[int]:
    """``rule``'s predecessor masks under the attribution ``rf``.

    ``src`` is ``rf`` on universe indices.  Unregistered rules fall back
    to the relation their ``build`` returns.
    """
    compiler = rule_compiler(rule)
    if compiler is None:
        return rule.build(plane.history, rf, None).pred_masks(plane.ops)
    return compiler.build(plane, src)


def _extended_bracketing_row(
    old: HistoryPlane,
    op: Operation,
    rf: ReadsFrom,
) -> int:
    """``op``'s bracketing predecessor mask, in old universe bits."""
    start, end = old.ranges.get(op.proc, (0, 0))
    row = 0
    if op.labeled:
        if op.is_release:
            # Every earlier ordinary operation precedes the new release.
            for q in range(start, end):
                if not old.ops[q].labeled:
                    row |= 1 << q
        return row
    # A new ordinary operation follows the write each earlier acquire read.
    for q in range(start, end):
        earlier = old.ops[q]
        if earlier.is_acquire:
            seen = rf.get(earlier)
            if seen is not None:
                row |= 1 << old.index[seen]
    return row


def extend_plane(
    old: HistoryPlane, history: SystemHistory, op: Operation
) -> HistoryPlane:
    """A plane for ``history`` = ``old.history`` + ``op``, grown from ``old``.

    The caller (:class:`~repro.kernel.incremental.HistoryStream`)
    guarantees the *non-rescue* precondition: ``old`` has a unique
    reads-from attribution, no existing read gains ``op`` as a candidate
    source, and ``op`` itself has at most one candidate source.  Under it
    every attribution-derived relation keeps its old pairs and gains only
    edges into ``op``, so the cached candidate table and ordering masks
    extend in place (a bit-renumbering plus one new row per rule) instead
    of being recomputed from the relations — the payload arrays, ranges
    and index are rebuilt fresh, which is a single linear pass.

    The result is value-identical to ``HistoryPlane(history)`` with its
    caches warm; equality is pinned by ``tests/kernel/test_incremental``.
    """
    plane = HistoryPlane(history)
    pos = plane.index[op]

    # Candidate table, in the new universe order.  Old reads keep their
    # candidate tuples verbatim (non-rescue); the new read derives its own.
    old_candidates = old.candidates
    candidates: dict[Operation, tuple[Operation | None, ...]] = {}
    src: Operation | None = None
    for o in plane.ops:
        if not o.is_read:
            continue
        if o == op:
            cands: list[Operation | None] = [
                plane.ops[iw]
                for iw in plane.writers_by_loc.get(op.location, ())
                if plane.uni_write[iw] == op.value_read
                and plane.ops[iw].uid != op.uid
            ]
            if op.value_read == INITIAL_VALUE:
                cands.append(None)
            candidates[o] = tuple(cands)
            if candidates[o]:
                src = candidates[o][0]
        else:
            candidates[o] = old_candidates[o]
    plane._candidates = candidates
    if all(len(c) <= 1 for c in candidates.values()):
        plane._unique_rf = {o: c[0] for o, c in candidates.items() if c}
    else:
        plane._unique_rf = None

    rf = old.unique_rf
    if rf is None or plane._unique_rf is None:
        # The masks cache is only ever consulted under a unique
        # attribution, so there is nothing sound to carry.
        return plane

    for key, value in old.masks.items():
        if key == "prop":
            old_src_idx, old_prop = value
            src_idx = {
                (ir + 1 if ir >= pos else ir): (
                    isrc + 1 if 0 <= isrc and isrc >= pos else isrc
                )
                for ir, isrc in old_src_idx.items()
            }
            prop = [insert_bit(m, pos) for m in old_prop]
            prop.insert(pos, 0)
            if op.is_read:
                if src is not None:
                    isrc = plane.index[src]
                    src_idx[pos] = isrc
                    prop[pos] |= 1 << isrc
                elif op in plane._unique_rf:
                    src_idx[pos] = -1
                    for iw in plane.writers_by_loc.get(op.location, ()):
                        if iw != pos:
                            prop[iw] |= 1 << pos
            if op.is_write:
                for ir, isrc in old_src_idx.items():
                    if isrc < 0 and old.ops[ir].location == op.location:
                        prop[pos] |= 1 << (ir + 1 if ir >= pos else ir)
            plane.masks[key] = (src_idx, prop)
            continue
        if key == "bracketing":
            row = _extended_bracketing_row(old, op, rf)
            rows = [insert_bit(m, pos) for m in value]
            rows.insert(pos, insert_bit(row, pos))
            plane.masks[key] = rows
            continue
        compiler = rule_compiler(key) if isinstance(key, OrderingRule) else None
        if compiler is None or compiler.extend is None:
            # Own-view restrictions, semi-causal rows, forced write orders
            # and rules without a row extension are rebuilt on demand.
            continue
        isrc = old.index[src] if op.is_read and src is not None else None
        row_old = compiler.extend(old, value, op, isrc)
        rows = [insert_bit(m, pos) for m in value]
        rows.insert(pos, insert_bit(row_old, pos))
        plane.masks[key] = rows
    return plane


class SemiCausalRows(NamedTuple):
    """The coherence-independent part of semi-causality for one attribution.

    ``->sem = (->ppo ∪ ->rwb ∪ ->rrb)+`` (paper Section 3.3), and only
    ``->rrb`` depends on the coherence order, so the rest is compiled once
    per attribution and each mutual candidate ORs in its ``->rrb`` delta
    (:meth:`CompiledConstraints.ordering_masks`).
    """

    #: ``(->ppo ∪ ->rwb)+`` as predecessor masks, diagonal clear.  A read
    #: ``r`` with source ``s`` gains ``ppo[s] & writes & ~bit(s)`` (rwb).
    closed: list[int]
    #: Per universe index of a write: the writes ``->ppo``-after it (the
    #: ``->rrb`` targets a coherence-newer write contributes); 0 elsewhere.
    later: list[int]
    #: ``(read index, location, source index or -1)`` per attributed read.
    reads: tuple[tuple[int, str, int], ...]


def _compile_semi_causal(
    ppo: Sequence[int], src: Mapping[int, int], plane: HistoryPlane
) -> SemiCausalRows:
    """Compile :class:`SemiCausalRows` from the closed ``->ppo`` rows."""
    write_idx = plane.write_idx
    writes = 0
    for iw in write_idx:
        writes |= 1 << iw
    rows = list(ppo)
    names = plane.locations
    uni_loc = plane.uni_loc
    reads: list[tuple[int, str, int]] = []
    for ir in sorted(src):
        isrc = src[ir]
        if isrc >= 0:
            rows[ir] |= ppo[isrc] & writes & ~(1 << isrc)
        reads.append((ir, names[uni_loc[ir]], isrc))
    later = [0] * len(ppo)
    for iw in write_idx:
        m = ppo[iw] & writes
        while m:
            bit = m & -m
            m ^= bit
            later[bit.bit_length() - 1] |= 1 << iw
    return SemiCausalRows(_closed(rows), later, tuple(reads))


class AttributionPlane:
    """The reads-from-dependent slice of a compiled constraint set."""

    __slots__ = (
        "rf",
        "ordering",
        "own_ordering",
        "bracketing",
        "sem",
        "src_idx",
        "prop",
    )

    def __init__(
        self,
        cc: "CompiledConstraints",
        rf: ReadsFrom,
        unique: bool = False,
    ) -> None:
        self.rf = rf
        spec = cc.spec
        hp = cc.hp
        # Under the unique attribution every rf-derived relation is a pure
        # function of the history, so the masks are cached on the shared
        # HistoryPlane across the specs that reuse the same ordering rule.
        cache = hp.masks if unique else None
        #: Per universe index of a read: index of its source write, or -1
        #: for an initial-value read.  Non-reads are absent.
        self.src_idx: dict[int, int]
        #: Attribution-forced edges used by incremental-legality propagation
        #: (sound only under the unambiguous attribution, which the search
        #: checks first): ``src -> read``, and an initial-value read before
        #: every write to its location.
        self.prop: list[int]
        if cache is not None and "prop" in cache:
            self.src_idx, self.prop = cache["prop"]
        else:
            self.src_idx = {}
            prop = [0] * cc.n
            for r, src in rf.items():
                ir = cc.index[r]
                if src is None:
                    self.src_idx[ir] = -1
                    bit = 1 << ir
                    for iw in cc.writers_by_loc.get(r.location, ()):
                        if iw != ir:
                            prop[iw] |= bit
                else:
                    isrc = cc.index[src]
                    self.src_idx[ir] = isrc
                    if isrc != ir:
                        prop[ir] |= 1 << isrc
            self.prop = prop
            if cache is not None:
                cache["prop"] = (self.src_idx, prop)
        #: Static ordering pred masks; ``None`` when the ordering needs a
        #: coherence order and is completed per mutual candidate from
        #: :attr:`sem`.
        self.ordering: list[int] | None = None
        self.own_ordering: dict[Any, list[int]] | None = None
        self.sem: SemiCausalRows | None = None
        if spec.ordering.needs_coherence:
            if spec.ordering != SEMI_CAUSAL:
                raise KernelError(
                    f"{spec.name}: the kernel compiles semi-causality as its "
                    f"only coherence-dependent ordering, not "
                    f"{spec.ordering.name!r}"
                )
            if cache is not None and "sem" in cache:
                self.sem = cache["sem"]
            else:
                ppo = _cached_rule(hp, PPO, rf, self.src_idx, cache)
                self.sem = _compile_semi_causal(ppo, self.src_idx, hp)
                if cache is not None:
                    cache["sem"] = self.sem
        else:
            rule = spec.ordering
            self.ordering = _cached_rule(hp, rule, rf, self.src_idx, cache)
            if spec.ordering_own_view_only:
                key = (rule, "own")
                if cache is not None and key in cache:
                    self.own_ordering = cache[key]
                else:
                    self.own_ordering = cc.restrict_to_own(self.ordering)
                    if cache is not None:
                        cache[key] = self.own_ordering
        self.bracketing: list[int] | None = None
        if spec.bracketing:
            if cache is not None and "bracketing" in cache:
                self.bracketing = cache["bracketing"]
            else:
                self.bracketing = _bracketing_masks(hp, self.src_idx)
                if cache is not None:
                    cache["bracketing"] = self.bracketing



def _cached_rule(
    hp: HistoryPlane,
    rule: OrderingRule,
    rf: ReadsFrom,
    src: Mapping[int, int],
    cache: dict | None,
) -> list[int]:
    """``rule``'s masks for one attribution, through the plane cache."""
    if cache is not None and rule in cache:
        return cache[rule]
    masks = rule_masks(hp, rule, rf, src)
    if cache is not None:
        cache[rule] = masks
    return masks


class CompiledConstraints:
    """Everything about ``(history, spec)`` the search reuses across choices."""

    __slots__ = (
        "spec",
        "history",
        "hp",
        "ops",
        "index",
        "n",
        "identical",
        "own_view_only",
        "bracketing",
        "procs",
        "views",
        "own_bits",
        "writers_by_loc",
        "_plane_rf",
        "_plane",
    )

    def __init__(self, spec: MemoryModelSpec, history: SystemHistory) -> None:
        self.spec = spec
        self.history = history
        hp = history_plane(history)
        self.hp = hp
        self.ops = hp.ops
        self.index = hp.index
        self.n = hp.n
        self.identical = spec.mutual_consistency is MutualConsistency.IDENTICAL
        self.own_view_only = spec.ordering_own_view_only
        self.bracketing = spec.bracketing
        self.procs = history.procs
        self.views = hp.views(spec.operation_set)
        self.writers_by_loc = hp.writers_by_loc
        self.own_bits: dict[Any, int] = {}
        if self.own_view_only:
            for proc, (start, end) in hp.ranges.items():
                self.own_bits[proc] = ((1 << end) - 1) ^ ((1 << start) - 1)
        self._plane_rf: ReadsFrom | None = None
        self._plane: AttributionPlane | None = None

    @property
    def universe_plane(self) -> ViewPlane:
        """The whole universe as one view, for IDENTICAL models."""
        return self.hp.universe_plane

    # -- attribution planes ----------------------------------------------------

    def plane(self, rf: ReadsFrom, unique: bool = False) -> AttributionPlane:
        """The attribution-dependent plane for ``rf`` (cached single-slot).

        Histories under the distinct-write-values discipline have exactly
        one attribution, so the slot makes repeated checks of the same
        history (a sweep, the classification lattice) compile it once;
        ``unique`` additionally lets the plane share its masks through the
        HistoryPlane across specs.
        """
        if self._plane is not None and (
            self._plane_rf is rf or self._plane_rf == rf
        ):
            return self._plane
        plane = AttributionPlane(self, rf, unique)
        self._plane_rf = rf
        self._plane = plane
        return plane

    def restrict_to_own(self, ordering: Sequence[int]) -> dict[Any, list[int]]:
        """Per-processor restriction of ordering masks to own operations.

        Release consistency's reading of parameter 3: the ordering binds a
        processor's operations only in that processor's *own* view.
        """
        out: dict[Any, list[int]] = {}
        for proc in self.procs:
            bits = self.own_bits[proc]
            restricted = [0] * self.n
            for i in range(self.n):
                if (bits >> i) & 1:
                    restricted[i] = ordering[i] & bits
            out[proc] = restricted
        return out

    # -- per-candidate assembly ------------------------------------------------

    def ordering_masks(
        self,
        plane: AttributionPlane,
        coherence: Mapping[str, tuple[int, ...]] | None,
    ) -> list[int] | None:
        """The ordering's predecessor masks under one mutual candidate.

        The attribution plane's static rows for coherence-independent
        orderings.  For semi-causality, exactly
        ``sem_relation(history, rf, coherence).pred_masks(ops)``: each read
        gains, as ``->rrb`` successors, the writes ``->ppo``-after any
        write coherence-newer than its source, OR'd into the compiled
        ``(->ppo ∪ ->rwb)+`` rows.  Those rows are already closed, so the
        re-closure only pivots on the operations the delta touches (every
        path of the union shortens to one whose inner vertices do).  The
        returned list is shared when the delta is empty; callers copy.
        """
        sem = plane.sem
        if sem is None:
            return plane.ordering
        assert coherence is not None  # spec validation: sem needs write orders
        closed, later, reads = sem
        # Per location, suffix ORs of ``later`` along the coherence chain:
        # ``tail[loc][k]`` covers every write from position ``k`` on.
        pos: dict[int, int] = {}
        tail: dict[str, list[int]] = {}
        for loc, chain in coherence.items():
            suffix = [0] * (len(chain) + 1)
            acc = 0
            for k in range(len(chain) - 1, -1, -1):
                iw = chain[k]
                pos[iw] = k
                acc |= later[iw]
                suffix[k] = acc
            tail[loc] = suffix
        masks: list[int] | None = None
        pivots = 0
        for ir, loc, isrc in reads:
            suffix = tail.get(loc)
            if suffix is None:
                continue
            targets = suffix[0] if isrc < 0 else suffix[pos[isrc] + 1]
            if not targets:
                continue
            if masks is None:
                masks = list(closed)
            bit = 1 << ir
            pivots |= bit | targets
            while targets:
                t = targets & -targets
                targets ^= t
                masks[t.bit_length() - 1] |= bit
        if masks is None:
            return closed
        n = self.n
        while pivots:
            kb = pivots & -pivots
            pivots ^= kb
            pk = masks[kb.bit_length() - 1]
            for i in range(n):
                if masks[i] & kb:
                    masks[i] |= pk
        for i in range(n):
            masks[i] &= ~(1 << i)
        return masks

    def _base_masks(
        self,
        plane: AttributionPlane,
        chains: tuple[tuple[int, ...], ...],
        ordering: Sequence[int] | None,
    ) -> tuple[list[int], dict[Any, list[int]] | None]:
        """The raw (unclosed, ungated) base masks of one mutual candidate."""
        if ordering is None:
            ordering = plane.ordering
        own: dict[Any, list[int]] | None = None
        if self.own_view_only:
            assert ordering is not None
            own = (
                plane.own_ordering
                if plane.own_ordering is not None
                else self.restrict_to_own(ordering)
            )
            masks = [0] * self.n
        else:
            assert ordering is not None
            masks = list(ordering)
        for chain in chains:
            chain_masks(masks, chain)
        if plane.bracketing is not None:
            for i in range(self.n):
                masks[i] |= plane.bracketing[i]
        return masks, own

    def assemble_base(
        self,
        plane: AttributionPlane,
        chains: tuple[tuple[int, ...], ...],
        ordering: Sequence[int] | None = None,
    ) -> tuple[list[int], dict[Any, list[int]] | None] | None:
        """Cross-view constraints for one mutual candidate, closed, or ``None``.

        Mirrors the pre-kernel solver's ``_base_constraints``: assemble
        ordering (unless it binds own views only) + mutual chains +
        bracketing, reject cyclic combinations, transitively close so that
        restriction to any view preserves all orderings.  Returns the
        closed masks and the per-processor own-ordering masks (``None``
        when the ordering already lives in the base).

        The gate itself is the active backend's (see
        :mod:`repro.kernel.backend`): every full gate of a candidate
        passes through this call.
        """
        masks, own = self._base_masks(plane, chains, ordering)
        (closed,) = active_backend().gate_batch([masks], self.n)
        if closed is None:
            return None
        return closed, own

    def base_acyclic(
        self,
        plane: AttributionPlane,
        chains: tuple[tuple[int, ...], ...],
        ordering: Sequence[int] | None = None,
    ) -> bool:
        """Whether :meth:`assemble_base` would pass its acyclicity gate.

        The incremental session's probe: deciding whether a candidate that
        failed on a prefix still *counts* as explored on the extended
        history requires the gate's answer but not the closed masks.
        """
        masks, _ = self._base_masks(plane, chains, ordering)
        return masks_acyclic(masks, self.n)

    def extra_masks(self, extra) -> list[int] | None:
        """Universe masks of a labeled-discipline candidate (layer 2)."""
        if extra is None:
            return None
        masks = [0] * self.n if extra.masks is None else list(extra.masks)
        for chain in extra.chains:
            chain_masks(masks, chain)
        return masks

    def candidate_propagation(
        self,
        plane: AttributionPlane,
        coherence: Mapping[str, tuple[int, ...]] | None,
    ) -> list[int]:
        """Propagation masks for one candidate: rf edges + coherence successors.

        Under the unambiguous attribution a read's source is the unique
        write of the observed value, so in every legal view the source
        precedes the read and — once the candidate fixes a per-location
        write order the views embed — the read precedes the source's
        coherence successor.  These edges turn the search's dynamic
        value-legality failures into static predecessor-mask failures
        without changing which extensions exist, which is what makes the
        per-view search incremental instead of re-validating prefixes.
        """
        if coherence is None:
            return plane.prop  # shared, never mutated by the search
        prop = list(plane.prop)
        succ: dict[int, int] = {}
        for chain in coherence.values():
            for a, b in zip(chain, chain[1:]):
                succ[a] = b
        for ir, isrc in plane.src_idx.items():
            if isrc < 0:
                continue
            inext = succ.get(isrc)
            if inext is not None and inext != ir:
                prop[inext] |= 1 << ir
        return prop


def compile_constraints(
    spec: MemoryModelSpec, history: SystemHistory
) -> CompiledConstraints:
    """Compile ``spec`` for ``history``, via the active relation memo if any.

    Inside an engine sweep (or any :func:`~repro.orders.memo.relation_memo`
    block) each ``(history, parameter-bundle)`` pair is compiled once and
    shared by every subsequent check.
    """
    memo = active_memo()
    if memo is None:
        return CompiledConstraints(spec, history)
    return memo.fetch(
        history,
        ("kernel", spec.cache_key),
        lambda: CompiledConstraints(spec, history),
    )
