"""Incremental admission checking: sessions that grow a history in place.

The one-shot driver (:func:`repro.kernel.search.check_with_spec`) answers
"is this whole history allowed?".  The ROADMAP's north-star workload is a
*stream*: a client session appends one operation at a time and wants an
admit/deny verdict after every append.  Re-running the one-shot check per
append recompiles the bitmask planes and re-searches from scratch; this
module makes the check *extendable* instead, in three pieces:

:class:`HistoryStream`
    Owns the growing history.  On append it re-indexes the operation,
    rebuilds the cheap linear-pass arrays, and — when the append is
    *non-rescuing* (see below) — grows the compiled
    :class:`~repro.kernel.constraints.HistoryPlane` in place via
    :func:`~repro.kernel.constraints.extend_plane`, recomputing only the
    dirty mask rows instead of every rf/wb/causal plane.

:class:`IncrementalCheck`
    One session per compiled spec.  It remembers, per mutual-consistency
    candidate, *how* the candidate failed on the surviving prefix
    (``"cyclic"`` base vs ``"stuck"`` view search) and installs that
    failure memory as the ``reuse`` hook of the one-shot driver, so the
    resumed search skips every view search the prefix already exhausted
    and falls back to a full search exactly where reuse would be unsound.

Soundness (why a prefix failure survives an append)
---------------------------------------------------
Let ``z`` be the appended operation.  The session reuses prefix state only
when the prefix's reads-from attribution is unique and ``z`` is
*non-rescuing*: no existing read observes the value ``z`` writes to its
location.  Then (a) every ordering, bracketing and propagation edge
between old operations is unchanged — ``z`` is program-last on its
processor and observed by no read, so it only *gains* incoming edges; and
(b) deleting ``z`` from any legal view of the extended history leaves a
legal view of the prefix, because ``z`` is never the most recent matching
write for an old read (that would be a rescue).  Hence a candidate with no
legal views on the prefix has none on the extension: a ``"cyclic"`` base
stays cyclic (edges are only ever added) and replays as an uncounted
skip, and a ``"stuck"`` failure replays as a skip of the view search.
What an append *can* change is the acyclicity gate itself: ``z`` gains
outgoing per-candidate edges too (a read's own-view constraints order it
before later writes to its location; a coherence chain can place an
appended write before one an old read observes), so a previously-stuck
candidate may newly be cyclic — which a fresh search rejects without
counting it explored.  Every stuck hit after an append therefore replays
the gate through
:meth:`~repro.kernel.constraints.CompiledConstraints.base_acyclic`
before counting, keeping ``explored`` byte-identical.

Verdicts are byte-identical to a fresh :func:`check_with_spec` of every
prefix — same ``allowed``, same witness, same ``reason`` and ``explored``
— which ``tests/kernel/test_incremental.py`` pins for the whole catalog
and the property suite fuzzes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.core.errors import CheckerError
from repro.core.history import ProcessorHistory, SystemHistory
from repro.core.operation import Operation
from repro.kernel.constraints import (
    HistoryPlane,
    extend_plane,
    history_plane,
    install_plane,
)
from repro.kernel.results import CheckResult, Counterexample
from repro.kernel.rf import impossible_read
from repro.kernel.search import SearchBudget, check_with_spec
from repro.obs import sink as _sink_state
from repro.obs.events import PrefixReuse, SessionAppend
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import MutualConsistency

__all__ = ["HistoryStream", "IncrementalCheck"]

#: The driver's DENY reason when the candidate enumeration runs dry.
_SEARCH_DENY = "no choice of views satisfies the model's requirements"

#: Mutual-consistency choices with exactly one (empty-chains) candidate.
_SINGLE_CANDIDATE = (MutualConsistency.NONE, MutualConsistency.IDENTICAL)


class HistoryStream:
    """A history that grows one operation at a time, plane and all.

    The stream owns the canonical :class:`SystemHistory` of the session
    and the compiled :class:`HistoryPlane` the kernel searches on.  Both
    are replaced on every append (histories are immutable values), but
    the plane's expensive caches — the candidate-source table and the
    per-ordering-rule mask rows — are *grown* rather than recomputed
    whenever the append is non-rescuing, and the grown plane is installed
    into the kernel's plane-cache LRU so the stock driver picks it up
    without knowing the session exists.
    """

    __slots__ = ("history", "plane", "last_reused", "_ops")

    def __init__(self, history: SystemHistory | None = None) -> None:
        self._ops: dict[Any, list[Operation]] = {}
        if history is not None:
            for proc in history.procs:
                self._ops[proc] = list(history.ops_of(proc))
        self.history: SystemHistory = (
            history if history is not None else SystemHistory(())
        )
        self.plane: HistoryPlane = history_plane(self.history)
        #: Whether the most recent append grew the plane in place.
        self.last_reused: bool = True

    def __len__(self) -> int:
        return len(self.history.operations)

    def append(self, op: Operation) -> tuple[Operation, bool]:
        """Append ``op`` to its processor's history and grow the plane.

        The operation is re-indexed to the next program-order slot of its
        processor (callers build ops with any index; the stream owns the
        numbering).  Returns the placed operation and whether the plane
        was grown in place (``False`` means a full recompile — the append
        *rescued* an existing read or followed an ambiguous prefix).
        """
        own = self._ops.setdefault(op.proc, [])
        placed = (
            op
            if op.index == len(own)
            else dataclasses.replace(op, index=len(own))
        )
        own.append(placed)
        old_plane = self.plane
        history = SystemHistory(
            ProcessorHistory(proc, ops) for proc, ops in self._ops.items()
        )
        reused = not self._rescues(placed)
        if reused:
            plane = extend_plane(old_plane, history, placed)
        else:
            plane = HistoryPlane(history)
        self.history = history
        self.plane = plane
        self.last_reused = reused
        install_plane(history, plane)
        return placed, reused

    def install(self) -> None:
        """(Re-)install the stream's plane into the kernel's plane cache.

        The cache is a bounded LRU, so an interleaved check of another
        history no longer evicts this stream's entry — but enough churn
        still can, so sessions re-install defensively before every
        check.
        """
        install_plane(self.history, self.plane)

    # -- internals -------------------------------------------------------------

    def _rescues(self, op: Operation) -> bool:
        """Whether appending ``op`` changes any *existing* read's candidates.

        A write (or write half) whose value some existing read already
        observes becomes a new candidate source for that read — the one
        way an append can alter old attribution state.  Reads never
        rescue: they only add a row of their own.
        """
        if not op.is_write:
            return False
        value = op.value_written
        for old in self.plane.ops:
            if (
                old.is_read
                and old.location == op.location
                and old.value_read == value
                and old.uid != op.uid
            ):
                return True
        return False


class _FailureMemory:
    """Per-spec memory of how each mutual candidate failed on the prefix.

    Keys are candidate chains as ``uid`` tuples (candidates carry universe
    indices, which shift on append; uids do not).  :attr:`memory` holds the
    last *completed* search's failures, keyed as of that search's history;
    :attr:`strip` holds the uids appended since, so a current candidate is
    matched against the memory by stripping those uids from its chains
    (the stripped chains are exactly the candidate the prefix search saw).
    A run accumulates its own failures into :attr:`fresh` under full
    (unstripped) keys and swaps them in on :meth:`commit`.
    """

    __slots__ = ("memory", "strip", "fresh", "hits", "misses", "started", "uids")

    def __init__(self) -> None:
        #: The uid of each universe index of the running search.
        self.uids: list[tuple[Any, int]] = []
        self.memory: dict[tuple, str] = {}
        self.strip: set[tuple[Any, int]] = set()
        self.fresh: dict[tuple, str] = {}
        self.hits = 0
        self.misses = 0
        self.started = False

    # -- the reuse-hook protocol the search drives -----------------------------

    def start(self, ops: tuple[Operation, ...]) -> None:
        """The search entered its candidate enumeration over ``ops``."""
        self.uids = [op.uid for op in ops]
        self.fresh = {}
        self.hits = 0
        self.misses = 0
        self.started = True

    def lookup(self, cand: Any) -> str | None:
        """The prefix's failure mode for ``cand``, or ``None`` if unknown."""
        uids = self.uids
        key = tuple(
            tuple(uids[i] for i in chain if uids[i] not in self.strip)
            for chain in cand.chains
        )
        mode = self.memory.get(key)
        if mode is None:
            self.misses += 1
            return None
        self.hits += 1
        if mode == "cyclic":
            # The search skips without calling record; remember the
            # failure ourselves so it survives into the next append.
            self.fresh[self._full_key(cand)] = "cyclic"
        return mode

    def needs_probe(self, cand: Any) -> bool:
        """Whether the acyclicity gate must replay before a stuck skip.

        Any operation appended since the search that recorded the
        failure can gain *outgoing* edges in the candidate's assembled
        base — an appended read's own-view constraints order it before
        later writes to its location, and a coherence chain can place an
        appended write before one an old read observes — so a
        previously-stuck candidate may now be cyclic, which a fresh
        search rejects *uncounted*.  Only a lookup against memory of the
        same history (no appends since the last commit) skips the probe.
        """
        return bool(self.strip)

    def record(self, cand: Any, mode: str) -> None:
        """The driver decided ``cand`` failed with ``mode`` on this history."""
        self.fresh[self._full_key(cand)] = mode

    # -- session bookkeeping ---------------------------------------------------

    def commit(self) -> None:
        """A search completed: its failures become the new memory base."""
        self.memory = self.fresh
        self.fresh = {}
        self.strip.clear()
        self.started = False

    def reset(self) -> None:
        """Invalidate everything (rescuing append, ambiguity, budget error)."""
        self.memory = {}
        self.fresh = {}
        self.strip.clear()
        self.started = False

    def _full_key(self, cand: Any) -> tuple:
        uids = self.uids
        return tuple(tuple(uids[i] for i in chain) for chain in cand.chains)


class IncrementalCheck:
    """One model's admit/deny session over a growing history.

    Owns a compiled spec and its prefix-reuse state; either owns its
    :class:`HistoryStream` (single-model sessions) or shares one that a
    coordinator such as :class:`repro.engine.session.EngineSession`
    appends to once per operation.

    Every verdict is byte-identical to a fresh
    :func:`~repro.kernel.search.check_with_spec` of the same prefix with
    the same ``budget``.
    """

    def __init__(
        self,
        spec: MemoryModelSpec,
        stream: HistoryStream | None = None,
        *,
        budget: SearchBudget | None = None,
    ) -> None:
        self.spec = spec
        self.stream = stream if stream is not None else HistoryStream()
        self.budget = budget
        #: Verdicts per prefix, in append order.
        self.results: list[CheckResult] = []
        # Session counters, bumped where the SessionAppend and PrefixReuse
        # trace events are emitted, so their totals need no sink.
        #: Operations appended.
        self.appends = 0
        #: Appended operations whose plane grew in place.
        self.planes_grown = 0
        #: Candidate serializations replayed from prefix failure memory.
        self.reuse_hits = 0
        #: Candidate serializations searched fresh under an active memory.
        self.reuse_misses = 0
        #: Checks that ran as full one-shot searches (no memory).
        self.fallbacks = 0
        # Failure memory is sound only when the labeled-extras loop is the
        # trivial single ``None`` — i.e. no labeled discipline.  RC models
        # still get the extendable plane; their searches just run fresh.
        self._memory = (
            _FailureMemory() if spec.labeled_discipline is None else None
        )

    @property
    def history(self) -> SystemHistory:
        """The session's current history (every appended operation)."""
        return self.stream.history

    def append(self, op: Operation) -> CheckResult:
        """Append one operation and return the verdict for the new prefix.

        Only for sessions that own their stream exclusively; coordinators
        sharing a stream across models call :meth:`on_appended` instead.
        """
        placed, reused = self.stream.append(op)
        return self.on_appended((placed,), reused)

    def on_appended(
        self, ops: Iterable[Operation], reused: bool
    ) -> CheckResult:
        """React to operations the shared stream already appended."""
        ops = tuple(ops)
        memory = self._memory
        if memory is not None:
            if reused and self.stream.plane.unique_rf is not None:
                for op in ops:
                    memory.strip.add(op.uid)
            else:
                # A rescue or an ambiguous attribution: the prefix's
                # candidate keys no longer mean what they meant.
                memory.reset()
        result = self._check()
        self.appends += len(ops)
        if reused:
            self.planes_grown += len(ops)
        sink = _sink_state._ACTIVE
        if sink is not None:
            for op in ops:
                sink.emit(
                    SessionAppend(
                        model=self.spec.name,
                        op=str(op),
                        operations=len(self.stream.history.operations),
                        reused=reused,
                    )
                )
        return result

    def check(self) -> CheckResult:
        """Check the current prefix without appending (seed histories)."""
        return self._check()

    # -- internals -------------------------------------------------------------

    def _check(self) -> CheckResult:
        self.stream.install()
        result = self._fast_path()
        if result is not None:
            self.results.append(result)
            return result
        memory = self._memory
        if memory is not None:
            memory.started = False
        try:
            result = check_with_spec(
                self.spec,
                self.stream.history,
                self.budget,
                reuse=memory,
            )
        except CheckerError:
            # Budget blown: the run's partial memory is meaningless — drop
            # it and re-raise.
            if memory is not None:
                memory.reset()
            raise
        if memory is not None and memory.started:
            self._note_reuse(memory.hits, memory.misses, fallback=False)
            memory.commit()
        else:
            self._note_reuse(0, 0, fallback=True)
        self.results.append(result)
        return result

    def _fast_path(self) -> CheckResult | None:
        """A verdict without entering the driver, or ``None`` to run it.

        Each shortcut returns what the driver would, byte for byte, and
        reports the check as reuse rather than as a full-search fallback.
        """
        plane = self.stream.plane
        # An impossible read poisons every extension; re-deny the way the
        # driver does, straight off the grafted candidate table.
        bad = impossible_read(self.stream.history, plane.candidates)
        if bad is not None:
            reason = (
                f"{bad} observes a value never written to {bad.location!r}"
            )
            self._note_reuse(0, 0, fallback=False)
            return CheckResult(
                self.spec.name,
                False,
                reason=reason,
                counterexample=Counterexample(
                    self.spec.name, "impossible-value", reason
                ),
            )
        # Single-candidate specs (NONE/IDENTICAL mutual consistency, no
        # labeled discipline): a remembered failure of the one candidate
        # extends to the whole verdict without compiling anything.
        memory = self._memory
        if (
            memory is None
            or self.spec.mutual_consistency not in _SINGLE_CANDIDATE
            or plane.unique_rf is None
            or not self.results
        ):
            return None
        mode = memory.memory.get(())  # the empty-chains candidate's key
        if mode is None:
            return None
        if mode == "stuck" and memory.strip:
            # An append since the remembered search can flip the
            # acyclicity gate (see needs_probe), turning the fresh
            # explored count from 1 to 0; only the driver's probe can
            # tell, so run it.  "cyclic" needs no probe: edges are only
            # ever added, a cyclic base stays cyclic.
            return None
        previous = self.results[-1]
        if previous.allowed or previous.counterexample is not None:
            return None
        if previous.reason != _SEARCH_DENY:
            return None
        budget = self.budget or SearchBudget()
        if mode == "stuck" and budget.max_serializations < 1:
            return None
        explored = 1 if mode == "stuck" else 0
        memory.fresh = {(): mode}
        memory.hits, memory.misses = 1, 0
        self._note_reuse(1, 0, fallback=False)
        memory.commit()
        return previous.extend(explored=explored)

    def _note_reuse(self, hits: int, misses: int, *, fallback: bool) -> None:
        if fallback:
            self.fallbacks += 1
        else:
            self.reuse_hits += hits
            self.reuse_misses += misses
        sink = _sink_state._ACTIVE
        if sink is not None:
            sink.emit(
                PrefixReuse(
                    model=self.spec.name,
                    hits=hits,
                    misses=misses,
                    fallback=fallback,
                )
            )
