"""Polynomial pre-pass verdicts: a definite DENY, or UNKNOWN.

The kernel decides admissibility by searching for legal linear extensions —
NP-hard in general.  Some denials follow from polynomial graph analysis of
*necessary* conditions:

* **rf-sanity** — a read observing a value no write stores (and which is
  not the initial value) is illegal in every view under every model;
* **write-order-cycle** — for coherence-class mutual consistency (views
  agree on same-location write order), the forced write-order edges
  ``wb ∪ po|loc`` must be acyclic, because every admissible shared order
  extends them;
* **view-cycle** — each processor's view must be a linear extension of the
  spec's ordering (restricted to the view), the reads-from legality edges,
  the bracketing edges, and the forced write-order edges; a cycle in that
  per-view constraint graph rules out every legal view.

No check path runs these rules: every verdict the checker returns comes
from :func:`repro.checking.check` (EXPERIMENTS.md E22 measured each rule
against the search it would save; end to end the search alone is
faster).  They serve
``python -m repro lint history``, which explains a denial without a
search, and the differential fuzzer's ``prepass_deny`` soundness oracle.

A :class:`HistoryPrepass` is compiled once per
:class:`~repro.spec.model_spec.MemoryModelSpec` and then applied to many
histories; it builds its relations with the :mod:`repro.orders`
builders.

Soundness contract
------------------
The pre-pass returns a **definite DENY** or **UNKNOWN**.  A DENY is sound
because every edge placed in a graph is *forced*: it holds in every legal
view of every admissible execution under the spec.  Conservative
under-approximations keep that true:

* with an ambiguous reads-from attribution the pre-pass returns UNKNOWN
  (except for rf-sanity, which is attribution-independent), because
  legality edges are only forced once the attribution is fixed;
* for orderings that need a coherence order (semi-causality), the partial
  program order ``->ppo`` — a subset of every semi-causal relation — stands
  in for the real ordering;
* for specs whose ordering binds own views only (release consistency),
  ordering edges are applied only between a processor's own operations in
  its own view, mirroring the kernel's ``restrict_to_own``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import cast

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.kernel.constraints import bracketing_edges
from repro.kernel.results import CheckResult, Counterexample
from repro.kernel.rf import impossible_read
from repro.obs.events import PrepassRule
from repro.obs.sink import TraceSink, active_sink
from repro.orders.program_order import ppo_relation
from repro.orders.relation import Relation
from repro.orders.writes_before import (
    ReadsFrom,
    reads_from_candidates,
    unambiguous_reads_from,
)
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import MutualConsistency

__all__ = ["PrepassVerdict", "HistoryPrepass", "compile_prepass", "prepass_check"]

#: Mutual-consistency classes whose views agree on (at least same-location)
#: write order, making forced write-order edges hold in every view.
#: Partition agreement spans whole location blocks, hence in particular
#: each single location, so it belongs here (but not in the total class:
#: cross-block writes stay unordered).
_COHERENCE_CLASS = (
    MutualConsistency.COHERENCE,
    MutualConsistency.TOTAL_WRITE_ORDER,
    MutualConsistency.IDENTICAL,
    MutualConsistency.PARTITION,
)

#: Classes whose agreement spans *all* writes, not only same-location ones.
_TOTAL_CLASS = (MutualConsistency.TOTAL_WRITE_ORDER, MutualConsistency.IDENTICAL)


@dataclass(frozen=True)
class PrepassVerdict:
    """The outcome of the pre-pass: a definite DENY, or UNKNOWN.

    Attributes
    ----------
    model:
        The spec the verdict is about.
    decided:
        ``True`` for a definite DENY.
    check:
        The rule that denied (``"rf-sanity"``, ``"write-order-cycle"`` or
        ``"view-cycle"``); empty when undecided.
    counterexample:
        For decided verdicts: the structured reason, in the same
        :class:`~repro.kernel.results.Counterexample` shape ``repro
        explain`` renders.
    checks_run:
        Which rules were evaluated (for metrics and tests).
    """

    model: str
    decided: bool
    check: str = ""
    counterexample: Counterexample | None = None
    checks_run: tuple[str, ...] = ()

    @property
    def reason(self) -> str:
        """One-line reason for a decided DENY (empty otherwise)."""
        return self.counterexample.detail if self.counterexample else ""

    def to_result(self) -> CheckResult:
        """The decided DENY as a kernel :class:`CheckResult`.

        Only meaningful when :attr:`decided` is set; the result carries
        ``explored=0`` — no search ran.
        """
        if not self.decided:
            raise ValueError(f"{self.model}: undecided pre-pass has no result")
        return CheckResult(
            self.model,
            False,
            reason=self.reason,
            counterexample=self.counterexample,
        )


class HistoryPrepass:
    """The necessary-condition checks of one spec, compiled for reuse.

    Construction fixes *which* checks apply (from the spec's mutual
    consistency, bracketing and ordering parameters); :meth:`check` then
    runs them against a history in polynomial time.
    """

    def __init__(self, spec: MemoryModelSpec) -> None:
        self.spec = spec
        self.coherence_class = spec.mutual_consistency in _COHERENCE_CLASS
        self.total_writes = spec.mutual_consistency in _TOTAL_CLASS
        self.identical = spec.mutual_consistency is MutualConsistency.IDENTICAL
        checks = ["rf-sanity"]
        if self.coherence_class:
            checks.append("write-order-cycle")
        checks.append("view-cycle")
        #: The rules this spec compiles to, in run order.
        self.checks: tuple[str, ...] = tuple(checks)

    def _rule_event(
        self, sink: TraceSink | None, rule: str, outcome: str, detail: str = ""
    ) -> None:
        """Narrate one rule's outcome to the active trace sink, if any."""
        if sink is not None:
            sink.emit(
                PrepassRule(
                    model=self.spec.name, rule=rule, outcome=outcome, detail=detail
                )
            )

    def check(self, history: SystemHistory) -> PrepassVerdict:
        """A definite DENY, or UNKNOWN — never a guess."""
        spec = self.spec
        sink = active_sink()
        candidates = reads_from_candidates(history)
        bad = impossible_read(history, candidates)
        if bad is not None:
            reason = f"{bad} observes a value never written to {bad.location!r}"
            self._rule_event(sink, "rf-sanity", "deny", reason)
            return PrepassVerdict(
                spec.name,
                True,
                check="rf-sanity",
                counterexample=Counterexample(spec.name, "impossible-value", reason),
                checks_run=("rf-sanity",),
            )
        self._rule_event(sink, "rf-sanity", "pass")
        rf = unambiguous_reads_from(history)
        if rf is None:
            # Legality edges are forced only under a fixed attribution;
            # with several candidate writers per read, leave the choice
            # (and the verdict) to the kernel's enumeration.
            for rule in self.checks[1:]:
                self._rule_event(sink, rule, "abstain")
            return PrepassVerdict(spec.name, False, checks_run=("rf-sanity",))
        ordering = self._ordering(history)
        run = ["rf-sanity"]
        forced_closed: Relation[Operation] | None = None
        if self.coherence_class:
            run.append("write-order-cycle")
            forced = self._forced_write_order(history, rf, ordering)
            cycle = forced.find_cycle()
            if cycle is not None:
                detail = (
                    "the forced write order (program-order write chains and "
                    "reads-from-implied coherence edges) is cyclic "
                    f"(cycle of {len(cycle) - 1} writes)"
                )
                self._rule_event(sink, "write-order-cycle", "deny", detail)
                return PrepassVerdict(
                    spec.name,
                    True,
                    check="write-order-cycle",
                    counterexample=Counterexample(
                        spec.name, "cyclic-constraints", detail, cycle=tuple(cycle)
                    ),
                    checks_run=tuple(run),
                )
            self._rule_event(sink, "write-order-cycle", "pass")
            forced_closed = forced.transitive_closure()
        run.append("view-cycle")
        cx = self._view_cycle(history, rf, ordering, forced_closed)
        if cx is not None:
            self._rule_event(sink, "view-cycle", "deny", cx.detail)
            return PrepassVerdict(
                spec.name,
                True,
                check="view-cycle",
                counterexample=cx,
                checks_run=tuple(run),
            )
        self._rule_event(sink, "view-cycle", "pass")
        return PrepassVerdict(spec.name, False, checks_run=tuple(run))

    # -- pieces ------------------------------------------------------------------

    def _ordering(self, history: SystemHistory) -> Relation[Operation]:
        """The spec's ordering, or a sound under-approximation of it.

        Semi-causality needs a coherence order the pre-pass never fixes;
        ``->ppo`` is contained in every semi-causal relation, so a cycle
        through ppo edges is a cycle through every candidate ordering.
        """
        if self.spec.ordering.needs_coherence:
            return ppo_relation(history)
        # Passing reads_from=None lets the builders infer the unique
        # attribution (established by the caller).
        return self.spec.ordering.build(history, cast(ReadsFrom, None), None)

    def _forced_write_order(
        self,
        history: SystemHistory,
        rf: ReadsFrom,
        ordering: Relation[Operation],
    ) -> Relation[Operation]:
        """Edges every admissible agreed write order must contain.

        Program-order pairs of a processor's own writes (same-location
        pairs always; cross-location ones only under total-write-order
        agreement) and reads-from-implied pairs (a processor that reads
        ``w1`` and later writes ``w2`` to the same location forces
        ``w1 < w2``).  Each candidate edge is admitted only when the spec's
        ordering actually orders the generating pair in the owner's view —
        both generators are same-processor pairs, so the test is sound even
        for own-view-only orderings.
        """
        writes = [op for op in history.operations if op.is_write]
        rel: Relation[Operation] = Relation(writes)
        for proc in history.procs:
            own = [op for op in history.ops_of(proc) if op.is_write]
            for i, a in enumerate(own):
                for b in own[i + 1:]:
                    same_loc = a.location == b.location
                    if (same_loc or self.total_writes) and ordering.orders(a, b):
                        rel.add(a, b)
        for read_op, src in rf.items():
            if src is None:
                continue
            for later in history.ops_of(read_op.proc)[read_op.index + 1:]:
                if (
                    later.is_write
                    and later.location == read_op.location
                    and later.uid != src.uid
                    and ordering.orders(read_op, later)
                ):
                    rel.add(src, later)
        return rel

    def _view_cycle(
        self,
        history: SystemHistory,
        rf: ReadsFrom,
        ordering: Relation[Operation],
        forced_closed: Relation[Operation] | None,
    ) -> Counterexample | None:
        """A cycle in some per-view constraint graph, or ``None``.

        Each graph combines, over the view's members: the ordering
        (restricted to own operations for own-view-only specs), legality
        edges of the fixed attribution (source before its read; an
        initial-value read before every same-location write), bracketing
        edges, and — when a forced write order exists — from-read edges
        (a read precedes every write forced after its source).
        """
        spec = self.spec
        ord_pairs = list(ordering.pairs())
        writes_by_loc: dict[str, list[Operation]] = {}
        for op in history.operations:
            if op.is_write:
                writes_by_loc.setdefault(op.location, []).append(op)
        brack = bracketing_edges(history, rf) if spec.bracketing else None
        own_only = spec.ordering_own_view_only

        if self.identical:
            probes: list[tuple[object, list[Operation]]] = [
                (None, list(history.operations))
            ]
        else:
            probes = [
                (proc, list(spec.operation_set.view_contents(history, proc)))
                for proc in history.procs
            ]
        for proc, members in probes:
            member_set = set(members)
            rel: Relation[Operation] = Relation(members)
            for a, b in ord_pairs:
                if a not in member_set or b not in member_set:
                    continue
                if own_only and proc is not None and (a.proc != proc or b.proc != proc):
                    continue
                rel.add(a, b)
            loc_writes = {
                loc: [w for w in ws if w in member_set]
                for loc, ws in writes_by_loc.items()
            }
            for r in members:
                if not r.is_read:
                    continue
                src = rf.get(r)
                same_loc = loc_writes.get(r.location, [])
                if src is None:
                    for w in same_loc:
                        if w.uid != r.uid:
                            rel.add(r, w)
                    continue
                if src in member_set:
                    rel.add(src, r)
                if forced_closed is not None:
                    for w in same_loc:
                        if (
                            w.uid != src.uid
                            and w.uid != r.uid
                            and forced_closed.orders(src, w)
                        ):
                            rel.add(r, w)
            if brack is not None:
                for a, b in brack.pairs():
                    if a in member_set and b in member_set:
                        rel.add(a, b)
            cycle = rel.find_cycle()
            if cycle is not None:
                who = "the common view" if proc is None else f"processor {proc!r}"
                detail = (
                    f"the static constraint graph for {who} is cyclic "
                    f"(cycle of {len(cycle) - 1} operations)"
                )
                return Counterexample(
                    spec.name,
                    "cyclic-constraints",
                    detail,
                    proc=proc,
                    cycle=tuple(cycle),
                )
        return None


@lru_cache(maxsize=128)
def compile_prepass(spec: MemoryModelSpec) -> HistoryPrepass:
    """The compiled pre-pass of ``spec`` (cached: specs are few, reuse is hot)."""
    return HistoryPrepass(spec)


def prepass_check(spec: MemoryModelSpec, history: SystemHistory) -> PrepassVerdict:
    """Run the compiled pre-pass of ``spec`` against ``history``."""
    return compile_prepass(spec).check(history)
