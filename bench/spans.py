"""Span recording for the traced benchmark round, and the per-layer split.

Spans come from three places, none of them inside ``src/``:

* the workloads open a span around each call into a layer's public
  function (``CheckEngine.run``, ``SweepSpec.jobs``, ``check``,
  ``EngineSession.append``, one HTTP request);
* :class:`SpanSink`, installed with ``repro.obs.tracing``, turns the
  kernel's ``PhaseMark`` start/end pairs
  (``prepass``/``compile``/``search``) into spans nested under whichever
  bench span is open, and counts every other event it sees;
* :class:`TracedBackend` wraps the active mask backend and opens a
  ``kernel.gate`` span around every batched gate.

A span's self time is its duration minus the time its children cover.
Spans nest strictly (one stack, one thread), so the children of a span
never overlap and their durations simply add up.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Sequence

from repro.kernel.backend import MaskBackend
from repro.obs.events import PhaseMark, PrepassRule, VerdictReached, ViewSolved
from repro.obs.sink import SessionStatsSink

#: Event kinds the sink only counts.
_COUNT_ONLY = frozenset(
    {"node", "backtrack", "candidate", "attribution", "view-search", "propagation"}
)

#: PhaseMark phase -> span name (the layer that phase belongs to).
PHASE_SPANS = {
    "prepass": "staticcheck.prepass",
    "compile": "kernel.compile",
    "search": "kernel.search",
}


class Spans:
    """An in-memory span table: parallel lists, one row per span.

    ``parents[i]`` is the index of the span that was open when span ``i``
    opened (``-1`` for a root); ``ops[i]`` names the operation the span
    belongs to (a model name, a request kind), or ``""``.
    """

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, op: str = "") -> None:
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(op)
        self.ends.append(0.0)
        self._stack.append(len(self.names) - 1)
        self.starts.append(perf_counter())

    def close(self, name: str) -> None:
        """Close the innermost open span called ``name``.

        Spans opened inside it and never closed — a phase whose check
        raised before its end mark — are closed at the same instant, so
        the tree stays well formed.
        """
        now = perf_counter()
        if name not in (self.names[i] for i in self._stack):
            return
        while True:
            idx = self._stack.pop()
            self.ends[idx] = now
            if self.names[idx] == name:
                return

    def add(self, name: str, start: float, end: float, op: str = "") -> None:
        """Record an already finished root span (from other threads' timings)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        self.ops.append(op)

    # -- derived figures ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        child_total = [0.0] * len(out)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_total[parent] += out[i]
        return [d - c for d, c in zip(out, child_total)]

    def total(self, name: str, op: str | None = None) -> float:
        return sum(
            e - s
            for n, o, s, e in zip(self.names, self.ops, self.starts, self.ends)
            if n == name and (op is None or o == op)
        )

    def self_total(self, name: str) -> float:
        return sum(t for n, t in zip(self.names, self.self_times()) if n == name)

    def write(self, path) -> None:
        """Dump the table as JSON: one object per span, times from ``origin``."""
        rows = [
            {
                "name": n,
                "start": round(s - self.origin, 9),
                "end": round(e - self.origin, 9),
                "parent": p,
                "op": o,
            }
            for n, s, e, p, o in zip(
                self.names, self.starts, self.ends, self.parents, self.ops
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh, separators=(",", ":"))


class SpanSink(SessionStatsSink):
    """Counts every kernel event and turns phase marks into spans.

    The per-kind counts, the session counters (appends, planes grown,
    prefix reuse) and the pre-pass rule outcomes come from
    :class:`SessionStatsSink`; this class adds the spans and the sums the
    counters lack.
    """

    def __init__(self, spans: Spans) -> None:
        super().__init__()
        self.spans = spans
        #: Sum of ``explored`` over every verdict the kernel reached.
        self.explored = 0
        #: Legal views found by the view search (not pre-pass narration).
        self.views_solved = 0
        #: Pre-pass checks run: each emits exactly one ``rf-sanity`` rule.
        self.prepass_checks = 0
        self._searching = 0

    def emit(self, event) -> None:
        kind = event.kind
        if kind in _COUNT_ONLY:
            # The per-node and per-candidate events are the bulk of a
            # search's stream; counting them is all any parent sink does.
            self.counts[kind] = self.counts.get(kind, 0) + 1
            return
        super().emit(event)
        if isinstance(event, PhaseMark):
            name = PHASE_SPANS.get(event.phase, "phase." + event.phase)
            if event.mark == "start":
                self.spans.open(name)
                self._searching += event.phase == "search"
            else:
                self.spans.close(name)
                self._searching -= event.phase == "search"
        elif isinstance(event, VerdictReached):
            self.explored += event.explored
        elif isinstance(event, ViewSolved) and self._searching:
            self.views_solved += 1
        elif isinstance(event, PrepassRule) and event.rule == "rf-sanity":
            self.prepass_checks += 1


class TracedBackend(MaskBackend):
    """Delegates to another backend and spans every batched gate."""

    name = "traced"

    def __init__(self, inner: MaskBackend, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.calls = 0
        self.rows = 0
        self.rejected = 0

    def close(self, masks: Sequence[int], n: int) -> list[int]:
        return self.inner.close(masks, n)

    def acyclic(self, masks: Sequence[int], n: int) -> bool:
        return self.inner.acyclic(masks, n)

    def gate_batch(
        self, batch: Sequence[Sequence[int]], n: int
    ) -> list[list[int] | None]:
        self.spans.open("kernel.gate")
        try:
            out = self.inner.gate_batch(batch, n)
        finally:
            self.spans.close("kernel.gate")
        self.calls += 1
        self.rows += len(out)
        self.rejected += sum(1 for closed in out if closed is None)
        return out


def ratio(num: float, den: float) -> tuple[float, float, float]:
    """``(value, numerator, denominator)``; the value is 0 when ``den`` is."""
    return (num / den if den else 0.0), num, den


def kernel_layers(
    spans: Spans,
    sink: SpanSink,
    backend: TracedBackend,
    plane_hits: int,
    plane_lookups: int,
    models: Sequence[str],
) -> dict[str, float | tuple[float, float, float]]:
    """The per-layer metrics every in-process workload derives the same way.

    Ratios are ``(value, numerator, denominator)`` triples.
    """
    counts = sink.counts
    outcomes = sink.prepass_outcomes
    decided = outcomes.get("deny", 0) + outcomes.get("admit", 0)
    out: dict[str, float | tuple[float, float, float]] = {
        "lattice.enumerate_s": spans.total("lattice.enumerate"),
        "staticcheck.rule_runs": float(decided + outcomes.get("pass", 0)),
        "staticcheck.decided_ratio": ratio(decided, sink.prepass_checks),
        "checking.self_s": spans.self_total("checking.check"),
        "kernel.compile_s": spans.total("kernel.compile"),
        "kernel.search_s": spans.total("kernel.search"),
        "kernel.search_self_s": spans.self_total("kernel.search"),
        "kernel.attributions": float(counts.get("attribution", 0)),
        "kernel.candidates": float(counts.get("candidate", 0)),
        "kernel.explored": float(sink.explored),
        "kernel.dfs_nodes": float(counts.get("node", 0)),
        "kernel.backtracks": float(counts.get("backtrack", 0)),
        "kernel.view_searches": float(counts.get("view-search", 0)),
        "kernel.view_solved_ratio": ratio(
            sink.views_solved, counts.get("view-search", 0)
        ),
        "kernel.plane_cache_hit_ratio": ratio(plane_hits, plane_lookups),
        "kernel.gate_s": spans.total("kernel.gate"),
        "kernel.gate_calls": float(backend.calls),
        "kernel.gate_rows": float(backend.rows),
        "kernel.gate_reject_ratio": ratio(backend.rejected, backend.rows),
        "session.append_s": spans.total("session.append"),
        "incremental.planes_grown_ratio": ratio(sink.planes_grown, sink.appends),
        "incremental.reuse_hit_ratio": ratio(
            sink.reuse_hits, sink.reuse_hits + sink.reuse_misses
        ),
        "incremental.fallbacks": float(sink.fallbacks),
    }
    for model in models:
        out[f"model.{model}_s"] = spans.total("checking.check", model)
    return out
