"""Trace sinks: where instrumented layers send their events.

The protocol is one method — :meth:`TraceSink.emit` — and the contract
that matters is *what happens when nobody listens*: tracing is opt-in,
the default is no sink at all (``active_sink()`` returns ``None``), and
the instrumented hot paths test that single reference before building
any event.  ``benchmarks/bench_obs.py`` holds the disabled path to <3%
overhead over the un-gated kernel.

Sinks:

* :class:`NullSink` — accepts and discards everything; the explicit
  no-op for call sites that want a sink object unconditionally.
* :class:`RecordingSink` — keeps the events (optionally capped) for
  rendering or serialization; what ``python -m repro trace`` uses.
* :class:`CountingSink` — per-kind counters only, O(1) memory; the
  cheap profiling mode.
* :class:`TimingSink` — a counting sink that also pairs
  :class:`~repro.obs.events.PhaseMark` events into per-phase wall
  times; what ``python -m repro profile`` uses.

A sink is installed for a region of code with :func:`tracing`::

    with tracing(RecordingSink()) as sink:
        check_with_spec(spec, history)
    print(render_trace(sink.events))

Installation is process-global (the kernel is single-threaded per
check); nesting saves and restores the previous sink.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.events import (
    PhaseMark,
    PrefixReuse,
    PrepassRule,
    SessionAppend,
    TraceEvent,
)

__all__ = [
    "TraceSink",
    "NullSink",
    "RecordingSink",
    "CountingSink",
    "SessionStatsSink",
    "TimingSink",
    "active_sink",
    "tracing",
]


class TraceSink:
    """Base sink: receives every event of the checks run while installed."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NullSink(TraceSink):
    """Discards everything (the explicit form of "tracing disabled")."""

    def emit(self, event: TraceEvent) -> None:
        pass


class RecordingSink(TraceSink):
    """Keeps the event stream in order, optionally capped.

    Parameters
    ----------
    limit:
        Maximum events retained; further events are counted in
        :attr:`dropped` but not stored, so tracing a pathological search
        cannot exhaust memory.  ``None`` means unbounded.
    """

    def __init__(self, limit: int | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.limit = limit
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """The recorded events with the given ``kind`` tag, in order."""
        return [e for e in self.events if type(e).kind == kind]


class CountingSink(TraceSink):
    """Counts events per kind and remembers nothing else."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def emit(self, event: TraceEvent) -> None:
        kind = type(event).kind
        self.counts[kind] = self.counts.get(kind, 0) + 1


class SessionStatsSink(CountingSink):
    """A counting sink that also totals the incremental-session payloads.

    :class:`~repro.obs.events.SessionAppend` and
    :class:`~repro.obs.events.PrefixReuse` events carry per-append
    figures (did the plane grow in place, how many prefix failures the
    resumed search replayed); this sink sums them, so a traced run —
    a benchmark's reuse-rate report, say — reads totals
    instead of replaying an event stream.  Sessions also count
    themselves (:meth:`repro.engine.session.EngineSession.counters`), so
    a total that needs no sink should read those.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Operations accepted by incremental sessions while installed.
        self.appends = 0
        #: Appends whose compiled plane grew in place (vs full recompile).
        self.planes_grown = 0
        #: Candidate serializations replayed from prefix failure memory.
        self.reuse_hits = 0
        #: Candidate serializations searched fresh under an active memory.
        self.reuse_misses = 0
        #: Session checks that ran as full one-shot searches (no memory).
        self.fallbacks = 0
        #: Static pre-pass rule outcomes while installed, keyed
        #: ``{"deny": n, "pass": n, "abstain": n}``.
        self.prepass_outcomes: dict[str, int] = {}

    def emit(self, event: TraceEvent) -> None:
        super().emit(event)
        if isinstance(event, SessionAppend):
            self.appends += 1
            if event.reused:
                self.planes_grown += 1
        elif isinstance(event, PrefixReuse):
            if event.fallback:
                self.fallbacks += 1
            else:
                self.reuse_hits += event.hits
                self.reuse_misses += event.misses
        elif isinstance(event, PrepassRule):
            self.prepass_outcomes[event.outcome] = (
                self.prepass_outcomes.get(event.outcome, 0) + 1
            )

    def session_counters(self) -> dict[str, int]:
        """The session totals as a plain dictionary."""
        return {
            "appends": self.appends,
            "planes_grown": self.planes_grown,
            "reuse_hits": self.reuse_hits,
            "reuse_misses": self.reuse_misses,
            "fallbacks": self.fallbacks,
        }


class TimingSink(CountingSink):
    """Counts events and pairs phase marks into per-phase wall times.

    ``phase_seconds`` maps phase names to accumulated seconds across
    every start/end pair seen while installed; an unmatched start (a
    check that raised mid-phase) contributes nothing.
    """

    def __init__(self) -> None:
        super().__init__()
        self.phase_seconds: dict[str, float] = {}
        self._open: dict[str, float] = {}

    def emit(self, event: TraceEvent) -> None:
        super().emit(event)
        if isinstance(event, PhaseMark):
            if event.mark == "start":
                self._open[event.phase] = time.perf_counter()
            elif event.mark == "end" and event.phase in self._open:
                t0 = self._open.pop(event.phase)
                elapsed = time.perf_counter() - t0
                self.phase_seconds[event.phase] = (
                    self.phase_seconds.get(event.phase, 0.0) + elapsed
                )


#: The installed sink; ``None`` — the default — is the zero-cost off state.
_ACTIVE: TraceSink | None = None


def active_sink() -> TraceSink | None:
    """The currently installed sink, or ``None`` when tracing is off.

    Instrumented code fetches this once per check and skips every event
    construction when it is ``None``; per-event code never runs on the
    disabled path.
    """
    return _ACTIVE


@contextmanager
def tracing(sink: TraceSink) -> Iterator[TraceSink]:
    """Install ``sink`` for the duration of the ``with`` block.

    Yields the sink (so ``with tracing(RecordingSink()) as sink:`` reads
    naturally) and restores whatever was installed before — including
    ``None`` — on exit, even on exceptions.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink
    try:
        yield sink
    finally:
        _ACTIVE = previous
