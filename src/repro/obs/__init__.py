"""Structured observability: tracing, profiling, and the docs pipeline.

``repro.obs`` is how the framework explains *how* it decided, not just
what: the kernel, the static pre-pass and the sessions emit typed
:mod:`~repro.obs.events` to an opt-in :mod:`~repro.obs.sink`, the
:mod:`~repro.obs.render` module narrates a recorded stream, and
:mod:`~repro.obs.profile` aggregates per-check phase timings.  The
:mod:`~repro.obs.docgen` module turns the same machinery into generated
documentation (CLI reference, worked trace examples) that CI keeps
honest.

Tracing is off by default and free when off: instrumented code checks
``active_sink() is None`` once per check and skips all event
construction (the <3% disabled-overhead bound is asserted by
``benchmarks/bench_obs.py``).  See ``docs/obs.md`` for the guided tour.
"""

from repro.obs.events import (
    EVENT_KINDS,
    AttributionTried,
    Backtracked,
    CandidateTried,
    CheckStarted,
    LabeledExtraTried,
    NodeEntered,
    PhaseMark,
    PrefixReuse,
    PrepassRule,
    PropagationApplied,
    SessionAppend,
    TraceEvent,
    VerdictReached,
    ViewSearch,
    ViewSolved,
    ViewStuck,
    event_from_dict,
    event_to_dict,
)
from repro.obs.profile import PHASES, CheckProfile, ProfileAggregate, profile_check
from repro.obs.render import render_trace
from repro.obs.sink import (
    CountingSink,
    NullSink,
    RecordingSink,
    SessionStatsSink,
    TimingSink,
    TraceSink,
    active_sink,
    tracing,
)

__all__ = [
    "TraceEvent",
    "CheckStarted",
    "PhaseMark",
    "PrepassRule",
    "AttributionTried",
    "CandidateTried",
    "LabeledExtraTried",
    "PropagationApplied",
    "ViewSearch",
    "NodeEntered",
    "Backtracked",
    "ViewSolved",
    "ViewStuck",
    "VerdictReached",
    "SessionAppend",
    "PrefixReuse",
    "EVENT_KINDS",
    "event_to_dict",
    "event_from_dict",
    "TraceSink",
    "NullSink",
    "RecordingSink",
    "CountingSink",
    "SessionStatsSink",
    "TimingSink",
    "active_sink",
    "tracing",
    "CheckProfile",
    "ProfileAggregate",
    "profile_check",
    "PHASES",
    "render_trace",
]
