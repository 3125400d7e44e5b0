"""Typed trace events: what the instrumented layers can tell a sink.

Every event is a small frozen dataclass whose fields are JSON-compatible
primitives (strings, ints, bools, tuples of those), so a recorded trace
serializes losslessly: :func:`event_to_dict` / :func:`event_from_dict`
round-trip every event kind through plain dictionaries, and the round
trip is pinned by ``tests/obs/test_events.py``.

Operations are carried as their rendered text (``str(op)``), not as
:class:`~repro.core.operation.Operation` objects: events are
*observations* of a check, meant to outlive the history object that
produced them (in a JSONL file, a docs page, a terminal).

The emitting layers and what they say:

========================  ====================================================
event                     emitted by
========================  ====================================================
:class:`CheckStarted`     ``check_with_spec`` on entry
:class:`PhaseMark`        ``check_with_spec`` around compile/search
:class:`PrepassRule`      each necessary-condition rule of the static pre-pass
:class:`AttributionTried` layer 1, once per reads-from attribution
:class:`CandidateTried`   layer 2, once per mutual-consistency candidate
:class:`LabeledExtraTried`  layer 2, once per labeled serialization
:class:`PropagationApplied` layer 3, when unit-propagation edges are installed
:class:`ViewSearch`       layer 4, entering one processor's view search
:class:`NodeEntered`      layer 4, one operation placed in a partial view
:class:`Backtracked`      layer 4, that placement undone
:class:`ViewSolved`       layer 4, a legal view found
:class:`ViewStuck`        layer 4, the view search exhausted
:class:`VerdictReached`   ``check_with_spec`` on exit
:class:`SessionAppend`    an incremental session accepted one appended op
:class:`PrefixReuse`      how much prior-prefix work that append reused
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Type

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
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class: every event carries a class-level ``kind`` tag."""

    kind: ClassVar[str] = ""


@dataclass(frozen=True)
class CheckStarted(TraceEvent):
    """A spec-driven check began: which model, how big the history is."""

    kind: ClassVar[str] = "check-started"
    model: str
    operations: int
    processors: int


@dataclass(frozen=True)
class PhaseMark(TraceEvent):
    """A named phase of the check started or ended.

    Phases are ``"compile"`` and ``"search"``; timing
    sinks pair the marks to measure per-phase wall time (the events
    themselves carry no timestamps, so recorded traces stay
    deterministic).
    """

    kind: ClassVar[str] = "phase"
    phase: str
    mark: str  # "start" | "end"


@dataclass(frozen=True)
class PrepassRule(TraceEvent):
    """One necessary-condition rule of the static pre-pass ran.

    ``outcome`` is ``"deny"`` (the rule decided the check), ``"pass"``
    (it ran and found nothing) or ``"abstain"`` (its precondition — an
    unambiguous reads-from attribution — failed, so it never ran).
    """

    kind: ClassVar[str] = "prepass-rule"
    model: str
    rule: str
    outcome: str
    detail: str = ""


@dataclass(frozen=True)
class AttributionTried(TraceEvent):
    """Layer 1 fixed one reads-from attribution (the ``index``-th tried).

    ``assignment`` maps each read (rendered) to its source write
    (rendered), or ``""`` for an initial-value read.  ``unique`` is set
    when the litmus discipline made the attribution the only candidate.
    """

    kind: ClassVar[str] = "attribution"
    index: int
    unique: bool
    assignment: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class CandidateTried(TraceEvent):
    """Layer 2 proposed one mutual-consistency candidate serialization."""

    kind: ClassVar[str] = "candidate"
    index: int
    chains: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class LabeledExtraTried(TraceEvent):
    """Layer 2 proposed one serialization of the labeled operations."""

    kind: ClassVar[str] = "labeled-extra"
    index: int
    order: tuple[str, ...] = ()


@dataclass(frozen=True)
class PropagationApplied(TraceEvent):
    """Unit-propagation edges were installed as predecessor masks."""

    kind: ClassVar[str] = "propagation"
    edges: int


@dataclass(frozen=True)
class ViewSearch(TraceEvent):
    """Layer 4 started searching one processor's view.

    ``proc`` is the processor name, or ``"*"`` for the common view of
    identical-view models (SC).
    """

    kind: ClassVar[str] = "view-search"
    proc: str
    operations: int


@dataclass(frozen=True)
class NodeEntered(TraceEvent):
    """The search placed ``op`` at position ``depth`` of a partial view."""

    kind: ClassVar[str] = "node"
    proc: str
    depth: int
    op: str


@dataclass(frozen=True)
class Backtracked(TraceEvent):
    """The search undid the placement of ``op`` at position ``depth``."""

    kind: ClassVar[str] = "backtrack"
    proc: str
    depth: int
    op: str


@dataclass(frozen=True)
class ViewSolved(TraceEvent):
    """A legal view was found for ``proc``."""

    kind: ClassVar[str] = "view-solved"
    proc: str
    order: tuple[str, ...] = ()


@dataclass(frozen=True)
class ViewStuck(TraceEvent):
    """No legal view exists for ``proc`` under the current candidate.

    ``reason`` is ``"search-exhausted"`` (the backtracking search ran
    dry) or ``"constraint-cycle"`` (the combined predecessor masks were
    cyclic, so no placement was ever attempted).
    """

    kind: ClassVar[str] = "view-stuck"
    proc: str
    reason: str = "search-exhausted"


@dataclass(frozen=True)
class VerdictReached(TraceEvent):
    """The check finished: the final verdict and its effort figure."""

    kind: ClassVar[str] = "verdict"
    model: str
    allowed: bool
    explored: int
    reason: str = ""


@dataclass(frozen=True)
class SessionAppend(TraceEvent):
    """An :class:`~repro.kernel.incremental.IncrementalCheck` session
    accepted one appended operation.

    ``operations`` is the history size *after* the append; ``reused`` is
    whether the session's compiled plane grew in place (the appended
    operation was non-rescuing under a unique reads-from attribution) or
    had to be rebuilt from scratch.
    """

    kind: ClassVar[str] = "session-append"
    model: str
    op: str
    operations: int
    reused: bool


@dataclass(frozen=True)
class PrefixReuse(TraceEvent):
    """How much prior-prefix search work one session append reused.

    ``hits`` counts candidate serializations whose failure was replayed
    from the surviving prefix's failure memory (their view searches were
    skipped); ``misses`` counts candidates searched fresh.  ``fallback``
    is set when the append invalidated the prefix state entirely and the
    check ran as a full one-shot search.
    """

    kind: ClassVar[str] = "prefix-reuse"
    model: str
    hits: int
    misses: int
    fallback: bool = False


#: Every concrete event type, keyed by its ``kind`` tag.
EVENT_KINDS: dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        CheckStarted,
        PhaseMark,
        PrepassRule,
        AttributionTried,
        CandidateTried,
        LabeledExtraTried,
        PropagationApplied,
        ViewSearch,
        NodeEntered,
        Backtracked,
        ViewSolved,
        ViewStuck,
        VerdictReached,
        SessionAppend,
        PrefixReuse,
    )
}


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """The event as a JSON-compatible dict (``kind`` plus its fields).

    Tuples become lists under :func:`json.dumps`; :func:`event_from_dict`
    restores them, so ``from_dict(loads(dumps(to_dict(e)))) == e``.
    """
    return {"kind": type(event).kind, **asdict(event)}


def _restore(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_restore(v) for v in value)
    return value


def event_from_dict(data: dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from :func:`event_to_dict` output.

    Raises
    ------
    ValueError
        If the ``kind`` tag is missing or names no known event type.
    """
    kind = data.get("kind")
    cls = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown trace-event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    kwargs = {k: _restore(v) for k, v in data.items() if k in names}
    return cls(**kwargs)
