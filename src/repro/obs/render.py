"""Render a recorded trace as a human-readable search narration.

The renderer turns the event stream of one ``check_with_spec`` call into
the story of the decision: which reads-from attribution was fixed,
which candidate serializations were proposed, how each view search
placed and retracted operations, and the final verdict.

Two output modes share one structure: plain ASCII (the default of
``python -m repro trace``) and markdown (``--markdown``), where the same
narration gets headings and code fences — the form embedded in
``docs/obs.md`` by the docs generator, so the documentation's worked
examples are literally this renderer's output.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.events import (
    AttributionTried,
    Backtracked,
    CandidateTried,
    CheckStarted,
    LabeledExtraTried,
    NodeEntered,
    PhaseMark,
    PrepassRule,
    PropagationApplied,
    TraceEvent,
    VerdictReached,
    ViewSearch,
    ViewSolved,
    ViewStuck,
)

__all__ = ["render_trace"]

#: Default cap on rendered search-step lines (placements + backtracks).
DEFAULT_MAX_STEPS = 400


def render_trace(
    events: Iterable[TraceEvent],
    *,
    markdown: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> str:
    """The narration of one check's event stream.

    Parameters
    ----------
    events:
        The events one ``check_with_spec`` call emitted, in order.
    markdown:
        Emit markdown (headings, code fences) instead of plain ASCII.
    max_steps:
        Cap on rendered search steps (node placements and backtracks);
        further steps are elided with a count so deep searches stay
        readable.
    """
    r = _Renderer(markdown=markdown, max_steps=max_steps)
    for event in events:
        r.feed(event)
    return r.finish()


class _Renderer:
    def __init__(self, *, markdown: bool, max_steps: int) -> None:
        self.md = markdown
        self.max_steps = max_steps
        self.lines: list[str] = []
        self.steps = 0
        self.elided = 0
        self._in_search_block = False

    # -- structure helpers -------------------------------------------------------

    def head(self, text: str) -> None:
        self._close_block()
        if self.md:
            self.lines += [f"### {text}", ""]
        else:
            self.lines += [text, "-" * len(text)]

    def line(self, text: str, indent: int = 0) -> None:
        self._close_block()
        prefix = "  " * indent
        self.lines.append(f"{prefix}- {text}" if self.md else f"{prefix}{text}")

    def step_line(self, text: str, indent: int = 0) -> None:
        """A search step: rendered inside a code fence in markdown mode."""
        if self.steps >= self.max_steps:
            self.elided += 1
            return
        self.steps += 1
        if self.md and not self._in_search_block:
            self.lines += ["", "```text"]
            self._in_search_block = True
        self.lines.append("  " * indent + text)

    def _close_block(self) -> None:
        if self._in_search_block:
            self.lines += ["```", ""]
            self._in_search_block = False

    # -- event dispatch ----------------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        if isinstance(event, CheckStarted):
            title = (
                f"Tracing {event.model}: {event.operations} operations, "
                f"{event.processors} processor(s)"
            )
            if self.md:
                self.lines += [f"## {title}", ""]
            else:
                self.lines += [title, "=" * len(title)]
        elif isinstance(event, PhaseMark):
            if event.mark == "start" and event.phase == "search":
                self.head("Search")
        elif isinstance(event, PrepassRule):
            outcome = {
                "deny": f"DENY — {event.detail}" if event.detail else "DENY",
                "pass": "passed (no contradiction found)",
                "abstain": "abstained (ambiguous reads-from attribution)",
            }.get(event.outcome, event.outcome)
            self.line(f"rule {event.rule}: {outcome}")
        elif isinstance(event, AttributionTried):
            tag = "the unique attribution" if event.unique else f"attribution #{event.index}"
            self.line(f"reads-from: {tag}")
            for read, src in event.assignment:
                self.line(f"{read} <- {src or '(initial value)'}", indent=1)
        elif isinstance(event, CandidateTried):
            self.line(f"mutual-consistency candidate #{event.index}")
            for chain in event.chains:
                self.line("agreed order: " + " < ".join(chain), indent=1)
        elif isinstance(event, LabeledExtraTried):
            self.line(f"labeled serialization #{event.index}")
            if event.order:
                self.line(" < ".join(event.order), indent=1)
        elif isinstance(event, PropagationApplied):
            self.line(f"unit propagation installed {event.edges} forced edge(s)")
        elif isinstance(event, ViewSearch):
            who = "the common view" if event.proc == "*" else f"view of {event.proc}"
            self.line(f"searching {who} ({event.operations} operation(s))")
        elif isinstance(event, NodeEntered):
            self.step_line(f"place {event.op}", indent=event.depth + 1)
        elif isinstance(event, Backtracked):
            self.step_line(f"undo  {event.op}", indent=event.depth + 1)
        elif isinstance(event, ViewSolved):
            self._close_block()
            who = "common view" if event.proc == "*" else f"view of {event.proc}"
            self.line(f"{who} solved: " + " ".join(event.order))
        elif isinstance(event, ViewStuck):
            self._close_block()
            who = "common view" if event.proc == "*" else f"view of {event.proc}"
            why = (
                "the constraint masks are cyclic"
                if event.reason == "constraint-cycle"
                else "no legal placement remains"
            )
            self.line(f"{who} stuck: {why}")
        elif isinstance(event, VerdictReached):
            self._close_block()
            if self.elided:
                self.line(f"(... {self.elided} further search step(s) elided)")
                self.elided = 0
            verdict = "allowed" if event.allowed else "NOT allowed"
            text = f"Verdict: {event.model} {verdict}"
            if event.explored:
                text += f" after {event.explored} candidate serialization(s)"
            if event.reason and not event.allowed:
                text += f" — {event.reason}"
            if self.md:
                self.lines += ["", f"**{text}**"]
            else:
                self.lines += ["", text]

    def finish(self) -> str:
        self._close_block()
        if self.elided:
            self.line(f"(... {self.elided} further search step(s) elided)")
        return "\n".join(self.lines).rstrip() + "\n"


def render_views_block(views: Sequence[str], *, markdown: bool = False) -> str:
    """Witness views as a block matching the narration's mode."""
    if markdown:
        return "\n".join(["```text", *views, "```"])
    return "\n".join(views)
