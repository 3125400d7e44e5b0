"""Column-per-processor timeline rendering of histories and runs.

The paper's figures lay each processor's operations out left-to-right on
its own row; for *runs* (where a global issue order exists) a vertical
timeline with one column per processor is the conventional rendering.
:func:`render_timeline` produces the latter from any
:class:`~repro.core.history.SystemHistory` plus an optional issue order,
and :func:`render_run` renders a :class:`~repro.programs.runner.RunResult`
with critical-section spans marked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.history import SystemHistory
from repro.core.operation import Operation

if TYPE_CHECKING:
    from repro.programs.runner import RunResult

__all__ = ["render_timeline", "render_run"]


def _cell(op: Operation) -> str:
    star = "*" if op.labeled else ""
    if op.kind.value == "u":
        return f"u{star}({op.location}){op.read_value}->{op.value}"
    return f"{op.kind.value}{star}({op.location}){op.value}"


def render_timeline(
    history: SystemHistory,
    order: Sequence[Operation] | None = None,
) -> str:
    """One column per processor, one row per operation, in ``order``.

    ``order`` defaults to an interleaving by operation index (round-robin
    across processors), which is only a display order; pass a machine's
    issue order or a witness view for a semantically meaningful timeline.
    """
    if order is None:
        by_round: list[Operation] = []
        depth = max((len(history.ops_of(p)) for p in history.procs), default=0)
        for i in range(depth):
            for proc in history.procs:
                ops = history.ops_of(proc)
                if i < len(ops):
                    by_round.append(ops[i])
        order = by_round
    procs = list(history.procs)
    width = max(
        [len(_cell(op)) for op in history.operations] + [len(str(p)) for p in procs]
    ) + 2
    lines = ["".join(str(p).center(width) for p in procs)]
    lines.append("".join("-" * (width - 1) + " " for _ in procs))
    for op in order:
        col = procs.index(op.proc)
        row = [" " * width] * len(procs)
        row[col] = _cell(op).center(width)
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def render_run(result: RunResult) -> str:
    """Timeline of a program run with ``[CS enter]``/``[CS exit]`` marks.

    Operations appear in recording order per processor (the per-processor
    order is exact; cross-processor vertical alignment is approximate
    since the runner does not timestamp operations globally).
    """
    history = result.history
    lines = [render_timeline(history)]
    if result.cs_events:
        lines.append("")
        lines.append("critical-section events (step, processor, kind):")
        for step, proc, kind in result.cs_events:
            lines.append(f"  step {step:4d}  {proc}  {kind}")
        lines.append(f"peak occupancy: {result.max_in_cs}")
        if result.mutex_violation:
            lines.append("MUTUAL EXCLUSION VIOLATED")
    return "\n".join(lines)
