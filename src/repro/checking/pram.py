"""Independent PRAM checker (paper Section 3.5).

PRAM (Lipton & Sandberg): views contain own operations plus remote writes,
there is *no* mutual consistency requirement, and views respect only
program order.  Operationally: replicated memories with reliable FIFO
point-to-point update channels.

Because the only ordering constraint is per-processor program order, a view
for processor ``p`` is exactly a legal *merge* of ``1 + (n-1)`` streams:
``p``'s own operation sequence and each remote processor's write sequence.
This checker searches merges directly with memoization on (per-stream
positions, memory state) — an implementation independent of the generic
solver, used to cross-validate it.
"""

from __future__ import annotations

from typing import Any

from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.core.view import View
from repro.kernel.results import CheckResult

__all__ = ["check_pram"]


def check_pram(history: SystemHistory) -> CheckResult:
    """Decide PRAM membership; views are constructed per processor."""
    views: dict[Any, View] = {}
    for proc in history.procs:
        streams: list[tuple[Operation, ...]] = [history.ops_of(proc)]
        streams.extend(
            tuple(op for op in history.ops_of(q) if op.is_write)
            for q in history.procs
            if q != proc
        )
        merged = _legal_merge(tuple(streams))
        if merged is None:
            return CheckResult(
                "PRAM",
                False,
                reason=f"no legal program-ordered view exists for {proc!r}",
            )
        views[proc] = View(proc, merged, history, validate=False)
    return CheckResult("PRAM", True, views=views, explored=1)


def _legal_merge(
    streams: tuple[tuple[Operation, ...], ...]
) -> list[Operation] | None:
    """A legal interleaving consuming each stream in order, or ``None``."""
    k = len(streams)
    lens = tuple(len(s) for s in streams)
    failed: set[tuple[tuple[int, ...], tuple[tuple[str, int], ...]]] = set()
    out: list[Operation] = []

    def dfs(positions: tuple[int, ...], state: dict[str, int]) -> bool:
        if positions == lens:
            return True
        key = (positions, tuple(sorted(state.items())))
        if key in failed:
            return False
        for i in range(k):
            pos = positions[i]
            if pos >= lens[i]:
                continue
            op = streams[i][pos]
            if op.is_read and state.get(op.location, INITIAL_VALUE) != op.value_read:
                continue
            undo = state.get(op.location)
            if op.is_write:
                state[op.location] = op.value_written
            out.append(op)
            next_positions = positions[:i] + (pos + 1,) + positions[i + 1:]
            if dfs(next_positions, state):
                return True
            out.pop()
            if op.is_write:
                if undo is None:
                    del state[op.location]
                else:
                    state[op.location] = undo
        failed.add(key)
        return False

    if dfs(tuple([0] * k), {}):
        return out
    return None
