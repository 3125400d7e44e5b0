"""Session-aware incremental checking: one stream, many models.

The kernel's :class:`~repro.kernel.incremental.IncrementalCheck` answers
per-op admit/deny for *one* compiled spec.  The workload the serve layer
and ``python -m repro check --stream`` actually run is a *session*: a
client appends one operation at a time and wants the verdict under a
whole model set after every append.  :class:`EngineSession` is that
coordinator:

* one shared :class:`~repro.kernel.incremental.HistoryStream` — the
  history is appended to (and the compiled plane grown) exactly once per
  operation, not once per model;
* one :class:`~repro.kernel.incremental.IncrementalCheck` per model,
  each keeping its own prefix failure memory and verdict log.  The
  models of one prefix share its compiled substrate through the stream's
  plane, the kernel's one per-history cache.

Sessions are single-threaded by contract — the serve layer serializes
appends per session with a lock.  The kernel's plane cache is a bounded
LRU keyed per history, so interleaved live sessions each keep their own
entry; streams still re-install defensively before every check, so even
a cache blown by unrelated churn only costs a recompile, never
correctness.
"""

from __future__ import annotations

import re

from repro.checking.models import MODELS, resolve_models
from repro.core.errors import CheckerError, EngineError
from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.kernel.incremental import HistoryStream, IncrementalCheck
from repro.kernel.results import CheckResult
from repro.kernel.search import SearchBudget
from repro.litmus.dsl import parse_operations

__all__ = ["EngineSession", "SESSION_COUNTERS", "parse_op_line"]

#: The counters every :class:`~repro.kernel.incremental.IncrementalCheck`
#: keeps and :meth:`EngineSession.counters` sums across models.
SESSION_COUNTERS = (
    "appends",
    "planes_grown",
    "reuse_hits",
    "reuse_misses",
    "fallbacks",
)

_LINE_RE = re.compile(r"^\s*(?P<proc>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*(?P<body>.+)$")


def parse_op_line(line: str) -> tuple[Operation, ...]:
    """Parse one streamed input line, ``proc: op [op ...]``, into operations.

    The per-op wire format of the session endpoints and of
    ``check --stream``: the same row notation the litmus DSL uses, one
    processor per line, one or more operations.  The returned operations
    carry provisional program-order indices starting at 0 — the
    receiving stream re-indexes them onto the processor's real tail.

    Raises
    ------
    EngineError
        When the line has no ``proc:`` prefix or no parseable operation
        (the serve layer maps this to HTTP 400).
    """
    m = _LINE_RE.match(line)
    if m is None:
        raise EngineError(
            f"bad op line {line.strip()!r} (expected 'proc: op [op ...]', "
            "e.g. 'p: w(x)1')"
        )
    try:
        ops = parse_operations(m.group("proc"), m.group("body"))
    except Exception as exc:
        raise EngineError(f"bad op line {line.strip()!r}: {exc}") from exc
    if not ops:
        raise EngineError(f"op line {line.strip()!r} contains no operations")
    return ops


class EngineSession:
    """A growing history checked incrementally under a model set.

    Parameters
    ----------
    models:
        Model names to track; every name must be registered and
        spec-backed (incremental checking drives the kernel, not the
        TSO fast path).  Defaults to the paper's Figure 5 set.
    history:
        Optional seed prefix; its verdict is computed eagerly so the
        first streamed append already has a predecessor to extend.
    budget:
        Forwarded to every check, exactly as ``check_with_spec`` takes
        it — verdict fidelity to the one-shot kernel is per-argument.
    """

    def __init__(
        self,
        models: tuple[str, ...] | None = None,
        *,
        history: SystemHistory | None = None,
        budget: SearchBudget | None = None,
    ) -> None:
        try:
            names = resolve_models(models, spec_only=True)
        except CheckerError as exc:
            raise EngineError(str(exc)) from exc
        self.models = names
        self.stream = HistoryStream(history)
        self.checks: dict[str, IncrementalCheck] = {
            name: IncrementalCheck(
                MODELS[name].spec,  # type: ignore[arg-type]  # validated above
                self.stream,
                budget=budget,
            )
            for name in names
        }
        self.appends = 0
        self.last_results: dict[str, CheckResult] = {
            name: check.check() for name, check in self.checks.items()
        }

    # -- the streaming API -------------------------------------------------------

    def append(self, op: Operation) -> dict[str, CheckResult]:
        """Append one operation; return every model's verdict on the new prefix.

        The stream grows once; each model's session reacts to the shared
        append.  Every returned :class:`CheckResult` is byte-identical to
        a fresh ``check_with_spec`` of the extended history.
        """
        placed, reused = self.stream.append(op)
        self.appends += 1
        results: dict[str, CheckResult] = {}
        for name, check in self.checks.items():
            results[name] = check.on_appended((placed,), reused)
        self.last_results = results
        return results

    def append_line(
        self, line: str
    ) -> list[tuple[Operation, dict[str, CheckResult]]]:
        """Append every operation of one ``proc: op [op ...]`` input line.

        Operations are appended strictly left to right, each producing a
        full per-model verdict map — the return value is the per-op
        verdict log of the line, in order.
        """
        out = []
        for op in parse_op_line(line):
            placed_results = self.append(op)
            # history.operations groups by processor, so the newest op is
            # the tail of *its processor's* program order, not of the list.
            placed = list(self.stream.history.ops_of(op.proc))[-1]
            out.append((placed, placed_results))
        return out

    # -- introspection -----------------------------------------------------------

    @property
    def history(self) -> SystemHistory:
        """The session's current history (seed plus every append)."""
        return self.stream.history

    def counters(self) -> dict[str, int]:
        """Every model's session counters, summed.

        ``appends`` and ``planes_grown`` count one per model per appended
        operation; ``reuse_hits``/``reuse_misses`` count candidate
        serializations answered from / searched past the prefix failure
        memory; ``fallbacks`` counts checks that ran a full search.  The
        totals equal a :class:`~repro.obs.sink.SessionStatsSink`'s over
        the session's life, without installing one.
        """
        return {
            name: sum(getattr(check, name) for check in self.checks.values())
            for name in SESSION_COUNTERS
        }

    def verdicts(self) -> dict[str, bool]:
        """The latest admit/deny verdict per model."""
        return {name: r.allowed for name, r in self.last_results.items()}

    def denying(self) -> tuple[str, ...]:
        """The models currently denying the prefix, in session order."""
        return tuple(
            name for name, r in self.last_results.items() if not r.allowed
        )
