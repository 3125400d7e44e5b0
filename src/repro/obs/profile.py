"""Per-check profiles and their aggregation into timing tables.

A :class:`CheckProfile` is the observability record of *one* check: how
long each kernel phase took (``compile``, ``search``) and how often each
search event fired (attributions, candidates, nodes, backtracks, …).
:func:`profile_check` produces one by running ``check_with_spec`` under
a :class:`~repro.obs.sink.TimingSink`.

A :class:`ProfileAggregate` folds many profiles into per-model tables —
the engine merges the phase component into
:class:`~repro.engine.metrics.EngineMetrics` (surfaced in every sweep
summary), and ``python -m repro profile`` renders the full table over
the litmus catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.sink import TimingSink, tracing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.history import SystemHistory
    from repro.kernel.results import CheckResult

__all__ = ["CheckProfile", "ProfileAggregate", "profile_check", "PHASES"]

#: The kernel phases a check is divided into, in execution order.
PHASES: tuple[str, ...] = ("compile", "search")


@dataclass
class CheckProfile:
    """Timing and counters of one check of one history under one model.

    Attributes
    ----------
    model:
        The model checked.
    allowed:
        The verdict (profiling never changes it).
    explored:
        Candidate serializations examined (the kernel's effort figure).
    phase_seconds:
        Wall time per kernel phase (see :data:`PHASES`); a phase that
        never ran (the search, after an impossible read) is absent.
    counters:
        Event counts per kind tag (``"node"``, ``"backtrack"``,
        ``"attribution"``, ``"candidate"``, …).
    """

    model: str
    allowed: bool = False
    explored: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Wall time summed over the recorded phases."""
        return sum(self.phase_seconds.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (what the result store's summary embeds)."""
        return {
            "model": self.model,
            "allowed": self.allowed,
            "explored": self.explored,
            "phase_seconds": {
                p: round(s, 6) for p, s in sorted(self.phase_seconds.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def profile_check(
    spec: Any,
    history: "SystemHistory",
) -> tuple["CheckResult", CheckProfile]:
    """Run ``check_with_spec`` under a timing sink; the result plus profile.

    The verdict, witness and ``explored`` count are exactly what an
    unprofiled call returns — profiling only observes.
    """
    # Imported here, not at module top: the kernel imports repro.obs.sink,
    # so a top-level kernel import would be circular.
    from repro.kernel.search import check_with_spec

    sink = TimingSink()
    with tracing(sink):
        result = check_with_spec(spec, history)
    profile = CheckProfile(
        model=spec.name,
        allowed=result.allowed,
        explored=result.explored,
        phase_seconds=dict(sink.phase_seconds),
        counters=dict(sink.counts),
    )
    return result, profile


@dataclass
class ProfileAggregate:
    """Many check profiles folded into per-model totals.

    The shape ``python -m repro profile`` renders: for each model, the
    number of checks, total/per-phase wall time, and the summed search
    counters.
    """

    checks: dict[str, int] = field(default_factory=dict)
    allowed: dict[str, int] = field(default_factory=dict)
    explored: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, dict[str, float]] = field(default_factory=dict)
    counters: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, profile: CheckProfile) -> None:
        """Fold one check's profile into the per-model totals."""
        m = profile.model
        self.checks[m] = self.checks.get(m, 0) + 1
        self.allowed[m] = self.allowed.get(m, 0) + (1 if profile.allowed else 0)
        self.explored[m] = self.explored.get(m, 0) + profile.explored
        phases = self.phase_seconds.setdefault(m, {})
        for phase, seconds in profile.phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        counts = self.counters.setdefault(m, {})
        for kind, n in profile.counters.items():
            counts[kind] = counts.get(kind, 0) + n

    def models(self) -> list[str]:
        """The profiled models, slowest total time first."""
        return sorted(
            self.checks,
            key=lambda m: -sum(self.phase_seconds.get(m, {}).values()),
        )

    def render(self, *, markdown: bool = False) -> str:
        """The per-phase timing table, ASCII by default, markdown on request."""
        phases = list(PHASES)
        header = ["model", "checks", "allowed", "explored", *phases, "total"]
        rows: list[list[str]] = []
        for m in self.models():
            per_phase = self.phase_seconds.get(m, {})
            total = sum(per_phase.values())
            rows.append(
                [
                    m,
                    str(self.checks[m]),
                    str(self.allowed.get(m, 0)),
                    str(self.explored.get(m, 0)),
                    *(f"{per_phase.get(p, 0.0) * 1000:.2f}ms" for p in phases),
                    f"{total * 1000:.2f}ms",
                ]
            )
        if not rows:
            return "(no checks profiled)"
        return _table(header, rows, markdown=markdown)

    def render_counters(self, *, markdown: bool = False) -> str:
        """The summed search-counter table (nodes, backtracks, …)."""
        kinds = sorted({k for counts in self.counters.values() for k in counts})
        if not kinds:
            return "(no counters recorded)"
        header = ["model", *kinds]
        rows = [
            [m, *(str(self.counters.get(m, {}).get(k, 0)) for k in kinds)]
            for m in self.models()
        ]
        return _table(header, rows, markdown=markdown)


def _table(header: Sequence[str], rows: Sequence[Sequence[str]], *, markdown: bool) -> str:
    """Render a column-aligned ASCII or markdown table."""
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    if markdown:
        lines = [
            "| " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        for row in rows:
            lines.append(
                "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
            )
        return "\n".join(lines)
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
