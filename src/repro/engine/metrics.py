"""Lightweight counters and timers for engine runs.

Workers return plain-dictionary partial metrics (picklable across the
process boundary); the driver merges them into one :class:`EngineMetrics`
and renders the end-of-run summary: histories per second, per-phase and
per-model wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EngineMetrics"]


@dataclass
class EngineMetrics:
    """Counters and timers accumulated over one engine run.

    ``model_seconds`` is worker CPU-side wall time summed per model; with
    several workers it can exceed ``wall_seconds`` (that surplus is the
    parallelism actually achieved).
    """

    histories: int = 0
    checks: int = 0
    skipped: int = 0
    #: Always 0: no engine check runs the static prepass.  Kept because
    #: ``bench/workloads.py`` reads it; the next benchmark change drops the read.
    prepass_decided: int = 0
    #: Always 0: the engine has no relation cache (E23, E28).  Kept, with
    #: :attr:`cache_lookups`, because ``bench/workloads.py`` reads them; the
    #: next benchmark change drops the read.
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    model_seconds: dict[str, float] = field(default_factory=dict)
    #: Wall time per engine phase (only "check", the decision procedure),
    #: summed across workers.  ``bench/workloads.py`` reads it; the next
    #: benchmark change drops the read.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    # -- accumulation ----------------------------------------------------------

    def add_model_time(self, model: str, seconds: float) -> None:
        """Accumulate wall time attributed to one model's checker."""
        self.model_seconds[model] = self.model_seconds.get(model, 0.0) + seconds

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Accumulate wall time attributed to one engine phase."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def merge(self, partial: "EngineMetrics | dict") -> None:
        """Fold a worker's partial metrics (dict or instance) into this one."""
        if isinstance(partial, EngineMetrics):
            partial = partial.to_dict()
        self.histories += partial.get("histories", 0)
        self.checks += partial.get("checks", 0)
        self.skipped += partial.get("skipped", 0)
        self.cache_hits += partial.get("cache_hits", 0)
        self.cache_misses += partial.get("cache_misses", 0)
        for model, seconds in partial.get("model_seconds", {}).items():
            self.add_model_time(model, seconds)
        for phase, seconds in partial.get("phase_seconds", {}).items():
            self.add_phase_time(phase, seconds)

    # -- derived figures --------------------------------------------------------

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def histories_per_second(self) -> float:
        return self.histories / self.wall_seconds if self.wall_seconds > 0 else 0.0

    # -- presentation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible form (recorded in the store's summary line)."""
        return {
            "histories": self.histories,
            "checks": self.checks,
            "skipped": self.skipped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": round(self.wall_seconds, 6),
            "histories_per_second": round(self.histories_per_second, 2),
            "workers": self.workers,
            "model_seconds": {
                m: round(s, 6) for m, s in sorted(self.model_seconds.items())
            },
            "phase_seconds": {
                p: round(s, 6) for p, s in sorted(self.phase_seconds.items())
            },
        }

    def render(self) -> str:
        """The human-readable end-of-run summary."""
        lines = [
            f"histories: {self.histories} checked, {self.skipped} skipped "
            f"(resume); checks: {self.checks}",
            f"wall time: {self.wall_seconds:.3f}s  "
            f"({self.histories_per_second:.1f} histories/sec, "
            f"jobs={self.workers})",
        ]
        if self.phase_seconds:
            parts = ", ".join(
                f"{phase}={seconds:.3f}s"
                for phase, seconds in sorted(self.phase_seconds.items())
            )
            lines.append(f"per-phase time: {parts}")
        if self.model_seconds:
            total = sum(self.model_seconds.values())
            lines.append(f"per-model time (total {total:.3f}s):")
            width = max(len(m) for m in self.model_seconds)
            for model, seconds in sorted(
                self.model_seconds.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"  {model:<{width}s}  {seconds:.3f}s")
        return "\n".join(lines)
