"""Declarative work descriptions for the batch-checking engine.

A sweep is "check N histories against M models".  :class:`SweepSpec`
describes the workload declaratively — which history source, which models,
which generation parameters — and expands it into a deterministic stream
of :class:`CheckJob` units.  Keys are stable across runs and processes
(catalog names, enumeration indices, generator seeds), which is what makes
the result store resumable: a key present in the store never needs
re-checking.  Keys also embed the full generation shape (procs, ops,
locations, write probability), so a key can never denote two different
histories across specs — resume skips and shared-store daemons depend on
that injectivity.

Three history sources:

``catalog``
    The litmus catalog (:data:`repro.litmus.CATALOG`) — the paper's figures
    plus the classic tests.
``space``
    Exhaustive :class:`~repro.lattice.enumeration.HistorySpace` enumeration,
    one history per canonical class
    (:func:`~repro.lattice.enumeration.canonical_histories`, the Figure 5
    workload).
``random``
    Seeded :func:`~repro.analysis.random_histories.random_history` sampling
    (the fuzzing workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.checking.models import resolve_models
from repro.core.errors import CheckerError, EngineError
from repro.core.history import SystemHistory
from repro.litmus.dsl import LOCATION_RE

__all__ = ["CheckJob", "SweepSpec", "SOURCES"]

#: The recognized history sources.
SOURCES: tuple[str, ...] = ("catalog", "space", "random")


@dataclass(frozen=True)
class CheckJob:
    """One unit of work: decide ``history`` under each model in ``models``.

    ``key`` is the job's stable identity in the result store; two runs of
    the same :class:`SweepSpec` produce the same keys in the same order.
    """

    key: str
    history: SystemHistory
    models: tuple[str, ...]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative (history source × model set) sweep description.

    Attributes
    ----------
    source:
        One of :data:`SOURCES`.
    models:
        Model names to consult, or ``("all",)`` for every registered model.
    procs, ops_per_proc, locations:
        History shape (``space`` and ``random`` sources).
    count, seed, p_write:
        Sample count, generator seed, and write probability (``random``
        source only).
    """

    source: str = "catalog"
    models: tuple[str, ...] = ("all",)
    procs: int = 2
    ops_per_proc: int = 2
    locations: tuple[str, ...] = ("x", "y")
    count: int = 100
    seed: int = 0
    p_write: float = 0.5

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise EngineError(
                f"unknown history source {self.source!r}; known: {', '.join(SOURCES)}"
            )
        if self.procs < 1 or self.ops_per_proc < 1:
            raise EngineError(
                f"degenerate history shape: procs={self.procs}, "
                f"ops_per_proc={self.ops_per_proc}"
            )
        if not self.locations:
            raise EngineError("a sweep needs at least one location")
        for loc in self.locations:
            # Keys separate locations with "," and fields with ":", so a
            # name holding either could make two specs share a key.
            if not (isinstance(loc, str) and LOCATION_RE.fullmatch(loc)):
                raise EngineError(f"bad location name {loc!r}")
        if len(set(self.locations)) != len(self.locations):
            raise EngineError(f"duplicate location names in {self.locations!r}")
        if self.source == "random":
            if self.count < 1:
                raise EngineError(f"random source needs count >= 1, got {self.count}")
            if not 0.0 <= self.p_write <= 1.0:
                raise EngineError(
                    f"p_write must lie in [0, 1], got {self.p_write}"
                )
        self.resolved_models()  # fail fast on unknown model names

    def resolved_models(self) -> tuple[str, ...]:
        """The concrete model set (``("all",)`` expands to the registry)."""
        selector = "all" if self.models == ("all",) else self.models
        try:
            return resolve_models(selector)
        except CheckerError as exc:
            raise EngineError(str(exc)) from exc

    def describe(self) -> dict:
        """A JSON-compatible description (recorded in the store's run header)."""
        d = {"source": self.source, "models": list(self.resolved_models())}
        if self.source in ("space", "random"):
            d.update(
                procs=self.procs,
                ops_per_proc=self.ops_per_proc,
                locations=list(self.locations),
            )
        if self.source == "random":
            d.update(count=self.count, seed=self.seed, p_write=self.p_write)
        return d

    # -- expansion -------------------------------------------------------------

    def _shape_tag(self) -> str:
        """The key segment pinning the generated history shape.

        Embedded in ``space`` and ``random`` keys so keys stay injective
        across specs: without it, ``random:{seed}:{i}`` (say) would name
        different histories under different shapes, and a shared result
        store's resume pass — or any cache keyed by job key — would serve
        one spec's records to another.
        """
        return f"{self.procs}x{self.ops_per_proc}:{','.join(self.locations)}"

    def jobs(self) -> Iterator[CheckJob]:
        """Expand into :class:`CheckJob` units, deterministically ordered."""
        models = self.resolved_models()
        if self.source == "catalog":
            yield from self._catalog_jobs(models)
        elif self.source == "space":
            yield from self._space_jobs(models)
        else:
            yield from self._random_jobs(models)

    def _catalog_jobs(self, models: tuple[str, ...]) -> Iterator[CheckJob]:
        from repro.litmus import CATALOG

        for name, test in CATALOG.items():
            yield CheckJob(f"catalog:{name}", test.history, models)

    def _space_jobs(self, models: tuple[str, ...]) -> Iterator[CheckJob]:
        from repro.lattice.enumeration import HistorySpace, canonical_histories

        space = HistorySpace(
            procs=self.procs,
            ops_per_proc=self.ops_per_proc,
            locations=self.locations,
        )
        prefix = f"space:{self._shape_tag()}"
        for index, history in enumerate(canonical_histories(space)):
            yield CheckJob(f"{prefix}:{index:06d}", history, models)

    def _random_jobs(self, models: tuple[str, ...]) -> Iterator[CheckJob]:
        import numpy as np

        from repro.analysis.random_histories import random_history

        rng = np.random.default_rng(self.seed)
        for i in range(self.count):
            history = random_history(
                rng,
                procs=self.procs,
                ops_per_proc=self.ops_per_proc,
                locations=self.locations,
                p_write=self.p_write,
            )
            yield CheckJob(
                f"random:{self._shape_tag()}:p{self.p_write}:{self.seed}:{i:06d}",
                history,
                models,
            )
