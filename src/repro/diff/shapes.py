"""Stratified history generation for the differential fuzzer.

A :class:`ShapePreset` names one region of history space worth fuzzing —
small-and-dense, wide, deep, single-location contention, impossible-read
noise, or the trace set of one operational machine — and knows how to draw
samples from it.  A fuzz campaign stratifies its budget across several
presets so no single structural regime dominates the corpus.

Structural presets sample :func:`repro.analysis.random_histories.random_history`
directly; ``machine:*`` presets run a random straight-line program on the
named operational machine (:func:`~repro.analysis.random_histories.machine_history`)
so every sample is, by construction, a trace the machine's declarative model
must admit — the operational leg of the oracle panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.random_histories import machine_history, random_history
from repro.core.errors import DiffError
from repro.core.history import SystemHistory
from repro.machines import (
    CausalMachine,
    CoherentMachine,
    MemoryMachine,
    PCMachine,
    PRAMMachine,
    SCMachine,
    TSOMachine,
)

__all__ = [
    "ShapePreset",
    "SHAPE_PRESETS",
    "DEFAULT_SHAPES",
    "resolve_shapes",
]

#: Machine factories for the ``machine:*`` presets, paired with the model
#: every generated trace must satisfy (mirrors
#: :data:`repro.machines.MACHINE_MODEL_PAIRS`; TSO pairs with the axiomatic
#: reference because the operational machine forwards stores).
_MACHINES: dict[str, tuple[Callable[[tuple[str, ...]], MemoryMachine], str]] = {
    "sc": (lambda procs: SCMachine(procs), "SC"),
    "tso": (lambda procs: TSOMachine(procs), "TSO-axiomatic"),
    "pc": (lambda procs: PCMachine(procs), "PC"),
    "pram": (lambda procs: PRAMMachine(procs), "PRAM"),
    "causal": (lambda procs: CausalMachine(procs), "Causal"),
    "coherent": (lambda procs: CoherentMachine(procs), "Coherence"),
}


@dataclass(frozen=True)
class ShapePreset:
    """One stratum of the fuzzer's history space.

    Attributes
    ----------
    name:
        The preset's registry key (and the prefix of corpus keys).
    procs, ops_per_proc, locations, p_write:
        Generation parameters, passed through to the generator.
    values:
        Extra candidate read values with no writer guarantee (the
        impossible-read noise pool); ``None`` keeps every read observable.
    machine:
        ``None`` for structural sampling, or a key of the machine table for
        operational trace generation.
    """

    name: str
    procs: int = 2
    ops_per_proc: int = 3
    locations: tuple[str, ...] = ("x", "y")
    p_write: float = 0.5
    values: tuple[int, ...] | None = None
    machine: str | None = None

    def __post_init__(self) -> None:
        if self.machine is not None and self.machine not in _MACHINES:
            raise DiffError(
                f"shape {self.name!r}: unknown machine {self.machine!r}; "
                f"known: {', '.join(sorted(_MACHINES))}"
            )

    @property
    def machine_model(self) -> str | None:
        """The model every sample of a machine preset must satisfy."""
        if self.machine is None:
            return None
        return _MACHINES[self.machine][1]

    def generate(self, rng: np.random.Generator) -> SystemHistory:
        """Draw one history from this stratum."""
        if self.machine is not None:
            factory, _ = _MACHINES[self.machine]
            machine = factory(tuple(f"p{i}" for i in range(self.procs)))
            return machine_history(
                machine,
                rng,
                ops_per_proc=self.ops_per_proc,
                locations=self.locations,
                p_write=self.p_write,
            )
        return random_history(
            rng,
            procs=self.procs,
            ops_per_proc=self.ops_per_proc,
            locations=self.locations,
            p_write=self.p_write,
            values=self.values,
        )


def _presets(presets: Sequence[ShapePreset]) -> dict[str, ShapePreset]:
    return {p.name: p for p in presets}


#: The named strata.  Sizes stay within the kernel's comfort zone (the
#: checks are exponential in the worst case) while covering the regimes
#: that historically separate checkers: density, width, depth, contention,
#: impossible reads, and operational traces.
SHAPE_PRESETS: dict[str, ShapePreset] = _presets(
    [
        ShapePreset("tiny", procs=2, ops_per_proc=2, locations=("x",)),
        ShapePreset("small", procs=2, ops_per_proc=3),
        ShapePreset("wide", procs=4, ops_per_proc=2, locations=("x", "y", "z")),
        ShapePreset("deep", procs=2, ops_per_proc=5),
        ShapePreset(
            "contended", procs=3, ops_per_proc=3, locations=("x",), p_write=0.7
        ),
        ShapePreset(
            "sparse",
            procs=3,
            ops_per_proc=3,
            locations=("x", "y", "z", "w"),
            p_write=0.3,
        ),
        ShapePreset("noisy", procs=2, ops_per_proc=3, values=(97, 98, 99)),
        # Long per-processor sessions over few locations: the regime where
        # the session guarantees (ryw/mr/mw/wfr) separate from each other
        # and from PRAM/Causal — violations need several same-processor
        # operations in a row.
        ShapePreset("sessions", procs=2, ops_per_proc=4, p_write=0.4),
        # Write-heavy histories over four locations: the round-robin block
        # maps of partition-2 and partition-3 only disagree once a fourth
        # location exists, so this stratum is where the partition arities
        # separate from each other and from Coherence.
        ShapePreset(
            "blocks",
            procs=3,
            ops_per_proc=2,
            locations=("u", "x", "y", "z"),
            p_write=0.6,
        ),
        ShapePreset("machine:sc", machine="sc", procs=2, ops_per_proc=3),
        ShapePreset("machine:tso", machine="tso", procs=2, ops_per_proc=3),
        ShapePreset("machine:pc", machine="pc", procs=2, ops_per_proc=3),
        ShapePreset("machine:pram", machine="pram", procs=2, ops_per_proc=3),
        ShapePreset("machine:causal", machine="causal", procs=2, ops_per_proc=3),
        ShapePreset("machine:coherent", machine="coherent", procs=2, ops_per_proc=3),
    ]
)

#: The default stratification: every structural preset plus the machine
#: strata whose paired model is spec-backed (so every spec-driven oracle
#: applies).
DEFAULT_SHAPES: tuple[str, ...] = (
    "tiny",
    "small",
    "wide",
    "deep",
    "contended",
    "sparse",
    "noisy",
    "sessions",
    "blocks",
    "machine:sc",
    "machine:pram",
    "machine:causal",
)


def resolve_shapes(names: Sequence[str] | str) -> tuple[ShapePreset, ...]:
    """Presets for ``names`` (a sequence or a comma-separated string).

    ``"default"`` (or an empty selection) expands to :data:`DEFAULT_SHAPES`;
    ``"all"`` to every registered preset.
    """
    if isinstance(names, str):
        names = tuple(n for n in names.split(",") if n)
    if not names or tuple(names) == ("default",):
        names = DEFAULT_SHAPES
    elif tuple(names) == ("all",):
        names = tuple(SHAPE_PRESETS)
    unknown = [n for n in names if n not in SHAPE_PRESETS]
    if unknown:
        raise DiffError(
            f"unknown shape preset(s) {', '.join(unknown)}; "
            f"known: {', '.join(SHAPE_PRESETS)}"
        )
    return tuple(SHAPE_PRESETS[n] for n in names)
