"""Strength spectrum: where a single history sits in the model lattice.

Given one history, :func:`strength_frontier` computes the *strongest*
models that allow it — the maximal elements of the set of accepting
models under the known strictly-stronger-than relation.  This is the
question a memory-system debugger actually asks about a suspicious trace:
"what is the strongest consistency this execution is compatible with?"

The comparison relation is the measured lattice of the Figure 5 models
plus the extension models (see ``benchmarks/bench_fig5_lattice.py`` and
``bench_new_memories.py``); it is encoded statically here and asserted
against the classifiers in the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.checking import check
from repro.core.history import SystemHistory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine uses checking)
    from repro.engine.pool import CheckEngine

__all__ = ["KNOWN_EDGES", "SPECTRUM_MODELS", "accepting_models", "strength_frontier"]

#: Models ordered into the spectrum (strongest-ish first, display order).
SPECTRUM_MODELS: tuple[str, ...] = (
    "SC",
    "TSO",
    "CoherentCausal",
    "PC",
    "PC-G",
    "Causal",
    "Coherence",
    "PRAM",
    "Slow",
)

#: (stronger, weaker) pairs — the transitive reduction is not required;
#: containment is what matters for maximality.
KNOWN_EDGES: frozenset[tuple[str, str]] = frozenset(
    {
        ("SC", "TSO"),
        ("SC", "CoherentCausal"),
        ("TSO", "PC"),
        # NOTE: no ("TSO", "PC-G") edge — Goodman PC keeps the full
        # program order that TSO's ppo relaxes, so TSO ⊄ PC-G (the
        # catalog's pcd-not-pcg history is TSO-allowed, PC-G-rejected).
        ("TSO", "Causal"),
        ("CoherentCausal", "Causal"),
        ("CoherentCausal", "PC-G"),
        ("CoherentCausal", "Coherence"),
        ("PC", "Coherence"),
        ("PC", "PRAM"),
        ("PC-G", "Coherence"),
        ("PC-G", "PRAM"),
        ("Causal", "PRAM"),
        ("PRAM", "Slow"),
        ("Coherence", "Slow"),
        # transitive consequences, listed so maximality needs no closure
        ("SC", "PC"),
        ("SC", "PC-G"),
        ("SC", "Causal"),
        ("SC", "Coherence"),
        ("SC", "PRAM"),
        ("SC", "Slow"),
        ("TSO", "Coherence"),
        ("TSO", "PRAM"),
        ("TSO", "Slow"),
        ("CoherentCausal", "PRAM"),
        ("CoherentCausal", "Slow"),
        ("PC", "Slow"),
        ("PC-G", "Slow"),
        ("Causal", "Slow"),
    }
)


def accepting_models(
    history: SystemHistory, engine: "CheckEngine | None" = None
) -> set[str]:
    """The spectrum models that allow the history.

    With an ``engine``, the verdicts come from its
    :meth:`~repro.engine.CheckEngine.classify`; the results are identical
    either way.
    """
    if engine is not None:
        verdicts = engine.classify(history, SPECTRUM_MODELS)
        return {m for m in SPECTRUM_MODELS if verdicts[m]}
    return {m for m in SPECTRUM_MODELS if check(history, m).allowed}


def strength_frontier(
    history: SystemHistory, engine: "CheckEngine | None" = None
) -> tuple[str, ...]:
    """The strongest models allowing the history (maximal accepting set).

    A model is on the frontier when it accepts the history and no known
    strictly-stronger model does.  Returned in :data:`SPECTRUM_MODELS`
    display order; empty iff no model accepts (e.g. a read of a value
    never written).  ``engine`` is forwarded to :func:`accepting_models`.
    """
    accepted = accepting_models(history, engine=engine)
    frontier = [
        m
        for m in SPECTRUM_MODELS
        if m in accepted
        and not any(
            (stronger, m) in KNOWN_EDGES and stronger in accepted
            for stronger in SPECTRUM_MODELS
        )
    ]
    return tuple(frontier)
