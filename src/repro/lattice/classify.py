"""Classify enumerated histories under every model: the Figure 5 engine.

Runs the registered checkers over a history collection and derives the
containment structure empirically.  Containment (``A ⊆ B``: every history
allowed by A is allowed by B) is checked exhaustively over the collection;
strictness additionally requires a separating witness (a history in
``B \\ A``).  The paper's Figure 5 claims both directions for its five
memories; :data:`FIGURE5_EDGES` records them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.checking.models import check
from repro.core.history import SystemHistory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine uses lattice)
    from repro.engine.pool import CheckEngine

__all__ = [
    "FIGURE5_EDGES",
    "FIGURE5_INCOMPARABLE",
    "ClassificationResult",
    "classify_histories",
    "containment_violations",
    "extended_edges",
    "separating_witnesses",
]

#: (stronger, weaker) pairs asserted by the paper's Figure 5: the stronger
#: memory's history set is strictly contained in the weaker one's.  This
#: is the paper's verdict-locked sub-lattice and never grows; the full
#: registry-derived lattice is :func:`extended_edges`.
FIGURE5_EDGES: tuple[tuple[str, str], ...] = (
    ("SC", "TSO"),
    ("TSO", "PC"),
    ("TSO", "Causal"),
    ("PC", "PRAM"),
    ("Causal", "PRAM"),
)

#: Model pairs Figure 5 shows as incomparable (neither contains the other).
FIGURE5_INCOMPARABLE: tuple[tuple[str, str], ...] = (("PC", "Causal"),)

#: Structural containments among the non-Figure-5 classical models.  Each
#: claim follows from parameter comparison alone: same operation set, the
#: stronger side's mutual-consistency object refines the weaker side's,
#: and its ordering relation contains the weaker side's — so every view
#: assignment the stronger model accepts is accepted by the weaker one.
_CLASSICAL_CLAIMS: tuple[tuple[str, str], ...] = (
    ("SC", "Coherence"),
    ("SC", "CoherentCausal"),
    ("SC", "Hybrid"),
    ("CoherentCausal", "Causal"),
    ("CoherentCausal", "PC-G"),
    ("PC-G", "PRAM"),
    ("PC-G", "Coherence"),
    ("PRAM", "Slow"),
    ("Coherence", "Slow"),
    ("RC_sc", "RC_pc"),
)


def _session_components(spec) -> tuple[str, ...] | None:
    """The session-guarantee components of a spec's ordering, or ``None``."""
    name = spec.ordering.name
    if not name.startswith("session(") or not name.endswith(")"):
        return None
    return tuple(name[len("session(") : -1].split("+"))


def extended_edges(
    models: Sequence[str] | None = None,
) -> tuple[tuple[str, str], ...]:
    """The registry-derived lattice: every claimed (stronger, weaker) pair.

    Starts from :data:`FIGURE5_EDGES` and the classical structural claims,
    then derives the session-guarantee and Partition Consistency family
    edges from the specs actually registered — registering a new
    ``partition-k`` or session meet grows the lattice without touching
    this module:

    * every Partition spec sits strictly between SC and Coherence (the
      one-block instance *is* SC and the per-location instance *is*
      Coherence, so each registered arity refines the one and coarsens
      the other);
    * Causal contains every session meet (causal order contains all four
      session edge kinds), PRAM contains the wfr-free meets (program
      order lacks the cross-processor wfr edges), and a meet contains
      every meet over a subset of its components.

    Distinct partition arities contribute no edge between each other: the
    round-robin block maps of different arity stop being refinements of
    one another on four locations, so the instances are incomparable.

    ``models`` restricts the result to edges with both endpoints in the
    given panel (default: every registered model).  Only claims whose two
    models are registered are ever emitted, so an unregistered name in a
    claim table is inert rather than a crash.
    """
    from repro.checking.models import model_names
    from repro.spec.parameters import MutualConsistency
    from repro.spec.registry import ALL_SPECS

    panel = set(model_names() if models is None else models)
    edges: list[tuple[str, str]] = [
        e for e in FIGURE5_EDGES + _CLASSICAL_CLAIMS if set(e) <= panel
    ]
    sessions = {
        spec.name: set(comps)
        for spec in ALL_SPECS
        if (comps := _session_components(spec)) is not None
    }
    for spec in ALL_SPECS:
        if spec.mutual_consistency is MutualConsistency.PARTITION:
            for edge in (("SC", spec.name), (spec.name, "Coherence")):
                if set(edge) <= panel:
                    edges.append(edge)
    for name, comps in sessions.items():
        claims = [("Causal", name)]
        if "wfr" not in comps:
            claims.append(("PRAM", name))
        for other, other_comps in sessions.items():
            if comps < other_comps:
                claims.append((other, name))
        edges.extend(e for e in claims if set(e) <= panel)
    return tuple(dict.fromkeys(edges))


@dataclass
class ClassificationResult:
    """Verdicts of several models over a history collection.

    Attributes
    ----------
    models:
        The model names consulted, in order.
    histories:
        The classified histories.
    allowed:
        ``allowed[name]`` is the set of history indices the model allows.
    """

    models: tuple[str, ...]
    histories: list[SystemHistory]
    allowed: dict[str, set[int]] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        """Histories allowed per model (the Venn-diagram region sizes)."""
        return {name: len(self.allowed[name]) for name in self.models}

    def contains(self, stronger: str, weaker: str) -> bool:
        """True when every history allowed by ``stronger`` is allowed by ``weaker``."""
        return self.allowed[stronger] <= self.allowed[weaker]

    def strictly_contains(self, stronger: str, weaker: str) -> bool:
        """Containment plus a separating witness inside this collection."""
        return self.contains(stronger, weaker) and bool(
            self.allowed[weaker] - self.allowed[stronger]
        )

    def incomparable(self, a: str, b: str) -> bool:
        """Witnessed incomparability: histories exist in both differences."""
        return bool(self.allowed[a] - self.allowed[b]) and bool(
            self.allowed[b] - self.allowed[a]
        )

    def containment_matrix(self) -> dict[tuple[str, str], bool]:
        """All pairwise ``⊆`` verdicts over the collection."""
        return {
            (a, b): self.contains(a, b)
            for a in self.models
            for b in self.models
            if a != b
        }


def classify_histories(
    histories: Iterable[SystemHistory],
    models: Sequence[str],
    engine: "CheckEngine | None" = None,
) -> ClassificationResult:
    """Run every named model's checker over every history.

    With an ``engine``, the verdicts come from
    :meth:`repro.engine.CheckEngine.map_classify` instead of direct
    :func:`check` calls, parallel when the engine has ``jobs > 1``.  The
    results are identical either way.
    """
    hs = list(histories)
    result = ClassificationResult(tuple(models), hs)
    if engine is not None:
        rows = engine.map_classify(hs, models)
        for name in models:
            result.allowed[name] = {
                i for i, row in enumerate(rows) if row[name]
            }
        return result
    # Serial path: history-major, so every model of one history hits the
    # kernel's plane cache for the substrate the first one compiled.
    for name in models:
        result.allowed[name] = set()
    for i, h in enumerate(hs):
        for name in models:
            if check(h, name).allowed:
                result.allowed[name].add(i)
    return result


def containment_violations(
    result: ClassificationResult,
    edges: Sequence[tuple[str, str]] = FIGURE5_EDGES,
) -> dict[tuple[str, str], list[SystemHistory]]:
    """Histories violating the claimed containments (empty = all hold).

    For each claimed edge ``(stronger, weaker)``, lists the histories the
    stronger model allows but the weaker rejects — each one would be a
    counterexample to the paper's Figure 5.
    """
    out: dict[tuple[str, str], list[SystemHistory]] = {}
    for stronger, weaker in edges:
        bad = result.allowed[stronger] - result.allowed[weaker]
        if bad:
            out[(stronger, weaker)] = [result.histories[i] for i in sorted(bad)]
    return out


def separating_witnesses(
    result: ClassificationResult,
    edges: Sequence[tuple[str, str]] = FIGURE5_EDGES,
) -> dict[tuple[str, str], SystemHistory | None]:
    """One history per edge showing strictness (in weaker, not stronger).

    ``None`` for an edge means this collection contains no witness — the
    benchmark then falls back to the catalog's hand-built separators.
    """
    out: dict[tuple[str, str], SystemHistory | None] = {}
    for stronger, weaker in edges:
        extra = result.allowed[weaker] - result.allowed[stronger]
        out[(stronger, weaker)] = (
            result.histories[min(extra)] if extra else None
        )
    return out
