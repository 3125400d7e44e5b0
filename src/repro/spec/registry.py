"""The named memory models of the paper, as specifications (Section 3).

Each entry instantiates :class:`~repro.spec.model_spec.MemoryModelSpec`
with the parameter choices the paper gives for that memory, plus two
"new" memories obtained by recombining parameters as Section 7 suggests.
"""

from __future__ import annotations

import difflib

from repro.core.errors import SpecError
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.parameters import (
    CAUSAL,
    LabeledDiscipline,
    MutualConsistency,
    OperationSet,
    PO,
    PO_LOC,
    PO_SYNC,
    PPO,
    SEMI_CAUSAL,
    SESSION_COMPONENTS,
    partition_rule,
    session_rule,
)

__all__ = [
    "SC_SPEC",
    "TSO_SPEC",
    "PC_SPEC",
    "PRAM_SPEC",
    "CAUSAL_SPEC",
    "COHERENCE_SPEC",
    "RC_SC_SPEC",
    "RC_PC_SPEC",
    "HYBRID_SPEC",
    "SLOW_SPEC",
    "COHERENT_CAUSAL_SPEC",
    "PC_G_SPEC",
    "RYW_SPEC",
    "MR_SPEC",
    "MW_SPEC",
    "WFR_SPEC",
    "SESSION_CAUSAL_SPEC",
    "PARTITION2_SPEC",
    "PARTITION3_SPEC",
    "ALL_SPECS",
    "get_spec",
    "spec_names",
    "suggest_names",
]

SC_SPEC = MemoryModelSpec(
    name="SC",
    operation_set=OperationSet.ALL_REMOTE,
    mutual_consistency=MutualConsistency.IDENTICAL,
    ordering=PO,
    description=(
        "Sequential consistency (Lamport 1979): one legal total order over "
        "all operations, respecting each processor's program order; every "
        "processor view is that common order."
    ),
)

TSO_SPEC = MemoryModelSpec(
    name="TSO",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.TOTAL_WRITE_ORDER,
    ordering=PPO,
    description=(
        "Total store ordering (SPARC; Sindhu et al. 1991): views contain "
        "own operations plus all remote writes, all views order all writes "
        "identically, and the partial program order (write→read bypass "
        "allowed) is respected (paper Section 3.2)."
    ),
)

PC_SPEC = MemoryModelSpec(
    name="PC",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.COHERENCE,
    ordering=SEMI_CAUSAL,
    description=(
        "Processor consistency as defined by Gharachorloo et al. for DASH: "
        "coherence (per-location agreed write order) plus the semi-causality "
        "order (ppo ∪ rwb ∪ rrb)+ within each view (paper Section 3.3)."
    ),
)

PRAM_SPEC = MemoryModelSpec(
    name="PRAM",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=PO,
    description=(
        "Pipelined RAM (Lipton & Sandberg 1988): replicated memories with "
        "reliable FIFO update channels; views respect only program order "
        "and need not agree with each other (paper Section 3.5)."
    ),
)

CAUSAL_SPEC = MemoryModelSpec(
    name="Causal",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=CAUSAL,
    description=(
        "Causal memory (Ahamad et al. 1991): like PRAM but views must "
        "respect the causal order (po ∪ wb)+ (paper Section 3.5)."
    ),
)

COHERENCE_SPEC = MemoryModelSpec(
    name="Coherence",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.COHERENCE,
    ordering=PO_LOC,
    description=(
        "Plain cache coherence (per-location sequential consistency): "
        "per-location agreement on write order, with program order enforced "
        "only between same-location operations — the mutual-consistency "
        "example of Section 2, as a memory in its own right.  Incomparable "
        "with PRAM: coherence allows message-passing staleness that PRAM "
        "forbids, and forbids the per-location disagreement PRAM allows."
    ),
)

RC_SC_SPEC = MemoryModelSpec(
    name="RC_sc",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.COHERENCE,
    ordering=PPO,
    labeled_discipline=LabeledDiscipline.SC,
    bracketing=True,
    ordering_own_view_only=True,
    description=(
        "Release consistency with sequentially consistent labeled "
        "operations (DASH RC_sc): coherence for all writes, ppo locally, "
        "acquire/release bracketing for ordinary operations, and the "
        "labeled subsequences of all views drawn from one SC order "
        "(paper Section 3.4)."
    ),
)

RC_PC_SPEC = MemoryModelSpec(
    name="RC_pc",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.COHERENCE,
    ordering=PPO,
    labeled_discipline=LabeledDiscipline.PC,
    bracketing=True,
    ordering_own_view_only=True,
    description=(
        "Release consistency with processor consistent labeled operations "
        "(DASH RC_pc): as RC_sc but labeled subsequences need only satisfy "
        "PC (paper Section 3.4)."
    ),
)

SLOW_SPEC = MemoryModelSpec(
    name="Slow",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=PO_LOC,
    description=(
        "Slow memory (Hutto & Ahamad 1990, the same group's weakest "
        "proposal): a processor must eventually see another's writes to a "
        "given location in the order they were issued, but locations are "
        "completely independent and there is no mutual consistency — the "
        "bottom of the lattice, strictly below PRAM and below coherence."
    ),
)

HYBRID_SPEC = MemoryModelSpec(
    name="Hybrid",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.LABELED_TOTAL_ORDER,
    ordering=PO_SYNC,
    description=(
        "Hybrid consistency (Attiya & Friedman 1992), the paper's cited "
        "example of distinguishing strong and weak operations: all views "
        "agree on one total order of the strong (labeled) operations, "
        "extending program order; weak operations are ordered only "
        "relative to the same processor's strong operations.  With no "
        "labels it is weaker than PRAM; labeling everything recovers a "
        "strongly ordered memory."
    ),
)

# -- Section 7: new memories by recombining parameters ------------------------

COHERENT_CAUSAL_SPEC = MemoryModelSpec(
    name="CoherentCausal",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.COHERENCE,
    ordering=CAUSAL,
    description=(
        "A new memory suggested by Section 7: causal memory strengthened "
        "with the coherence mutual-consistency requirement."
    ),
)

PC_G_SPEC = MemoryModelSpec(
    name="PC-G",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.COHERENCE,
    ordering=PO,
    description=(
        "A new memory from the same recipe: PRAM strengthened with "
        "coherence (close to Goodman's original processor consistency)."
    ),
)

# -- session guarantees and Partition Consistency (ROADMAP growth path) --------

RYW_SPEC = MemoryModelSpec(
    name="read-your-writes",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=session_rule("ryw"),
    description=(
        "The read-your-writes session guarantee (Terry et al. 1994): every "
        "view orders a processor's writes before its own later reads, so a "
        "session observes its own updates.  No cross-view agreement; the "
        "other program-order pairs are free."
    ),
)

MR_SPEC = MemoryModelSpec(
    name="monotonic-reads",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=session_rule("mr"),
    description=(
        "The monotonic-reads session guarantee (Terry et al. 1994): a "
        "session's reads are ordered by program order in its view, so "
        "later reads observe states at least as new as earlier ones "
        "(no going back in time within a session)."
    ),
)

MW_SPEC = MemoryModelSpec(
    name="monotonic-writes",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=session_rule("mw"),
    description=(
        "The monotonic-writes session guarantee (Terry et al. 1994): every "
        "view orders each session's writes in program order — writes "
        "propagate in issue order, but nothing constrains reads.  On "
        "plain read/write histories this is the weakest registered model."
    ),
)

WFR_SPEC = MemoryModelSpec(
    name="writes-follow-reads",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=session_rule("wfr"),
    description=(
        "The writes-follow-reads session guarantee (Terry et al. 1994): "
        "when a session reads a write and later writes, every view orders "
        "the observed write before the later one — the causality fragment "
        "that makes replies follow the messages they answer."
    ),
)

SESSION_CAUSAL_SPEC = MemoryModelSpec(
    name="session-causal",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.NONE,
    ordering=session_rule(*SESSION_COMPONENTS),
    description=(
        "The meet of all four session guarantees (Steinke & Nutt's "
        "decomposition; Brzezinski et al.'s composition theorem): "
        "read-your-writes ∧ monotonic-reads ∧ monotonic-writes ∧ "
        "writes-follow-reads.  Weaker than causal memory (the read→write "
        "program-order edges of full causality are not enforced) and "
        "strictly between Causal and each single guarantee."
    ),
)

PARTITION2_SPEC = MemoryModelSpec(
    name="partition-2",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.PARTITION,
    ordering=partition_rule(2),
    partition_blocks=2,
    description=(
        "Partition Consistency (Cheng, Higham & Kawash) with two blocks: "
        "locations split round-robin into two groups; views agree on the "
        "write order within each block and respect program order within "
        "each block, with no cross-block constraints — strictly between "
        "SC and plain coherence.  (The one-block instance is expressible "
        "via partition_rule(1) but is observationally equal to SC, so it "
        "is not a separate registry node.)"
    ),
)

PARTITION3_SPEC = MemoryModelSpec(
    name="partition-3",
    operation_set=OperationSet.REMOTE_WRITES,
    mutual_consistency=MutualConsistency.PARTITION,
    ordering=partition_rule(3),
    partition_blocks=3,
    description=(
        "Partition Consistency with three blocks.  Strictly between SC "
        "and coherence, but incomparable with partition-2: the "
        "round-robin block maps of different arity are not refinements "
        "of one another once a history touches four locations."
    ),
)

ALL_SPECS: tuple[MemoryModelSpec, ...] = (
    SC_SPEC,
    TSO_SPEC,
    PC_SPEC,
    PRAM_SPEC,
    CAUSAL_SPEC,
    COHERENCE_SPEC,
    RC_SC_SPEC,
    RC_PC_SPEC,
    PC_G_SPEC,
    COHERENT_CAUSAL_SPEC,
    HYBRID_SPEC,
    SLOW_SPEC,
    RYW_SPEC,
    MR_SPEC,
    MW_SPEC,
    WFR_SPEC,
    SESSION_CAUSAL_SPEC,
    PARTITION2_SPEC,
    PARTITION3_SPEC,
)

_BY_NAME = {spec.name.lower(): spec for spec in ALL_SPECS}


def _initials(name: str) -> str:
    """The initialism of a hyphenated/underscored name (``read-your-writes``
    → ``ryw``); single-word names initialize to their first letter only."""
    parts = [p for p in name.lower().replace("_", "-").split("-") if p]
    return "".join(p[0] for p in parts)


def suggest_names(query: str, limit: int = 3) -> tuple[str, ...]:
    """Registered model names a mistyped ``query`` probably meant.

    Matches initialisms of hyphenated names (``ryw`` →
    ``read-your-writes``), substring containment in either direction, and
    :mod:`difflib` closeness — in registry order, deduplicated, capped at
    ``limit``.
    """
    q = query.lower()
    names = [spec.name for spec in ALL_SPECS]
    hits: list[str] = []
    for name in names:
        ln = name.lower()
        if q == _initials(name) or (len(q) >= 2 and (q in ln or ln in q)):
            hits.append(name)
    by_lower = {name.lower(): name for name in names}
    for close in difflib.get_close_matches(q, list(by_lower), n=limit, cutoff=0.6):
        hits.append(by_lower[close])
    seen: set[str] = set()
    unique = [h for h in hits if not (h in seen or seen.add(h))]
    return tuple(unique[:limit])


def get_spec(name: str) -> MemoryModelSpec:
    """Look a specification up by (case-insensitive) name.

    Raises
    ------
    SpecError
        If no model of that name is registered; the error names near
        misses (``'ryw'`` suggests ``read-your-writes``) plus the full
        registry.
    """
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        known = ", ".join(sorted(s.name for s in ALL_SPECS))
        suggestions = suggest_names(name)
        hint = (
            f" did you mean {' or '.join(suggestions)}?" if suggestions else ""
        )
        raise SpecError(
            f"unknown memory model {name!r};{hint} known: {known}"
        ) from None


def spec_names() -> tuple[str, ...]:
    """Names of all registered model specifications."""
    return tuple(spec.name for spec in ALL_SPECS)
