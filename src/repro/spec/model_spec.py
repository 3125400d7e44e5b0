"""Memory-model specifications: a named bundle of the three parameters.

A :class:`MemoryModelSpec` is the declarative description of a memory in
the paper's framework.  It does not itself decide anything; the kernel
search (:mod:`repro.kernel.search`) interprets it, and the TSO fast path
in :mod:`repro.checking` is verified against it in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import SpecError
from repro.spec.parameters import (
    LabeledDiscipline,
    MutualConsistency,
    OperationSet,
    OrderingRule,
)

__all__ = ["MemoryModelSpec"]


@dataclass(frozen=True)
class MemoryModelSpec:
    """Declarative description of a memory model.

    Parameters
    ----------
    name:
        Human-readable model name (``"SC"``, ``"TSO"``, …).
    operation_set:
        Which remote operations every view must include (parameter 1).
    mutual_consistency:
        Cross-view agreement requirement (parameter 2).
    ordering:
        The per-view ordering constraint (parameter 3).
    labeled_discipline:
        Only for release consistency: the consistency required of labeled
        operations (``SC`` for ``RC_sc``, ``PC`` for ``RC_pc``); ``None``
        for models without an ordinary/labeled distinction.
    bracketing:
        Only for release consistency: enforce the two acquire/release
        bracketing conditions of Section 3.4 on ordinary operations.
    ordering_own_view_only:
        When ``True`` the ordering constraint binds a processor's
        operations only in *that processor's own* view ("o1 precedes o2 in
        S_p", Section 3.4) — release consistency's reading, under which
        ordinary writes may arrive at other caches out of order.  When
        ``False`` (TSO, PC, PRAM, causal) the ordering binds every view
        that contains both operations.
    partition_blocks:
        Only for Partition Consistency (``MutualConsistency.PARTITION``):
        how many blocks the location set splits into (round-robin over the
        sorted locations).  ``None`` for every other mutual consistency.
    description:
        One-paragraph provenance note shown by documentation helpers.
    """

    name: str
    operation_set: OperationSet
    mutual_consistency: MutualConsistency
    ordering: OrderingRule
    labeled_discipline: LabeledDiscipline | None = None
    bracketing: bool = False
    ordering_own_view_only: bool = False
    partition_blocks: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.bracketing and self.labeled_discipline is None:
            raise SpecError(
                f"{self.name}: bracketing conditions require a labeled discipline"
            )
        if self.mutual_consistency is MutualConsistency.PARTITION:
            if self.partition_blocks is None or self.partition_blocks < 1:
                raise SpecError(
                    f"{self.name}: partition consistency needs a positive "
                    "partition_blocks count"
                )
        elif self.partition_blocks is not None:
            raise SpecError(
                f"{self.name}: partition_blocks only applies to "
                "partition mutual consistency"
            )
        if (
            self.mutual_consistency is MutualConsistency.IDENTICAL
            and self.operation_set is not OperationSet.ALL_REMOTE
        ):
            raise SpecError(
                f"{self.name}: identical views only make sense when views "
                "contain every operation (ALL_REMOTE)"
            )
        if (
            self.ordering.needs_coherence
            and self.mutual_consistency
            not in (MutualConsistency.COHERENCE, MutualConsistency.TOTAL_WRITE_ORDER)
        ):
            raise SpecError(
                f"{self.name}: ordering {self.ordering.name!r} needs a "
                "coherence order but mutual consistency provides none"
            )

    @property
    def is_release_consistent(self) -> bool:
        """True when the model distinguishes labeled from ordinary operations."""
        return self.labeled_discipline is not None

    def __str__(self) -> str:
        parts = [
            f"δ_p={self.operation_set.value}",
            f"mutual={self.mutual_consistency.value}",
            f"order={self.ordering.name}",
        ]
        if self.labeled_discipline is not None:
            parts.append(f"labeled={self.labeled_discipline.value}")
        if self.bracketing:
            parts.append("bracketing")
        if self.partition_blocks is not None:
            parts.append(f"blocks={self.partition_blocks}")
        return f"{self.name}({', '.join(parts)})"
