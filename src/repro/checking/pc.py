"""Processor-consistency checkers (paper Section 3.3).

Two flavors:

* :func:`check_pc` — PC as defined by Gharachorloo et al. for DASH
  (the paper's primary PC): coherence plus the semi-causality order
  ``(->ppo ∪ ->rwb ∪ ->rrb)+`` inside each view.
* :func:`check_pc_goodman` — Goodman's original processor consistency
  (per Ahamad et al. [2], "The power of processor consistency"): every
  processor has a view of its own operations plus all writes that respects
  *program order* and agrees per-location on write order (i.e. PRAM +
  coherence).  The paper remarks the two definitions are distinct and
  incomparable; the lattice experiment reproduces that.
"""

from __future__ import annotations

from dataclasses import replace

from repro.checking.result import CheckResult
from repro.checking.solver import SearchBudget, check_with_spec
from repro.core.history import SystemHistory
from repro.spec.registry import COHERENT_PRAM_SPEC, PC_SPEC

__all__ = ["check_pc", "is_pc", "check_pc_goodman", "is_pc_goodman"]


def check_pc(history: SystemHistory, budget: SearchBudget | None = None) -> CheckResult:
    """Decide DASH processor consistency, with witness views on success."""
    return check_with_spec(PC_SPEC, history, budget)


def is_pc(history: SystemHistory) -> bool:
    """Convenience boolean form of :func:`check_pc`."""
    return check_pc(history).allowed


def check_pc_goodman(
    history: SystemHistory, budget: SearchBudget | None = None
) -> CheckResult:
    """Decide Goodman-style processor consistency (PRAM + coherence)."""
    return replace(check_with_spec(COHERENT_PRAM_SPEC, history, budget), model="PC-G")


def is_pc_goodman(history: SystemHistory) -> bool:
    """Convenience boolean form of :func:`check_pc_goodman`."""
    return check_pc_goodman(history).allowed
