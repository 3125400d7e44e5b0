"""Direct sequential-consistency checker (paper Section 3.1).

SC admits a history exactly when one legal total order over *all*
operations respects every processor's program order; every processor view
is that common order.  This is the classic formulation of Lamport (1979),
and in the paper's framework the instance ``δ_p = a``, identical views,
ordering ``->po``.

Implemented directly on the legal-extension kernel (no serialization
enumeration is needed) — this also serves as an independent cross-check of
the generic solver in the test suite.
"""

from __future__ import annotations

from repro.core.history import SystemHistory
from repro.core.view import View
from repro.kernel.results import CheckResult
from repro.kernel.search import find_legal_extension
from repro.orders.program_order import po_relation

__all__ = ["check_sc"]


def check_sc(history: SystemHistory) -> CheckResult:
    """Decide SC membership; the witness is the common legal total order."""
    order = find_legal_extension(history.operations, po_relation(history))
    if order is None:
        return CheckResult(
            "SC",
            False,
            reason="no legal total order extends program order",
        )
    views = {
        proc: View(proc, order, history, validate=False) for proc in history.procs
    }
    return CheckResult("SC", True, views=views, explored=1)
