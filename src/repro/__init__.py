"""repro — a characterization framework for scalable shared memories.

A complete reproduction of Kohli, Neiger & Ahamad, *"A Characterization of
Scalable Shared Memories"* (ICPP 1993): the view-based framework for
defining weakly consistent memories, checkers for SC / TSO / PC / PRAM /
causal / coherent / RC_sc / RC_pc memories, operational simulators for the
systems those models abstract, a concurrent-program layer for running
algorithms (notably Lamport's Bakery) on the simulated memories, and the
lattice machinery reproducing the paper's Figure 5 containment results.

Quickstart
----------
>>> from repro import parse_history, classify
>>> h = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")  # paper Figure 1
>>> verdicts = classify(h)
>>> verdicts["SC"], verdicts["TSO"]
(False, True)
"""

from repro.checking import MODELS, PAPER_MODELS, check, classify
from repro.core import (
    HistoryBuilder,
    Operation,
    OpKind,
    ProcessorHistory,
    ReproError,
    SystemHistory,
    View,
)
from repro.kernel import CheckResult, SearchBudget, check_with_spec
from repro.litmus import CATALOG, LitmusTest, format_history, parse_history
from repro.spec import ALL_SPECS, MemoryModelSpec, get_spec

__version__ = "1.0.0"

__all__ = [
    "ALL_SPECS",
    "CATALOG",
    "check",
    "check_with_spec",
    "CheckResult",
    "classify",
    "format_history",
    "get_spec",
    "HistoryBuilder",
    "LitmusTest",
    "MemoryModelSpec",
    "MODELS",
    "Operation",
    "OpKind",
    "PAPER_MODELS",
    "parse_history",
    "ProcessorHistory",
    "ReproError",
    "SearchBudget",
    "SystemHistory",
    "View",
    "__version__",
]
