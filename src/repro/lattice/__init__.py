"""Relating memories by set containment (paper Section 4, Figure 5).

The histories come from :mod:`repro.lattice.enumeration`:
:func:`canonical_histories` yields one representative per renaming class
of a :class:`HistorySpace` (the first one :func:`enumerate_histories`
reaches), which is what Figure 5 sweeps check.

Drawing the Hasse diagram needs networkx and sampling needs numpy; the
names from those modules (and from the report built on the diagram) load
on first use, so importing the enumeration or the classifier loads
neither library.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.lattice.classify import (
    FIGURE5_EDGES,
    FIGURE5_INCOMPARABLE,
    ClassificationResult,
    classify_histories,
    extended_edges,
    containment_violations,
    separating_witnesses,
)
from repro.lattice.enumeration import (
    HistorySpace,
    canonical_histories,
    canonical_key,
    enumerate_histories,
    space_size,
)
from repro.lattice.persistence import load_classification, save_classification

if TYPE_CHECKING:
    from repro.lattice.hasse import empirical_hasse, hasse_levels, paper_hasse
    from repro.lattice.report import lattice_report
    from repro.lattice.sampling import classify_sample, sample_history, sample_space

#: Names served on first use, by the submodule that defines them.
_LAZY = {
    "empirical_hasse": "hasse",
    "hasse_levels": "hasse",
    "paper_hasse": "hasse",
    "lattice_report": "report",
    "classify_sample": "sampling",
    "sample_history": "sampling",
    "sample_space": "sampling",
}

__all__ = [
    "canonical_histories",
    "canonical_key",
    "ClassificationResult",
    "classify_histories",
    "extended_edges",
    "containment_violations",
    "empirical_hasse",
    "enumerate_histories",
    "FIGURE5_EDGES",
    "FIGURE5_INCOMPARABLE",
    "hasse_levels",
    "classify_sample",
    "lattice_report",
    "load_classification",
    "sample_history",
    "sample_space",
    "save_classification",
    "HistorySpace",
    "paper_hasse",
    "separating_witnesses",
    "space_size",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
