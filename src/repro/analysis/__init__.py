"""Generators and analyses supporting the experiments.

The random generators need numpy; their names load on first use, so
importing the package (``repro spectrum``, the labeling checks) loads
no numpy.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.analysis.labeling import (
    bracketing_violations,
    find_races,
    is_properly_labeled,
    location_discipline_violations,
)
from repro.analysis.spectrum import (
    KNOWN_EDGES,
    SPECTRUM_MODELS,
    accepting_models,
    strength_frontier,
)
from repro.analysis.stats import Timer, format_counts, fraction, verdict_table
from repro.analysis.trace import TraceStats, streaming_legality, trace_stats

if TYPE_CHECKING:
    from repro.analysis.random_histories import (
        machine_history,
        random_history,
        random_program_ops,
    )

#: Names served on first use, by the submodule that defines them.
_LAZY = dict.fromkeys(
    ("machine_history", "random_history", "random_program_ops"),
    "random_histories",
)

__all__ = [
    "accepting_models",
    "KNOWN_EDGES",
    "SPECTRUM_MODELS",
    "strength_frontier",
    "bracketing_violations",
    "find_races",
    "format_counts",
    "fraction",
    "is_properly_labeled",
    "location_discipline_violations",
    "machine_history",
    "random_history",
    "random_program_ops",
    "Timer",
    "TraceStats",
    "streaming_legality",
    "trace_stats",
    "verdict_table",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
