"""repro.diff — differential testing of the framework against itself.

The repository holds four independent answers to "does model M admit
history H": the layered kernel, the frozen pre-kernel solver, the
TSO fast path, and the polynomial static pre-pass — plus two
classes of invariant that hold *for free* on any history: the Figure 5
containment lattice and operational-machine soundness (a machine's trace
is always admitted by its own model).  This package cross-examines all of
them at scale:

* :mod:`repro.diff.shapes` — stratified random-history generation
  (structural presets + operational machine traces);
* :mod:`repro.diff.oracles` — the oracle panel and its discrepancy rules;
* :mod:`repro.diff.shrink` — greedy 1-minimal witness shrinking;
* :mod:`repro.diff.corpus` — the resumable JSONL discrepancy corpus,
  whose resolved findings become permanent tier-1 regression fixtures;
* :mod:`repro.diff.fuzz` — the campaign driver behind
  ``python -m repro fuzz`` (parallel through
  :meth:`repro.engine.CheckEngine.map_panel`).
"""

from repro.diff.corpus import CORPUS_VERSION, DiscrepancyCorpus, stratum_key
from repro.diff.fuzz import (
    SEPARATOR_PATTERNS,
    Finding,
    FuzzConfig,
    FuzzReport,
    harvest_fixtures,
    run_fuzz,
)
from repro.diff.oracles import (
    ORACLES,
    Discrepancy,
    agreed_verdicts,
    find_discrepancies,
    panel_verdicts,
)
from repro.diff.shapes import (
    DEFAULT_SHAPES,
    SHAPE_PRESETS,
    ShapePreset,
    resolve_shapes,
)
from repro.diff.shrink import ShrinkResult, shrink_history

__all__ = [
    "CORPUS_VERSION",
    "DEFAULT_SHAPES",
    "Discrepancy",
    "DiscrepancyCorpus",
    "Finding",
    "FuzzConfig",
    "FuzzReport",
    "ORACLES",
    "SEPARATOR_PATTERNS",
    "SHAPE_PRESETS",
    "ShapePreset",
    "ShrinkResult",
    "agreed_verdicts",
    "find_discrepancies",
    "harvest_fixtures",
    "panel_verdicts",
    "resolve_shapes",
    "run_fuzz",
    "shrink_history",
    "stratum_key",
]
