"""The layered constraint kernel every consistency checker runs on.

The paper's thesis is that the scalable shared memories are *one*
construction varied along three parameters; this package is that thesis as
code structure.  Four composable layers:

1. :mod:`repro.kernel.rf` — reads-from attribution enumeration (which write
   each read observed);
2. :mod:`repro.kernel.serializations` — mutual-consistency witness
   enumeration (parameter 2: total write orders, per-location coherence,
   labeled-subsequence disciplines);
3. :mod:`repro.kernel.constraints` — compilation of a
   :class:`~repro.spec.model_spec.MemoryModelSpec` into per-view
   predecessor-bitmask edge sets (parameters 1 and 3, bracketing,
   propagation edges), cacheable per ``(history, spec)``;
4. :mod:`repro.kernel.search` — the single legal-linear-extension search
   with incremental legality, plus the generic driver
   :func:`~repro.kernel.search.check_with_spec`.

The fast checkers in :mod:`repro.checking` are thin strategies over these
layers, and every checker reports through the shared
:class:`~repro.kernel.results.CheckResult` / ``Witness`` /
``Counterexample`` types.

The mask-plane operations the layers bottom out in (transitive closure,
acyclicity, the candidate gate) live in :mod:`repro.kernel.backend`: one
int-bitmask implementation behind a small interface, which a benchmark or
test can wrap with :func:`use_backend` to count or time every gate
(docs/kernel.md).
"""

from repro.kernel.backend import (
    MaskBackend,
    active_backend,
    use_backend,
)
from repro.kernel.constraints import (
    CompiledConstraints,
    bracketing_edges,
    compile_constraints,
    configure_plane_cache,
    extend_plane,
    history_plane,
    install_plane,
    plane_cache_stats,
)
from repro.kernel.incremental import HistoryStream, IncrementalCheck
from repro.kernel.results import CheckResult, Counterexample, Witness
from repro.kernel.rf import impossible_read, iter_attributions
from repro.kernel.search import (
    SearchBudget,
    check_with_spec,
    count_legal_extensions,
    explain_with_spec,
    find_legal_extension,
    iter_legal_extensions,
)
from repro.kernel.serializations import (
    forced_write_order,
    iter_labeled_extras,
    iter_mutual_candidates,
)

__all__ = [
    "CheckResult",
    "Witness",
    "Counterexample",
    "SearchBudget",
    "check_with_spec",
    "explain_with_spec",
    "find_legal_extension",
    "iter_legal_extensions",
    "count_legal_extensions",
    "CompiledConstraints",
    "compile_constraints",
    "bracketing_edges",
    "extend_plane",
    "history_plane",
    "install_plane",
    "plane_cache_stats",
    "configure_plane_cache",
    "MaskBackend",
    "active_backend",
    "use_backend",
    "HistoryStream",
    "IncrementalCheck",
    "forced_write_order",
    "iter_mutual_candidates",
    "iter_labeled_extras",
    "impossible_read",
    "iter_attributions",
]
