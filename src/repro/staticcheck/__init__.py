"""repro.staticcheck — the static analysis layer in front of the kernel.

Five coordinated analyzers, all polynomial-time, all *without* running
the kernel's full linear-extension search or executing a program:

* :mod:`repro.staticcheck.prepass` — per-spec necessary-condition checks
  on histories: a sound DENY with a counterexample, or UNKNOWN.  It backs
  ``repro lint history`` and the fuzzer's soundness oracle; no check path
  runs it.
* :mod:`repro.staticcheck.speclint` — validation of
  :class:`~repro.spec.model_spec.MemoryModelSpec` parameter triples, plus
  small-history probing that flags specs indistinguishable from (or
  contained in) an existing lattice node.
* :mod:`repro.staticcheck.cfg` — control-flow graphs for pseudocode
  programs with the must-dataflow analyses (``must_in_cs``,
  ``cs_bracketed``) the program analyses build on.
* :mod:`repro.staticcheck.progcheck` — static race and proper-labeling
  analysis of pseudocode programs (paper Section 3.4) on the CFG, plus
  :func:`~repro.staticcheck.progcheck.infer_labels`, which proposes the
  minimal ``sync`` relabeling that makes a racy program properly labeled.
* :mod:`repro.staticcheck.drf` — machine-checkable DRF certificates:
  :func:`~repro.staticcheck.drf.certify_program` records every competing
  pair with its discharge, and
  :func:`~repro.staticcheck.drf.verify_certificate` re-validates the
  artifact from the program text alone.

The program analyses are cross-validated in the test suite against the
dynamic :mod:`repro.analysis.labeling` checks on scheduler-generated
histories, and continuously by the ``program:*`` fuzz strata of
:mod:`repro.diff.programs`.  All of this is exposed by
``python -m repro lint {history,spec,program}``.

The program analyses parse programs with :mod:`repro.programs`, whose
schedulers need numpy; their names load on first use, so ``lint
history`` and ``lint spec`` load neither.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.staticcheck.prepass import (
    HistoryPrepass,
    PrepassVerdict,
    compile_prepass,
    prepass_check,
)
from repro.staticcheck.speclint import (
    SpecFinding,
    broken_fixture_specs,
    lint_parameters,
    lint_registry,
    lint_spec,
)

if TYPE_CHECKING:
    from repro.staticcheck.cfg import (
        Cfg,
        CfgNode,
        build_cfg,
        cs_bracketed,
        must_in_cs,
    )
    from repro.staticcheck.drf import (
        CertificationResult,
        DrfCertificate,
        Obligation,
        certify_program,
        verify_certificate,
    )
    from repro.staticcheck.progcheck import (
        LabelPatch,
        PotentialRace,
        ProgramReport,
        SharedAccess,
        analyze_program,
        competing_pairs,
        infer_labels,
        report_covers_races,
    )

#: Names served on first use, by the submodule that defines them.
_LAZY = {
    **dict.fromkeys(
        ("Cfg", "CfgNode", "build_cfg", "cs_bracketed", "must_in_cs"), "cfg"
    ),
    **dict.fromkeys(
        (
            "CertificationResult",
            "DrfCertificate",
            "Obligation",
            "certify_program",
            "verify_certificate",
        ),
        "drf",
    ),
    **dict.fromkeys(
        (
            "LabelPatch",
            "PotentialRace",
            "ProgramReport",
            "SharedAccess",
            "analyze_program",
            "competing_pairs",
            "infer_labels",
            "report_covers_races",
        ),
        "progcheck",
    ),
}

__all__ = [
    "HistoryPrepass",
    "PrepassVerdict",
    "compile_prepass",
    "prepass_check",
    "SpecFinding",
    "broken_fixture_specs",
    "lint_parameters",
    "lint_registry",
    "lint_spec",
    "Cfg",
    "CfgNode",
    "build_cfg",
    "cs_bracketed",
    "must_in_cs",
    "CertificationResult",
    "DrfCertificate",
    "Obligation",
    "certify_program",
    "verify_certificate",
    "LabelPatch",
    "PotentialRace",
    "ProgramReport",
    "SharedAccess",
    "analyze_program",
    "competing_pairs",
    "infer_labels",
    "report_covers_races",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
