"""The oracle panel: independent answers, cross-examined.

The repository can decide "does model M admit history H" five ways:

* **fast** — the registered preferred decision procedure
  (:meth:`repro.checking.models.MemoryModel.check`: TSO's fast path and
  the axiomatic TSO reference, the kernel driver otherwise);
* **kernel** — the layered constraint kernel's generic driver
  (:func:`repro.kernel.check_with_spec`), uniformly for every spec-backed
  model;
* **definitional** — a brute-force search straight from the paper's
  definition (:mod:`repro.checking.definitional`), sharing no code with
  the kernel; it answers only histories of at most
  :data:`~repro.checking.definitional.DEFINITIONAL_MAX_OPS` operations
  and is absent from larger rows;
* **incremental** — the streaming session
  (:class:`repro.kernel.incremental.IncrementalCheck`): the history
  replayed op by op through a growing
  :class:`~repro.kernel.incremental.HistoryStream`, with *every prefix*
  verdict compared against a fresh one-shot check of the same prefix —
  the panel's only oracle that also cross-examines the intermediate
  states, not just the final answer;
* **prepass** — the polynomial static DENY battery
  (:func:`repro.staticcheck.prepass_check`): when it denies (a forced
  contradiction was found), the kernel must deny too.

Every kernel ADMIT whose reads-from attribution is unambiguous also has
its witness views re-verified by
:func:`~repro.checking.witness.validate_witness`, which keeps an
independent check on the ADMITs of histories too large for the
definitional oracle.

:func:`panel_verdicts` runs them all; :func:`find_discrepancies` flags every
way their answers can be mutually impossible: direct verdict disagreement,
a prepass DENY of a history the kernel admits (a soundness violation), a
kernel witness that fails validation, a streamed prefix verdict diverging
from a fresh check of the same prefix, a verdict pattern contradicting the
Figure 5 containment lattice (Steinke & Nutt's unified-theory invariants,
free on every random history), and a machine trace rejected by the very
model the machine implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.checking.definitional import DEFINITIONAL_MAX_OPS, definitional_allowed
from repro.checking.models import get_model
from repro.checking.witness import validate_witness
from repro.core.errors import CheckerError, DiffError
from repro.core.history import SystemHistory
from repro.kernel import check_with_spec
from repro.lattice.classify import extended_edges
from repro.orders.writes_before import unambiguous_reads_from
from repro.staticcheck.prepass import prepass_check

__all__ = [
    "ORACLES",
    "Discrepancy",
    "agreed_verdicts",
    "find_discrepancies",
    "panel_verdicts",
]

#: The panel's members, in reporting order.
ORACLES: tuple[str, ...] = ("fast", "kernel", "definitional", "incremental", "prepass")


def _incremental_replay(spec, history: SystemHistory) -> tuple[bool, bool]:
    """Replay ``history`` op by op through a streaming session.

    Operations are interleaved round-robin across processors (each
    processor's program order preserved), so every intermediate prefix is
    a real multi-processor history, and *each* prefix's incremental
    verdict is compared against a fresh one-shot ``check_with_spec`` of
    that prefix — allowed, reason, explored count, and witness views all
    have to match, the same parity the kernel test-suite asserts.

    Returns ``(final_allowed, every_prefix_matched)``.
    """
    from itertools import zip_longest

    from repro.kernel.incremental import HistoryStream, IncrementalCheck

    stream = HistoryStream()
    inc = IncrementalCheck(spec, stream)
    result = inc.check()
    ok = True
    per_proc: dict[str, list] = {}
    for op in history.operations:
        per_proc.setdefault(op.proc, []).append(op)
    for round_ops in zip_longest(*per_proc.values()):
        for op in round_ops:
            if op is None:
                continue
            placed, reused = stream.append(op)
            result = inc.on_appended((placed,), reused)
            fresh = check_with_spec(spec, stream.history)
            if (
                result.allowed != fresh.allowed
                or result.reason != fresh.reason
                or result.explored != fresh.explored
                or result.views != fresh.views
            ):
                ok = False
    return result.allowed, ok


def panel_verdicts(
    history: SystemHistory, models: Sequence[str]
) -> dict[str, dict[str, bool]]:
    """Every oracle's verdict on ``history``, per model.

    Returns ``{model: {"fast": bool, "kernel": bool, "definitional": bool,
    "incremental": bool, "incremental_prefix_ok": bool,
    "prepass_deny": bool, "witness_ok": bool}}`` — a plain picklable
    dictionary, so the engine can ship panels across its process
    boundary.  Models without a framework spec (the axiomatic TSO
    reference) only carry the ``fast`` verdict: the other oracles are
    spec-driven.  Models without a fast path report the kernel verdict as
    ``fast``.  ``definitional`` is absent on histories of more than
    :data:`~repro.checking.definitional.DEFINITIONAL_MAX_OPS` operations.
    ``witness_ok`` is present only on a kernel ADMIT with an unambiguous
    attribution: whether :func:`~repro.checking.witness.validate_witness`
    accepted the kernel's views.
    ``incremental_prefix_ok`` is the streaming oracle's extra claim: every
    intermediate prefix's incremental verdict matched a fresh check of
    that prefix (see :func:`_incremental_replay`).  ``prepass_deny`` is
    ``False`` when the static battery abstained.
    """
    out: dict[str, dict[str, bool]] = {}
    small = len(history.operations) <= DEFINITIONAL_MAX_OPS
    unambiguous = unambiguous_reads_from(history) is not None
    for name in models:
        try:
            model = get_model(name)
        except CheckerError as exc:
            raise DiffError(str(exc)) from exc
        spec = model.spec
        if spec is None:
            out[name] = {"fast": model.check(history).allowed}
            continue
        result = check_with_spec(spec, history)
        kernel = result.allowed
        # Without a fast path the model is decided by the kernel: reuse
        # its verdict rather than running the identical search twice.
        fast = kernel if model.fast is None else model.check(history).allowed
        final, prefix_ok = _incremental_replay(spec, history)
        row = {
            "fast": fast,
            "kernel": kernel,
            "incremental": final,
            "incremental_prefix_ok": prefix_ok,
            "prepass_deny": prepass_check(spec, history).decided,
        }
        if small:
            row["definitional"] = definitional_allowed(spec, history)
        if kernel and unambiguous:
            row["witness_ok"] = not validate_witness(spec, history, result.views)
        out[name] = row
    return out


def agreed_verdicts(panel: dict[str, dict[str, bool]]) -> dict[str, bool]:
    """The kernel verdict per model (the panel's reference answer)."""
    return {
        name: verdicts.get("kernel", verdicts["fast"])
        for name, verdicts in panel.items()
    }


@dataclass(frozen=True)
class Discrepancy:
    """One way the oracle panel's answers are mutually impossible.

    Attributes
    ----------
    kind:
        ``"oracle-disagreement"``, ``"prepass-unsound"``,
        ``"invalid-witness"``, ``"incremental-divergence"``,
        ``"lattice-violation"``, or ``"machine-unsound"``.
    models:
        The model name(s) involved (one, or the (stronger, weaker) pair of
        a violated lattice edge).
    detail:
        Human-readable statement of the contradiction.
    verdicts:
        The panel rows backing the claim, ``{model: {oracle: verdict}}``.
    """

    kind: str
    models: tuple[str, ...]
    detail: str
    verdicts: dict[str, dict[str, bool]] = field(default_factory=dict, hash=False)

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        """The (kind, models) identity a shrink step must preserve."""
        return (self.kind, self.models)

    def render(self) -> str:
        models = "/".join(self.models)
        return f"[{self.kind}] {models}: {self.detail}"


def find_discrepancies(
    panel: dict[str, dict[str, bool]],
    *,
    machine_model: str | None = None,
    edges: Sequence[tuple[str, str]] | None = None,
) -> list[Discrepancy]:
    """Every contradiction the panel's verdicts contain.

    ``machine_model`` names the model whose operational machine generated
    the history (if any): such a trace is allowed by construction, so a
    DENY from that model is itself a discrepancy even though the oracles
    agree with each other.  ``edges`` are the containment claims asserted
    on every history (default: the full registry-derived lattice of
    :func:`~repro.lattice.classify.extended_edges`, so a model registered
    without bespoke plumbing here still gets containment-checked); an
    edge is only checked when both of its models were consulted.
    """
    if edges is None:
        edges = extended_edges()
    found: list[Discrepancy] = []
    for name, verdicts in panel.items():
        row = {name: verdicts}
        spec_backed = "kernel" in verdicts
        if spec_backed:
            answers = {
                o: verdicts[o]
                for o in ("fast", "kernel", "definitional", "incremental")
                if o in verdicts
            }
            if len(set(answers.values())) > 1:
                detail = ", ".join(
                    f"{o}={'ADMIT' if v else 'DENY'}" for o, v in answers.items()
                )
                found.append(
                    Discrepancy("oracle-disagreement", (name,), detail, row)
                )
            if verdicts["prepass_deny"] and verdicts["kernel"]:
                found.append(
                    Discrepancy(
                        "prepass-unsound",
                        (name,),
                        "static pre-pass DENYs a history the kernel ADMITs",
                        row,
                    )
                )
            if not verdicts.get("witness_ok", True):
                found.append(
                    Discrepancy(
                        "invalid-witness",
                        (name,),
                        "the kernel's witness views fail independent "
                        "validation",
                        row,
                    )
                )
            if not verdicts.get("incremental_prefix_ok", True):
                found.append(
                    Discrepancy(
                        "incremental-divergence",
                        (name,),
                        "a streamed prefix's incremental verdict diverged "
                        "from a fresh check of the same prefix",
                        row,
                    )
                )
    reference = agreed_verdicts(panel)
    for stronger, weaker in edges:
        if stronger not in reference or weaker not in reference:
            continue
        if reference[stronger] and not reference[weaker]:
            found.append(
                Discrepancy(
                    "lattice-violation",
                    (stronger, weaker),
                    f"{stronger}-admitted but {weaker}-denied "
                    f"(the lattice claims {stronger} ⊆ {weaker})",
                    {stronger: panel[stronger], weaker: panel[weaker]},
                )
            )
    if machine_model is not None:
        if machine_model not in reference:
            raise DiffError(
                f"machine model {machine_model!r} missing from the panel"
            )
        if not reference[machine_model]:
            found.append(
                Discrepancy(
                    "machine-unsound",
                    (machine_model,),
                    f"an operational {machine_model} machine produced this "
                    "trace, but the declarative model denies it",
                    {machine_model: panel[machine_model]},
                )
            )
    return found
