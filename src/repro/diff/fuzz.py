"""The differential-fuzzing campaign driver.

:func:`run_fuzz` draws a stratified stream of histories
(:mod:`repro.diff.shapes`), cross-examines every sample with the oracle
panel (:mod:`repro.diff.oracles`) — in parallel through
:meth:`repro.engine.CheckEngine.map_panel` when an engine with workers is
supplied — shrinks every discrepancy to a 1-minimal witness
(:mod:`repro.diff.shrink`) with a kernel :mod:`repro.obs` trace attached,
and records findings in a resumable :class:`~repro.diff.corpus.DiscrepancyCorpus`.

Determinism: each (shape, seed) stratum owns an independent
``numpy.random.Generator`` seeded from ``(seed, shape index)``, so the
sample stream of one stratum never depends on which other strata run, and
a resumed campaign regenerates (and skips) exactly the samples a previous
run already checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.checking.models import MODELS, PAPER_MODELS, resolve_models
from repro.core.errors import CheckerError, DiffError
from repro.core.history import SystemHistory
from repro.diff.corpus import DiscrepancyCorpus, stratum_key
from repro.diff.oracles import (
    Discrepancy,
    agreed_verdicts,
    find_discrepancies,
    panel_verdicts,
)
from repro.diff.programs import (
    PROGRAM_SHAPES,
    ProgramShape,
    program_discrepancy,
    random_program,
    resolve_program_shapes,
    shrink_program,
)
from repro.diff.shapes import ShapePreset, resolve_shapes
from repro.diff.shrink import ShrinkResult, shrink_history
from repro.lattice.classify import extended_edges
from repro.orders.memo import relation_memo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine maps panels)
    from repro.engine.pool import CheckEngine

__all__ = [
    "Finding",
    "FuzzConfig",
    "FuzzReport",
    "SEPARATOR_PATTERNS",
    "harvest_fixtures",
    "run_fuzz",
]


@dataclass(frozen=True)
class FuzzConfig:
    """A declarative fuzz campaign description.

    Attributes
    ----------
    seed:
        Base seed; each stratum derives its own generator from it.
    count:
        Total histories across all shapes (split evenly, remainder to the
        earlier shapes).
    shapes:
        Shape preset names (see :data:`repro.diff.shapes.SHAPE_PRESETS`),
        or ``("default",)`` / ``("all",)``.
    models:
        The model panel.  Machine strata implicitly add their paired model.
    shrink:
        Minimize each discrepancy before recording it.
    max_shrink_attempts:
        Bound on candidate re-checks per shrink run.
    trace_steps:
        Cap on rendered kernel-trace steps attached to a minimal witness.
    """

    seed: int = 0
    count: int = 100
    shapes: tuple[str, ...] = ("default",)
    models: tuple[str, ...] = PAPER_MODELS
    shrink: bool = True
    max_shrink_attempts: int = 2000
    trace_steps: int = 60

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DiffError(f"count must be >= 1, got {self.count}")
        try:
            resolve_models(self.models)
        except CheckerError as exc:
            raise DiffError(str(exc)) from exc
        # Fail fast on unknown presets of either kind.
        self.resolved_shapes()
        self.resolved_program_shapes()

    def resolved_shapes(self) -> tuple[ShapePreset, ...]:
        """The concrete *history* presets of :attr:`shapes`.

        ``program:*`` strata are resolved separately by
        :meth:`resolved_program_shapes`; a campaign naming only program
        strata has no history presets at all.
        """
        history = tuple(n for n in self.shapes if not n.startswith("program:"))
        if not history and any(n.startswith("program:") for n in self.shapes):
            return ()
        return resolve_shapes(history if history else self.shapes)

    def resolved_program_shapes(self) -> tuple[ProgramShape, ...]:
        """The ``program:*`` strata of :attr:`shapes` (see
        :mod:`repro.diff.programs`)."""
        names = tuple(n for n in self.shapes if n.startswith("program:"))
        try:
            return resolve_program_shapes(names)
        except KeyError as exc:
            raise DiffError(
                f"unknown program shape {exc.args[0]!r}; known: "
                "program:*, " + ", ".join(sorted(PROGRAM_SHAPES))
            ) from exc

    def describe(self) -> dict:
        """A JSON-compatible description (recorded in the corpus header)."""
        return {
            "seed": self.seed,
            "count": self.count,
            "shapes": [p.name for p in self.resolved_shapes()]
            + [p.name for p in self.resolved_program_shapes()],
            "models": list(self.models),
            "shrink": self.shrink,
        }


@dataclass(frozen=True)
class Finding:
    """One discrepancy, as found and as minimized.

    ``shrunk`` is ``None`` when shrinking was disabled; ``trace`` is the
    rendered kernel trace of the minimal (or original) history under the
    first spec-backed model the discrepancy names.
    """

    key: str
    shape: str
    history: SystemHistory
    discrepancy: Discrepancy
    shrunk: ShrinkResult | None = None
    trace: str = ""

    @property
    def minimal_history(self) -> SystemHistory:
        return self.shrunk.history if self.shrunk is not None else self.history

    def render(self) -> str:
        from repro.litmus import format_history

        lines = [
            f"{self.key}: {self.discrepancy.render()}",
            f"  found:  {format_history(self.history, oneline=True)}",
        ]
        if self.shrunk is not None:
            lines.append(
                f"  shrunk: {format_history(self.shrunk.history, oneline=True)}"
                f"  ({self.shrunk.steps} deletion(s), "
                f"{self.shrunk.attempts} re-check(s))"
            )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """What a campaign checked and what it found."""

    config: FuzzConfig
    checked: int = 0
    skipped: int = 0
    per_shape: dict[str, int] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the campaign found no discrepancies."""
        return not self.findings

    def render(self) -> str:
        strata = ", ".join(f"{s}={n}" for s, n in self.per_shape.items())
        lines = [
            f"fuzzed {self.checked} histories "
            f"(seed {self.config.seed}; {strata})"
        ]
        if self.skipped:
            lines.append(f"resumed: {self.skipped} already-checked samples skipped")
        if self.clean:
            lines.append("no discrepancies: all oracles agree, lattice invariants hold")
        else:
            lines.append(f"{len(self.findings)} DISCREPANCY(IES):")
            lines.extend(f.render() for f in self.findings)
        return "\n".join(lines)


def _quotas(count: int, shapes: Sequence[ShapePreset]) -> list[int]:
    """Split ``count`` samples across strata (earlier strata get remainders)."""
    base, extra = divmod(count, len(shapes))
    return [base + (1 if i < extra else 0) for i in range(len(shapes))]


def _panel_models(
    config: FuzzConfig, preset: ShapePreset
) -> tuple[tuple[str, ...], str | None]:
    """The model panel for one stratum (+ the machine-soundness model)."""
    machine_model = preset.machine_model
    models = tuple(config.models)
    if machine_model is not None and machine_model not in models:
        models = models + (machine_model,)
    return models, machine_model


def _kernel_trace(
    history: SystemHistory, discrepancy: Discrepancy, max_steps: int
) -> str:
    """A rendered kernel trace of the first spec-backed model involved."""
    from repro.obs import RecordingSink, render_trace
    from repro.kernel import check_with_spec

    for name in discrepancy.models:
        spec = MODELS[name].spec
        if spec is None:
            continue
        sink = RecordingSink()
        check_with_spec(spec, history, trace=sink)
        return render_trace(sink.events, max_steps=max_steps)
    return ""


def _shrink_predicate(
    target: Discrepancy, models: tuple[str, ...], machine_model: str | None
):
    """A shrink predicate preserving ``target``'s (kind, models) identity.

    ``machine-unsound`` findings keep their machine obligation during
    shrinking: a sub-history of a machine trace is no longer *known* to be
    machine-producible, but the discrepancy claim being minimized is "the
    paired model denies this trace", which only sharpens as operations
    drop — the minimal witness must still be validated against a real
    machine run by a human, and the recorded original preserves the proof.
    """

    def predicate(candidate: SystemHistory) -> Discrepancy | None:
        panel = panel_verdicts(candidate, models)
        for d in find_discrepancies(panel, machine_model=machine_model):
            if d.key == target.key:
                return d
        return None

    return predicate


def run_fuzz(
    config: FuzzConfig,
    engine: "CheckEngine | None" = None,
    corpus: DiscrepancyCorpus | None = None,
    resume: bool = False,
) -> FuzzReport:
    """Run a fuzz campaign; return (and optionally persist) its findings.

    With an ``engine``, whole strata are panel-checked through
    :meth:`~repro.engine.CheckEngine.map_panel` — parallel across worker
    processes when the engine has ``jobs > 1``, with identical verdicts.
    With a ``corpus``, findings are appended as ``discrepancy`` records and
    per-stratum ``progress`` markers make the campaign resumable:
    ``resume=True`` skips samples a previous run already checked.
    """
    if resume and corpus is None:
        raise DiffError("resume needs a corpus to resume from")
    shapes = config.resolved_shapes()
    program_shapes = config.resolved_program_shapes()
    all_quotas = _quotas(
        config.count, tuple(shapes) + tuple(program_shapes)
    )
    quotas = all_quotas[: len(shapes)]
    done = corpus.completed() if (corpus is not None and resume) else {}
    report = FuzzReport(config=config)
    if corpus is not None:
        corpus.append_run_header(
            {**config.describe(), "resumed": bool(done)}
        )

    for shape_index, (preset, quota) in enumerate(zip(shapes, quotas)):
        if quota == 0:
            continue
        models, machine_model = _panel_models(config, preset)
        stratum = stratum_key(preset.name, config.seed)
        already = min(done.get(stratum, 0), quota)
        rng = np.random.default_rng((config.seed, shape_index))
        histories = [preset.generate(rng) for _ in range(quota)]
        todo = histories[already:]
        report.skipped += already
        report.per_shape[preset.name] = quota

        if engine is not None:
            panels = engine.map_panel(todo, models)
        else:
            # Serial path: memoize the derived relations history-major, so
            # the panel's oracles share one substrate per history.
            panels = []
            with relation_memo():
                for h in todo:
                    panels.append(panel_verdicts(h, models))

        for offset, (history, panel) in enumerate(zip(todo, panels)):
            index = already + offset
            key = f"{stratum}:{index:06d}"
            report.checked += 1
            for d in find_discrepancies(panel, machine_model=machine_model):
                finding = _minimize(config, key, preset, history, d,
                                    models, machine_model)
                report.findings.append(finding)
                if corpus is not None:
                    corpus.append_discrepancy(
                        key,
                        kind=d.kind,
                        models=d.models,
                        detail=d.detail,
                        history=history,
                        shrunk=(
                            finding.shrunk.history
                            if finding.shrunk is not None
                            else None
                        ),
                        verdicts=finding.discrepancy.verdicts,
                        trace=finding.trace,
                        shrink_steps=(
                            finding.shrunk.steps
                            if finding.shrunk is not None
                            else 0
                        ),
                    )
        if corpus is not None:
            corpus.append_progress(stratum, quota)

    for k, (pshape, quota) in enumerate(
        zip(program_shapes, all_quotas[len(shapes):])
    ):
        if quota == 0:
            continue
        stratum = stratum_key(pshape.name, config.seed)
        already = min(done.get(stratum, 0), quota)
        rng = np.random.default_rng((config.seed, len(shapes) + k))
        samples = [random_program(rng, pshape) for _ in range(quota)]
        report.skipped += already
        report.per_shape[pshape.name] = quota
        for index in range(already, quota):
            sample = samples[index]
            key = f"{stratum}:{index:06d}"
            report.checked += 1
            found = program_discrepancy(sample, name=pshape.name)
            if found is None:
                continue
            discrepancy, history = found
            trace = sample.render()
            if config.shrink:
                minimal = shrink_program(sample)
                refound = program_discrepancy(minimal, name=pshape.name)
                if refound is not None:
                    discrepancy, history = refound
                    trace = minimal.render()
            report.findings.append(
                Finding(
                    key=key,
                    shape=pshape.name,
                    history=history,
                    discrepancy=discrepancy,
                    shrunk=None,
                    trace=trace,
                )
            )
            if corpus is not None:
                corpus.append_discrepancy(
                    key,
                    kind=discrepancy.kind,
                    models=discrepancy.models,
                    detail=discrepancy.detail,
                    history=history,
                    shrunk=None,
                    verdicts=discrepancy.verdicts,
                    trace=trace,
                    shrink_steps=0,
                )
        if corpus is not None:
            corpus.append_progress(stratum, quota)
    return report


#: Verdict patterns worth pinning as regression fixtures: ``(label,
#: admitting model, denying model)``.  One per registry-derived lattice
#: edge — a witness that *separates* the weaker model from the stronger,
#: proving the containment is strict — plus notable incomparable pairs in
#: both directions (PC/Causal from Figure 5; the partition arities, whose
#: round-robin block maps stop nesting on four locations).
SEPARATOR_PATTERNS: tuple[tuple[str, str, str], ...] = tuple(
    (f"{weaker}-not-{stronger}", weaker, stronger)
    for stronger, weaker in extended_edges()
) + (
    ("PC-not-Causal", "PC", "Causal"),
    ("Causal-not-PC", "Causal", "PC"),
    ("partition-2-not-partition-3", "partition-2", "partition-3"),
    ("partition-3-not-partition-2", "partition-3", "partition-2"),
)


def _separator_predicate(admit: str, deny: str, models: tuple[str, ...]):
    """A shrink claim: ``admit`` ADMITs, ``deny`` DENYs, panel is clean.

    :func:`~repro.diff.shrink.shrink_history` minimizes any panel-backed
    claim expressed as a ``Discrepancy | None`` predicate; here the claim
    is a *separation* rather than a contradiction, which is how clean
    campaigns still yield minimal, verdict-locked corpus fixtures.
    """

    def predicate(candidate: SystemHistory) -> Discrepancy | None:
        panel = panel_verdicts(candidate, models)
        if find_discrepancies(panel):
            return None  # never lock a fixture on a discrepant candidate
        agreed = agreed_verdicts(panel)
        if agreed[admit] and not agreed[deny]:
            return Discrepancy(
                "separator",
                (admit, deny),
                f"{admit}-admitted, {deny}-denied",
                panel,
            )
        return None

    return predicate


def harvest_fixtures(
    config: FuzzConfig,
    engine: "CheckEngine | None" = None,
) -> list[tuple[str, SystemHistory, dict[str, bool], str]]:
    """Mine a clean campaign for minimal, verdict-locked litmus fixtures.

    For every :data:`SEPARATOR_PATTERNS` entry whose two models are in the
    campaign's panel, this searches the campaign's deterministic sample
    stream for the first separating witness, shrinks it while the
    separation persists (and the panel stays clean), and locks the agreed
    verdict vector of the minimal history.  The harvest seeds the
    checked-in regression corpus: each fixture pins the panel's exact
    answers on a minimal history, so future drift in any oracle trips the
    tier-1 replay test.

    Returns ``[(key, history, expected, origin)]`` — the arguments of
    :meth:`~repro.diff.corpus.DiscrepancyCorpus.append_litmus`.
    """
    wanted = {
        (label, admit, deny)
        for (label, admit, deny) in SEPARATOR_PATTERNS
        if admit in config.models and deny in config.models
    }
    fixtures: list[tuple[str, SystemHistory, dict[str, bool], str]] = []
    shapes = config.resolved_shapes()
    quotas = _quotas(config.count, shapes)
    for shape_index, (preset, quota) in enumerate(zip(shapes, quotas)):
        if not wanted:
            break
        if quota == 0:
            continue
        models, machine_model = _panel_models(config, preset)
        rng = np.random.default_rng((config.seed, shape_index))
        histories = [preset.generate(rng) for _ in range(quota)]
        if engine is not None:
            panels = engine.map_panel(histories, models)
        else:
            panels = []
            with relation_memo():
                for h in histories:
                    panels.append(panel_verdicts(h, models))
        for index, (history, panel) in enumerate(zip(histories, panels)):
            if not wanted:
                break
            if find_discrepancies(panel, machine_model=machine_model):
                continue  # a discrepant history is a bug, not a fixture
            agreed = agreed_verdicts(panel)
            for pattern in sorted(wanted):
                label, admit, deny = pattern
                if not (agreed[admit] and not agreed[deny]):
                    continue
                wanted.discard(pattern)
                shrunk = shrink_history(
                    history,
                    _separator_predicate(admit, deny, models),
                    max_attempts=config.max_shrink_attempts,
                )
                minimal = shrunk.history
                expected = agreed_verdicts(panel_verdicts(minimal, models))
                origin = (
                    f"fuzz(seed={config.seed}, shape={preset.name}, "
                    f"sample={index}); shrunk by {shrunk.steps} deletion(s)"
                )
                fixtures.append(
                    (f"separator:{label}", minimal, expected, origin)
                )
    return fixtures


def _minimize(
    config: FuzzConfig,
    key: str,
    preset: ShapePreset,
    history: SystemHistory,
    discrepancy: Discrepancy,
    models: tuple[str, ...],
    machine_model: str | None,
) -> Finding:
    """Shrink one discrepancy (when enabled) and attach its kernel trace."""
    shrunk: ShrinkResult | None = None
    final = discrepancy
    if config.shrink:
        shrunk = shrink_history(
            history,
            _shrink_predicate(discrepancy, models, machine_model),
            max_attempts=config.max_shrink_attempts,
        )
        final = shrunk.discrepancy
    witness = shrunk.history if shrunk is not None else history
    trace = _kernel_trace(witness, final, config.trace_steps)
    return Finding(
        key=key,
        shape=preset.name,
        history=history,
        discrepancy=final,
        shrunk=shrunk,
        trace=trace,
    )
