"""Tracing observes — it never changes a verdict, witness, or effort figure.

The load-bearing property of the whole layer: for every catalog history
under every spec-backed model, the traced check returns exactly what the
untraced check returns, and the event stream is a faithful narration
(it ends in a matching verdict, its solved views agree with the witness).
The same holds for the static DENY battery ``repro lint history`` runs.
"""

import pytest

from repro.checking.models import MODELS, resolve_models
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.obs import RecordingSink, VerdictReached, render_trace, tracing
from repro.staticcheck import compile_prepass, prepass_check

SPEC_MODELS = resolve_models("spec")
CASES = [(name, model) for name in CATALOG for model in SPEC_MODELS]


@pytest.mark.parametrize("prepass", [False, True], ids=["raw", "prepass"])
@pytest.mark.parametrize(
    "entry,model", CASES, ids=[f"{n}-{m}" for n, m in CASES]
)
def test_traced_equals_untraced(entry, model, prepass):
    spec = MODELS[model].spec
    history = CATALOG[entry].history
    if prepass:
        _assert_prepass_traced_equals_untraced(spec, history)
        return
    plain = check_with_spec(spec, history)
    sink = RecordingSink()
    traced = check_with_spec(spec, history, trace=sink)

    assert traced.allowed == plain.allowed
    assert traced.explored == plain.explored
    if plain.allowed:
        assert {p: str(v) for p, v in traced.views.items()} == {
            p: str(v) for p, v in plain.views.items()
        }

    # The stream narrates the same outcome it returned.
    verdicts = sink.of_kind("verdict")
    assert len(verdicts) == 1
    assert verdicts[-1] == VerdictReached(
        model=spec.name,
        allowed=plain.allowed,
        explored=plain.explored,
        reason=verdicts[-1].reason,
    )
    # Nothing substantive follows the verdict — only phase-end marks
    # (the search phase closes in a finally after the verdict is known).
    tail = sink.events[sink.events.index(verdicts[-1]) + 1 :]
    assert all(e.kind == "phase" and e.mark == "end" for e in tail)
    assert sink.events[0].kind == "check-started"

    # Solved-view events match the returned witness on the allowed side.
    if plain.allowed and plain.views:
        solved = {e.proc: " ".join(e.order) for e in sink.of_kind("view-solved")}
        for proc, view in plain.views.items():
            ops_text = " ".join(str(op) for op in view)
            assert solved.get(proc) == ops_text or solved.get("*") == ops_text

    # And the narration renders without error in both modes.
    assert "Verdict" in render_trace(sink.events)
    assert "Verdict" in render_trace(sink.events, markdown=True)


def _assert_prepass_traced_equals_untraced(spec, history):
    """The DENY battery: same verdict traced, one rule event per rule."""
    plain = prepass_check(spec, history)
    with tracing(RecordingSink()) as sink:
        traced = prepass_check(spec, history)
    assert traced == plain
    rules = sink.of_kind("prepass-rule")
    assert [e.rule for e in rules] == list(compile_prepass(spec).checks[: len(rules)])
    denies = [e for e in rules if e.outcome == "deny"]
    if plain.decided:
        assert [e.rule for e in denies] == [plain.check]
        assert denies[0].detail == plain.reason
    else:
        assert denies == []
    assert "rule rf-sanity" in render_trace(sink.events)


def test_global_sink_sees_the_same_stream_as_the_trace_kwarg():
    spec = MODELS["TSO"].spec
    history = CATALOG["fig1-sb"].history
    direct = RecordingSink()
    check_with_spec(spec, history, trace=direct)
    with tracing(RecordingSink()) as ambient:
        check_with_spec(spec, history)
    assert ambient.events == direct.events


def test_trace_kwarg_shadows_the_ambient_sink():
    spec = MODELS["SC"].spec
    history = CATALOG["fig1-sb"].history
    explicit = RecordingSink()
    with tracing(RecordingSink()) as ambient:
        check_with_spec(spec, history, trace=explicit)
    assert explicit.events
    assert ambient.events == []


def test_max_steps_elides_deep_searches():
    spec = MODELS["SC"].spec
    history = CATALOG["coww-cross"].history  # ~84 placement/backtrack steps
    sink = RecordingSink()
    check_with_spec(spec, history, trace=sink)
    full = render_trace(sink.events)
    capped = render_trace(sink.events, max_steps=1)
    assert "elided" in capped and "elided" not in full
    assert len(capped) < len(full)
