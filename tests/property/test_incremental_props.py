"""Property-based tests for incremental checking (hypothesis).

The streaming contract as a property: for a random history, replaying it
op by op through an :class:`~repro.kernel.incremental.IncrementalCheck`
gives — after every append — exactly the verdict a fresh one-shot
:func:`~repro.kernel.search.check_with_spec` gives on the same prefix,
across every spec-backed catalog model.
A second property drives the whole :class:`~repro.engine.EngineSession`
coordinator (shared stream + relation memo) to the same bar, and a third
pins stream bookkeeping (re-indexing, plane-reuse flags).
"""

from itertools import zip_longest

from hypothesis import HealthCheck, given, settings

from repro.checking.models import MODELS, resolve_models
from repro.engine import EngineSession
from repro.kernel.incremental import HistoryStream, IncrementalCheck
from repro.kernel.search import check_with_spec

from tests.property.test_history_strategies import history_strategy

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SPEC_MODELS = resolve_models("spec")


def interleaved(history):
    per_proc = {}
    for op in history.operations:
        per_proc.setdefault(op.proc, []).append(op)
    return [
        op
        for round_ops in zip_longest(*per_proc.values())
        for op in round_ops
        if op is not None
    ]


def fingerprint(result):
    return (
        result.allowed,
        result.explored,
        result.reason,
        result.counterexample.kind if result.counterexample else None,
        result.views,
    )


@given(history_strategy())
@RELAXED
def test_append_equals_fresh_check_of_extended_prefix(h):
    """append(op) ≡ a fresh full check of prefix+op, at every prefix."""
    for name in SPEC_MODELS:
        spec = MODELS[name].spec
        stream = HistoryStream()
        inc = IncrementalCheck(spec, stream)
        inc.check()
        for op in interleaved(h):
            placed, reused = stream.append(op)
            got = inc.on_appended((placed,), reused)
            want = check_with_spec(spec, stream.history)
            assert fingerprint(got) == fingerprint(want), (
                f"{name} at {len(stream.history.operations)} ops:\n{stream.history}"
            )


@given(history_strategy(labeled=True, max_procs=2))
@RELAXED
def test_labeled_streams_match_fresh_checks(h):
    """Labeled ops (RC disciplines) stream without failure memory."""
    labeled = [
        n
        for n in SPEC_MODELS
        if MODELS[n].spec.labeled_discipline is not None
    ]
    for name in labeled:
        spec = MODELS[name].spec
        inc = IncrementalCheck(spec)
        for op in interleaved(h):
            got = inc.append(op)
            want = check_with_spec(spec, inc.history)
            assert fingerprint(got) == fingerprint(want), f"{name}\n{h}"


@given(history_strategy(max_procs=2))
@RELAXED
def test_engine_session_matches_one_shot(h):
    """The multi-model coordinator preserves per-model byte-parity."""
    session = EngineSession(("SC", "PRAM", "Causal"))
    for op in interleaved(h):
        results = session.append(op)
        for name, got in results.items():
            want = check_with_spec(MODELS[name].spec, session.history)
            assert fingerprint(got) == fingerprint(want), f"{name}\n{h}"


@given(history_strategy())
@RELAXED
def test_stream_rebuilds_exactly_the_input_history(h):
    """Appending a history op by op reconstructs it, indices and all."""
    stream = HistoryStream()
    for op in interleaved(h):
        stream.append(op)
    assert set(stream.history.procs) == set(h.procs)
    for proc in h.procs:
        assert list(stream.history.ops_of(proc)) == list(h.ops_of(proc))
