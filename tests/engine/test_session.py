"""EngineSession: one stream, many models, verdicts identical to one-shot."""

import pytest

from repro.checking.models import MODELS, PAPER_MODELS
from repro.core.errors import EngineError
from repro.engine import EngineSession, parse_op_line
from repro.kernel import check_with_spec
from repro.litmus import parse_history


def test_defaults_to_the_paper_model_set():
    session = EngineSession()
    assert session.models == PAPER_MODELS
    assert set(session.verdicts()) == set(PAPER_MODELS)
    assert all(session.verdicts().values())  # empty history admits


def test_append_checks_every_model_against_one_shared_stream():
    session = EngineSession(("SC", "PRAM", "Coherence"))
    for line in ("p: w(x)1", "q: r(x)1", "q: r(x)0"):
        for op in parse_op_line(line):
            results = session.append(op)
    assert session.denying() == ("SC", "PRAM", "Coherence")
    assert len(session.history.operations) == 3
    # Byte-parity with the one-shot kernel for every model.
    for name, got in results.items():
        want = check_with_spec(MODELS[name].spec, session.history)
        assert (got.allowed, got.reason, got.explored, got.views) == (
            want.allowed,
            want.reason,
            want.explored,
            want.views,
        )


def test_seed_history_is_checked_at_init():
    seed = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
    session = EngineSession(("SC", "Causal"), history=seed)
    assert session.verdicts() == {"SC": False, "Causal": False}
    assert len(session.history.operations) == 4


def test_append_line_returns_per_op_verdicts():
    session = EngineSession(("SC",))
    out = session.append_line("p: w(y)2 r(y)2")
    assert [str(op) for op, _ in out] == ["w_p(y)2", "r_p(y)2"]
    assert all(res["SC"].allowed for _, res in out)


def test_append_line_echoes_the_placed_op_not_the_list_tail():
    """Appending to a processor that is not last in the history must
    report *that* processor's new op (history.operations groups by
    processor, so the newest op is rarely the list tail)."""
    seed = parse_history("p: w(x)1 | q: r(x)1")
    session = EngineSession(("SC",), history=seed)
    out = session.append_line("p: r(y)7")
    assert [str(op) for op, _ in out] == ["r_p(y)7"]


def test_rejects_unknown_and_spec_less_models():
    with pytest.raises(EngineError, match="unknown model"):
        EngineSession(("SC", "NOPE"))
    with pytest.raises(EngineError, match="spec-backed"):
        EngineSession(("TSO-axiomatic",))
    with pytest.raises(EngineError, match="at least one model"):
        EngineSession(())
    with pytest.raises(EngineError, match="did you mean read-your-writes"):
        EngineSession(["ryw"])


def test_parse_op_line_errors():
    with pytest.raises(EngineError, match="bad op line"):
        parse_op_line("no colon here")
    with pytest.raises(EngineError, match="bad op line"):
        parse_op_line("p: q(x)1")
    ops = parse_op_line("  p:   w(x)1   r(x)1 ")
    assert [str(o) for o in ops] == ["w_p(x)1", "r_p(x)1"]


def test_interleaved_sessions_stay_correct():
    """Two sessions sharing the kernel's single plane slot don't corrupt
    each other — losing plane reuse is a performance event, never a
    verdict event."""
    a = EngineSession(("SC",))
    b = EngineSession(("SC",))
    a.append_line("p: w(x)1")
    b.append_line("p: w(x)1 w(x)2")
    a.append_line("q: r(x)1")
    b.append_line("q: r(x)2 r(x)1")
    assert a.verdicts() == {"SC": True}
    assert b.verdicts() == {"SC": False}
    for s in (a, b):
        want = check_with_spec(MODELS["SC"].spec, s.history)
        assert s.last_results["SC"].allowed == want.allowed
        assert s.last_results["SC"].explored == want.explored


def test_counters_equal_the_session_stats_sink_totals():
    """The sessions' own counters match what the trace events total."""
    from repro.checking.models import resolve_models
    from repro.litmus import CATALOG
    from repro.obs import SessionStatsSink, tracing

    models = resolve_models("spec")
    for name, entry in CATALOG.items():
        with tracing(SessionStatsSink()) as sink:
            session = EngineSession(models)
            for op in entry.history.operations:
                session.append(op)
        assert session.counters() == sink.session_counters(), name
        assert session.counters()["appends"] == len(models) * len(
            entry.history.operations
        )
