"""Incremental checking is byte-identical to one-shot checking.

The streaming refactor's acceptance bar: replaying any history op by op
through :class:`~repro.kernel.incremental.IncrementalCheck` must give —
at *every* prefix — the same verdict, reason, exploration count, witness
views and counterexample kind as a fresh
:func:`~repro.kernel.search.check_with_spec` of that prefix.  Plus the
substrate contracts: a grown plane equals a freshly
compiled one field for field, streams re-index and detect rescues, and
DENY results harden under :meth:`CheckResult.extend` while ADMITs refuse.
"""

from itertools import zip_longest

import pytest

from repro.checking.models import MODELS, resolve_models
from repro.core.serialization import history_from_dict, history_to_dict
from repro.kernel.constraints import (
    HistoryPlane,
    compile_constraints,
    extend_plane,
    history_plane,
)
from repro.kernel.incremental import HistoryStream, IncrementalCheck
from repro.kernel.results import CheckResult
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG, parse_history

SPEC_MODELS = resolve_models("spec")


def interleaved(history):
    """The history's operations, round-robin across processors.

    Per-processor program order is preserved (the stream re-indexes each
    op onto its processor's tail), while consecutive appends alternate
    processors — the adversarial order for prefix reuse, since almost
    every append touches a different processor than the last.
    """
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
    views = sorted(result.views.items(), key=lambda kv: str(kv[0]))
    return (
        result.allowed,
        result.explored,
        result.reason,
        result.counterexample.kind if result.counterexample else None,
        [(str(proc), [str(op) for op in view]) for proc, view in views],
    )


def assert_stream_parity(history, models=SPEC_MODELS):
    for name in models:
        spec = MODELS[name].spec
        stream = HistoryStream()
        inc = IncrementalCheck(spec, stream)
        inc.check()
        for op in interleaved(history):
            placed, reused = stream.append(op)
            got = inc.on_appended((placed,), reused)
            want = check_with_spec(spec, stream.history)
            assert fingerprint(got) == fingerprint(want), (
                f"{name} at {len(stream.history.operations)} ops"
            )


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_prefix_parity(name):
    """Every catalog history × spec model × prefix."""
    assert_stream_parity(CATALOG[name].history)


@pytest.mark.parametrize(
    "text",
    [
        # Regression: an appended read's own-view constraints gain
        # *outgoing* edges, flipping a remembered-stuck candidate to
        # cyclic — fresh search rejects it uncounted, so the replay must
        # re-probe the acyclicity gate (found by the incremental fuzz
        # oracle; explored diverged while the DENY verdict agreed).
        "p0: w(x)2 | p1: w(x)5 r(x)2 | p2: w(x)7 w(x)8 r(x)0",
        "p0: r(x)2 w(x)2 w(x)3 | p1: w(x)4 w(x)5 r(x)4",
        # Ambiguous attribution (duplicate write values): reuse must
        # stand down, verdicts still identical.
        "p: w(x)1 | q: w(x)1 | r: r(x)1",
        "p: w(x)1 | q: w(x)1 r(x)1 | r: r(x)1 r(x)0",
        # A rescue mid-stream: the read of 2 is appended before w(x)2
        # exists on the other processor, then the write arrives.
        "p: r(x)2 | q: w(x)2",
    ],
)
def test_adversarial_prefix_parity(text):
    assert_stream_parity(parse_history(text))


def test_labeled_discipline_prefix_parity():
    """RC models skip failure memory but still stream byte-identically."""
    labeled = [
        n
        for n in SPEC_MODELS
        if MODELS[n].spec.labeled_discipline is not None
    ]
    assert labeled, "expected at least one labeled-discipline spec"
    h = parse_history("p: w*(s)1 w(x)1 r*(s)1 | q: w*(s)2 r(x)0 r*(s)2")
    assert any(op.labeled for op in h.operations)
    assert_stream_parity(h, models=labeled)


# -- the plane substrate ------------------------------------------------------


def plane_fingerprint(plane):
    from repro.spec.parameters import OperationSet

    def vp(v):
        return (v.proc, v.members, v.bits)

    return {
        "ops": plane.ops,
        "index": plane.index,
        "n": plane.n,
        "uni_loc": plane.uni_loc,
        "uni_read": plane.uni_read,
        "uni_write": plane.uni_write,
        "writers_by_loc": plane.writers_by_loc,
        "write_idx": plane.write_idx,
        "ranges": plane.ranges,
        "masks": plane.masks,
        "candidates": plane.candidates,
        "unique_rf": plane.unique_rf,
        "views": {
            (str(opset), str(proc)): vp(v)
            for opset in OperationSet
            for proc, v in plane.views(opset).items()
        },
        "universe": vp(plane.universe_plane),
    }


@pytest.mark.parametrize("name", list(CATALOG))
def test_grown_plane_equals_fresh_compile(name):
    """extend_plane produces the same plane a fresh compile would."""
    stream = HistoryStream()
    for op in interleaved(CATALOG[name].history):
        placed, reused = stream.append(op)
        if reused:
            fresh = HistoryPlane(stream.history)
            assert plane_fingerprint(stream.plane) == plane_fingerprint(
                fresh
            ), f"{name} at {len(stream.history.operations)} ops"


@pytest.mark.parametrize("name", list(CATALOG))
def test_grown_plane_semi_causal_rows_equal_fresh_compile(name):
    """PC's cached semi-causal rows: dropped on append, rebuilt as fresh.

    Every prefix is compiled for PC first, so the plane being grown holds
    the ``"sem"`` entry; after the append the grown plane must not carry a
    stale copy, and compiling PC on it must leave every mask entry equal
    to a fresh compile of a value-equal history.
    """
    spec = MODELS["PC"].spec
    stream = HistoryStream()
    for op in interleaved(CATALOG[name].history):
        _, reused = stream.append(op)
        grown = stream.plane
        rf = grown.unique_rf
        if rf is None:
            continue
        if reused:
            assert "sem" not in grown.masks
        compile_constraints(spec, stream.history).plane(rf, True)
        assert "sem" in grown.masks
        twin = history_from_dict(history_to_dict(stream.history))
        fresh_rf = history_plane(twin).unique_rf
        compile_constraints(spec, twin).plane(fresh_rf, True)
        assert grown.masks == history_plane(twin).masks, (
            f"{name} at {len(stream.history.operations)} ops"
        )


#: The IRIW denial core with three writes per writer, so coherence
#: candidates give the readers non-empty ``->rrb`` deltas, plus inert
#: initial-value reads that rescue nothing.
IRIW_STREAM = (
    "p: w(x)1 w(x)2 w(x)3 r(z)0 | q: w(x)4 w(x)5 w(x)6 r(z)0 "
    "| r: r(x)3 r(x)6 r(z)0 | s: r(x)6 r(x)3 r(z)0"
)


def test_pc_session_over_iriw_matches_fresh_checks():
    """A PC-only EngineSession agrees with one-shot checks at every prefix."""
    from repro.engine import EngineSession

    spec = MODELS["PC"].spec
    session = EngineSession(("PC",))
    verdicts = []
    for op in interleaved(parse_history(IRIW_STREAM)):
        got = session.append(op)["PC"]
        want = check_with_spec(spec, session.history)
        assert fingerprint(got) == fingerprint(want), (
            f"at {len(session.history.operations)} ops"
        )
        assert got.witness == want.witness
        verdicts.append(got.allowed)
    assert verdicts[0] and not verdicts[-1]


def test_extend_plane_is_what_the_stream_uses():
    h1 = parse_history("p: w(x)1")
    plane = HistoryPlane(h1)
    h2 = parse_history("p: w(x)1 r(x)1")
    grown = extend_plane(plane, h2, h2.operations[-1])
    assert plane_fingerprint(grown) == plane_fingerprint(HistoryPlane(h2))


# -- HistoryStream mechanics --------------------------------------------------


def test_stream_reindexes_appended_ops():
    from repro.litmus.dsl import parse_operations

    stream = HistoryStream()
    # Both ops parsed with index 0; the stream owns the numbering.
    (a,) = parse_operations("p", "w(x)1")
    (b,) = parse_operations("p", "r(x)1")
    pa, _ = stream.append(a)
    pb, _ = stream.append(b)
    assert (pa.index, pb.index) == (0, 1)
    assert [op.index for op in stream.history.ops_of("p")] == [0, 1]


def test_stream_detects_rescues():
    stream = HistoryStream()
    ops = interleaved(parse_history("p: r(x)2 | q: w(x)2"))
    _, first = stream.append(ops[0])  # the read: nothing to rescue
    assert first is True
    _, second = stream.append(ops[1])  # the write rescues the read
    assert second is False
    assert stream.last_reused is False


def test_long_stream_matches_one_shot():
    # 120 appends, far past the 64 operations the solver once refused:
    # every tenth prefix and the last, which denies under every paper
    # model, equal a fresh one-shot check field for field.
    from repro.core.serialization import check_result_to_dict
    from repro.engine import EngineSession
    from repro.litmus.dsl import parse_operations

    ops = []
    for i in range(1, 60):
        ops += parse_operations("p", f"w(x){i}") + parse_operations("q", f"r(x){i}")
    ops += parse_operations("q", "w(y)1 r(x)1")
    session = EngineSession()
    for n, op in enumerate(ops, 1):
        results = session.append(op)
        if n % 10 and n != len(ops):
            continue
        for name, res in results.items():
            one_shot = check_with_spec(MODELS[name].spec, session.history)
            assert check_result_to_dict(res) == check_result_to_dict(one_shot)
    assert len(session.history.operations) == 120
    assert session.denying() == session.models


def test_stream_seeded_with_history():
    h = parse_history("p: w(x)1 | q: r(x)1")
    stream = HistoryStream(h)
    assert len(stream) == 2
    (op,) = parse_history("q: r(x)1").operations
    placed, _ = stream.append(op)
    assert placed.index == 1  # q already had one op
    assert len(stream.history.operations) == 3


# -- CheckResult.extend -------------------------------------------------------


def test_deny_extends_admit_refuses():
    deny = CheckResult("SC", False, reason="nope", explored=3)
    extended = deny.extend(explored=5)
    assert (extended.allowed, extended.explored, extended.reason) == (
        False,
        5,
        "nope",
    )
    admit = CheckResult("SC", True, explored=1)
    with pytest.raises(ValueError):
        admit.extend(explored=2)


# -- session-level behavior ---------------------------------------------------


def test_incremental_check_owns_a_stream_by_default():
    inc = IncrementalCheck(MODELS["SC"].spec)
    (op,) = parse_history("p: w(x)1").operations
    result = inc.append(op)
    assert result.allowed
    assert len(inc.history.operations) == 1
    assert len(inc.results) == 1


def test_results_log_one_entry_per_check():
    spec = MODELS["SC"].spec
    inc = IncrementalCheck(spec)
    inc.check()
    for op in interleaved(parse_history("p: w(x)1 | q: r(x)1 r(x)0")):
        inc.append(op)
    assert len(inc.results) == 4  # baseline + three appends
    assert [r.allowed for r in inc.results] == [True, True, True, False]


def test_rescuing_append_can_flip_deny_back_to_admit():
    """A DENY is provisional while a future write can rescue a read."""
    spec = MODELS["SC"].spec
    inc = IncrementalCheck(spec)
    ops = interleaved(parse_history("p: w(x)1 w(x)2 | q: r(x)2"))
    verdicts = [inc.append(op).allowed for op in ops]
    # w(x)1 admits; r(x)2 observes a not-yet-written value (DENY); the
    # arriving w(x)2 rescues it (full recompile) and the prefix admits.
    assert verdicts == [True, False, True]


def test_deny_is_sticky_under_non_rescuing_appends():
    """A denied prefix stays denied when appends rescue no read."""
    spec = MODELS["SC"].spec
    inc = IncrementalCheck(spec)
    for op in interleaved(parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")):
        result = inc.append(op)
    assert not result.allowed  # the classic coherence violation
    # Fresh-value writes and initial-value reads rescue nothing; the
    # denial extends through the fast path and the resumed search alike.
    for text in ("p: w(y)7", "q: r(z)0", "p: r(y)7"):
        (op,) = parse_history(text).operations
        result = inc.append(op)
        assert not result.allowed


def test_custom_rule_sharing_a_registered_name_keeps_its_own_rows():
    """Plane growth dispatches on the rule object, not on its name.

    ``NoOrder`` names its empty ordering ``"po"``.  Growing the cached
    rows by name handed it program order's row on every append, so the
    session denied the coherence violation that the rule does not forbid.
    """
    from dataclasses import replace

    from repro.orders.relation import Relation
    from repro.spec.parameters import OrderingRule
    from repro.spec.registry import get_spec

    spec = replace(
        get_spec("PRAM"),
        name="NoOrder",
        ordering=OrderingRule("po", lambda h, rf, co: Relation(h.operations)),
    )
    history = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
    session = IncrementalCheck(spec)
    for op in history.operations:
        result = session.append(op)
    fresh = check_with_spec(spec, history)  # its own plane, never grown
    assert fresh.allowed
    assert fingerprint(result) == fingerprint(fresh)
