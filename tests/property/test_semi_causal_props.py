"""The kernel's compiled semi-causality equals the definitional relation.

``CompiledConstraints.ordering_masks`` assembles PC's ``->sem`` per
coherence candidate from rows compiled once per attribution plus the
candidate's ``->rrb`` delta.  The property: for every attribution
:func:`~repro.kernel.rf.iter_attributions` yields and every coherence
order :func:`~repro.orders.coherence.enumerate_coherence_orders` yields,
the masks equal ``sem_relation(h, rf, co).pred_masks(ops)`` exactly, and
the batched gate (the active backend) treats both identically, under
either backend.  Histories mix reads, writes and RMWs, repeat write values
(several attributions), read initial values, and include shapes whose
``->sem`` is cyclic.
"""

from math import factorial, prod

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.checking.models import MODELS
from repro.core.history import HistoryBuilder
from repro.kernel.backend import use_backend
from repro.kernel.constraints import compile_constraints, history_plane
from repro.kernel.rf import iter_attributions
from repro.kernel.search import _gate_chunk
from repro.kernel.serializations import MutualCandidate
from repro.litmus import parse_history
from repro.orders.coherence import enumerate_coherence_orders
from repro.orders.semi_causal import sem_relation

PC = MODELS["PC"].spec

#: Upper bound on (attributions x coherence orders) per history, so every
#: candidate can be enumerated.
MAX_CANDIDATES = 400

#: ``r(x)1`` reads ``w(x)1``; with ``w(x)1`` coherence-before ``w(x)2``,
#: ``r(x)1 ->rrb w(z)3 ->rwb r(y)4 ->ppo r(x)1`` closes a cycle.
CYCLIC_SEM = "p: w(x)1 | q: w(x)2 w(z)3 w(y)4 | t: r(y)4 r(x)1"
#: The RMW reads a write program-ordered after it: ``->rwb`` self-loop.
RMW_SELF_LOOP = "p: u(x)5->1 w(x)5 | q: r(x)1"
#: Duplicate write values and initial-value reads: several attributions.
AMBIGUOUS = "p: w(x)1 w(y)1 | q: w(x)1 r(y)0 | t: r(x)1 r(y)1"


@st.composite
def rmw_history(draw, max_procs=3, max_ops=3):
    """Small histories over reads, writes and RMWs with repeated values."""
    builder = HistoryBuilder()
    for pi in range(draw(st.integers(1, max_procs))):
        builder.proc(f"p{pi}")
        for _ in range(draw(st.integers(1, max_ops))):
            loc = draw(st.sampled_from(("x", "y")))
            kind = draw(st.sampled_from("rwu"))
            if kind == "r":
                builder.read(loc, draw(st.integers(0, 2)))
            elif kind == "w":
                builder.write(loc, draw(st.integers(1, 2)))
            else:
                builder.rmw(loc, draw(st.integers(0, 2)), draw(st.integers(1, 2)))
    return builder.build()


def candidate_count(h):
    orders = prod(factorial(len(h.writes_to(loc))) for loc in h.locations)
    cands = history_plane(h).candidates
    return orders * prod(max(len(c), 1) for c in cands.values())


def assert_compiled_sem_matches(h):
    cc = compile_constraints(PC, h)
    unique = history_plane(h).unique_rf is not None
    for rf in iter_attributions(h, 4096):
        plane = cc.plane(rf, unique)
        cands = []
        got, want = [], []
        for co in enumerate_coherence_orders(h):
            cands.append(MutualCandidate(co, tuple(co.values())))
            got.append(cc.ordering_masks(plane, co))
            want.append(sem_relation(h, rf, co).pred_masks(cc.ops))
            assert got[-1] == want[-1], f"{co} under {rf}:\n{h}"
        assert _gate_chunk(cc, plane, cands, got) == _gate_chunk(
            cc, plane, cands, want
        )


@pytest.mark.parametrize("backend", ["python", "numpy"])
@given(h=rmw_history())
@example(h=parse_history(CYCLIC_SEM))
@example(h=parse_history(RMW_SELF_LOOP))
@example(h=parse_history(AMBIGUOUS))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_compiled_sem_equals_sem_relation(backend, h):
    assume(candidate_count(h) <= MAX_CANDIDATES)
    with use_backend(backend):
        assert_compiled_sem_matches(h)


def test_examples_reach_the_interesting_shapes():
    """The pinned examples really exercise a cycle and several attributions."""
    h = parse_history(CYCLIC_SEM)
    (rf,) = iter_attributions(h, 4096)
    cyclic = [
        not sem_relation(h, rf, co).is_acyclic()
        for co in enumerate_coherence_orders(h)
    ]
    assert any(cyclic) and not all(cyclic)
    h = parse_history(RMW_SELF_LOOP)
    (rf,) = iter_attributions(h, 4096)
    (co,) = enumerate_coherence_orders(h, rf)
    u = h.operations[0]
    assert sem_relation(h, rf, co).orders(u, u)
    assert len(list(iter_attributions(parse_history(AMBIGUOUS), 4096))) > 1
