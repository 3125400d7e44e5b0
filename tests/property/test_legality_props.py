"""Property-based tests for legality and the extension kernel."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel import find_legal_extension, iter_legal_extensions
from repro.core.view import first_legality_violation, is_legal_sequence
from repro.orders import po_relation
from repro.orders.relation import Relation

from tests.property.test_history_strategies import history_strategy

RELAXED = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(history_strategy(max_procs=2, max_ops=3))
@RELAXED
def test_found_extensions_are_legal_linear_extensions(h):
    rel = po_relation(h)
    out = find_legal_extension(h.operations, rel)
    if out is not None:
        assert is_legal_sequence(out)
        assert rel.is_linear_extension(out)
        assert sorted(op.uid for op in out) == sorted(op.uid for op in h.operations)


@given(history_strategy(max_procs=2, max_ops=2))
@RELAXED
def test_iter_agrees_with_find(h):
    rel = po_relation(h)
    found = find_legal_extension(h.operations, rel)
    any_iter = next(iter(iter_legal_extensions(h.operations, rel, limit=1)), None)
    assert (found is None) == (any_iter is None)


@given(history_strategy(max_procs=2, max_ops=2))
@RELAXED
def test_every_enumerated_extension_is_distinct_and_valid(h):
    rel = po_relation(h)
    seen = set()
    for seq in iter_legal_extensions(h.operations, rel, limit=50):
        key = tuple(op.uid for op in seq)
        assert key not in seen
        seen.add(key)
        assert is_legal_sequence(seq)


@given(history_strategy(max_procs=2, max_ops=3))
@RELAXED
def test_adding_constraints_never_creates_solutions(h):
    unconstrained = find_legal_extension(h.operations, Relation(h.operations))
    constrained = find_legal_extension(h.operations, po_relation(h))
    if unconstrained is None:
        assert constrained is None


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_legality_violation_position_is_first(prefix_values):
    """The reported violation is the earliest one."""
    from repro.core.operation import read

    ops = [read("p", i, "x", v) for i, v in enumerate(prefix_values)]
    violation = first_legality_violation(ops)
    if violation is None:
        assert all(v == 0 for v in prefix_values)
    else:
        pos, _, _ = violation
        assert all(v == 0 for v in prefix_values[:pos])
        assert prefix_values[pos] != 0
