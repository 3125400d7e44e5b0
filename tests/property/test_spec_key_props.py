"""Specs whose ordering rules share a name never share compiled constraints.

The kernel's plane cache keeps the spec-independent substrate of a
history; each ordering rule's masks live there under the rule object, not
under its display name.  Two rules named alike but building different
relations must therefore each compile their own masks, even when both
specs check one and the same history object.
"""

from dataclasses import replace

from repro.kernel.search import check_with_spec
from repro.litmus import parse_history
from repro.orders.relation import Relation
from repro.spec.parameters import OrderingRule
from repro.spec.registry import get_spec


def _no_order(h, rf, co):
    return Relation(h.operations)


def test_rules_sharing_a_name_do_not_share_compiled_constraints():
    """On one history object, a same-named custom rule gets its own masks."""
    pram = get_spec("PRAM")
    no_order = replace(pram, name="NoOrder", ordering=OrderingRule("po", _no_order))
    h = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
    fresh = check_with_spec(no_order, parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1"))
    assert not check_with_spec(pram, h).allowed
    assert check_with_spec(no_order, h).allowed == fresh.allowed
    assert fresh.allowed
