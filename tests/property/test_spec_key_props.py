"""``MemoryModelSpec.cache_key`` is injective over the parameter space.

The kernel memoizes compiled constraints on ``("kernel", cache_key)``
inside a relation memo, so two specs with equal keys share one compiled
plane.  The property: equal keys imply equal parameters, over every
combination the spec validation admits — including distinct ordering
rules that share a name, which a name-based key aliased.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SpecError
from repro.kernel.search import check_with_spec
from repro.litmus import parse_history
from repro.orders.memo import relation_memo
from repro.orders.relation import Relation
from repro.spec import MemoryModelSpec
from repro.spec.parameters import (
    CAUSAL,
    PO,
    PO_LOC,
    PO_SYNC,
    PPO,
    SEMI_CAUSAL,
    LabeledDiscipline,
    MutualConsistency,
    OperationSet,
    OrderingRule,
    partition_rule,
    session_rule,
)
from repro.spec.registry import get_spec


def _no_order(h, rf, co):
    return Relation(h.operations)


#: Every registered rule, plus custom rules named like registered ones.
RULES = (
    PO,
    PO_LOC,
    PO_SYNC,
    PPO,
    CAUSAL,
    SEMI_CAUSAL,
    session_rule("ryw"),
    session_rule("ryw", "mr", "mw", "wfr"),
    partition_rule(2),
    partition_rule(3),
    OrderingRule("po", _no_order),
    OrderingRule("ppo", _no_order),
    OrderingRule("sem", SEMI_CAUSAL.build),
)


def params(spec):
    return (
        spec.operation_set,
        spec.mutual_consistency,
        spec.ordering,
        spec.labeled_discipline,
        spec.bracketing,
        spec.ordering_own_view_only,
        spec.partition_blocks,
    )


FIELDS = {
    "operation_set": st.sampled_from(OperationSet),
    "mutual_consistency": st.sampled_from(MutualConsistency),
    "ordering": st.sampled_from(RULES),
    "labeled_discipline": st.sampled_from((None, *LabeledDiscipline)),
    "bracketing": st.booleans(),
    "ordering_own_view_only": st.booleans(),
    "partition_blocks": st.sampled_from((None, 1, 2, 3)),
}


def build(name, fields):
    try:
        return MemoryModelSpec(name=name, **fields)
    except SpecError:
        return None


@st.composite
def spec_pairs(draw):
    """Two specs that differ in at most one re-drawn parameter.

    Near neighbours are where aliasing hides: a key that drops or
    conflates one axis collides exactly on pairs like these.
    """
    fields = {k: draw(strategy) for k, strategy in FIELDS.items()}
    other = dict(fields)
    axis = draw(st.sampled_from((*sorted(FIELDS), "rule-name")))
    if axis == "rule-name":
        # Another rule under the same name (or the same rule).
        name = fields["ordering"].name
        other["ordering"] = draw(st.sampled_from([r for r in RULES if r.name == name]))
    else:
        other[axis] = draw(FIELDS[axis])
    return build("A", fields), build("B", other)


@given(pair=spec_pairs())
@settings(max_examples=1000, deadline=None)
def test_equal_keys_imply_equal_parameters(pair):
    a, b = pair
    if a is None or b is None:
        return
    assert (a.cache_key == b.cache_key) == (params(a) == params(b))
    if a.cache_key == b.cache_key:
        assert hash(a.cache_key) == hash(b.cache_key)


def test_rules_sharing_a_name_do_not_share_compiled_constraints():
    """Inside one memo, a same-named custom rule gets its own compile."""
    pram = get_spec("PRAM")
    no_order = replace(pram, name="NoOrder", ordering=OrderingRule("po", _no_order))
    h = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
    fresh = check_with_spec(no_order, parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1"))
    with relation_memo():
        assert not check_with_spec(pram, h).allowed
        assert check_with_spec(no_order, h).allowed == fresh.allowed
    assert fresh.allowed
