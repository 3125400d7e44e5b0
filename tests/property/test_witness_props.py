"""Property test: every positive verdict's witness validates independently."""

from hypothesis import HealthCheck, given, settings

from repro.checking import MODELS
from repro.checking.witness import validate_witness
from repro.orders.writes_before import unambiguous_reads_from

from tests.property.test_history_strategies import history_strategy

RELAXED = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

VALIDATABLE = (
    "SC", "TSO", "PC", "PRAM", "Causal", "Coherence", "Slow", "Hybrid",
    "partition-2", "partition-3",
)


@given(history_strategy(max_procs=2, max_ops=3))
@RELAXED
def test_witnesses_validate(h):
    if unambiguous_reads_from(h) is None:
        return  # validation requires the litmus discipline
    for model in VALIDATABLE:
        m = MODELS[model]
        result = m.check(h)
        if result.allowed:
            problems = validate_witness(m.spec, h, result.views)
            assert problems == [], f"{model} invalid witness:\n{h}\n{problems}"


@given(history_strategy(max_procs=3, max_ops=2))
@RELAXED
def test_witnesses_validate_three_procs(h):
    if unambiguous_reads_from(h) is None:
        return
    for model in ("TSO", "PRAM", "Coherence"):
        m = MODELS[model]
        result = m.check(h)
        if result.allowed:
            assert validate_witness(m.spec, h, result.views) == [], f"{model}:\n{h}"
