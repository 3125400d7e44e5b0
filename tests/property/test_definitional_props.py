"""Property: the definitional oracle and the kernel agree on random histories."""

from hypothesis import HealthCheck, given, settings

from repro.checking.definitional import definitional_allowed
from repro.kernel import check_with_spec
from repro.spec import ALL_SPECS

from tests.property.test_history_strategies import history_strategy

RELAXED = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _agree(h):
    for spec in ALL_SPECS:
        assert definitional_allowed(spec, h) == check_with_spec(spec, h).allowed, (
            f"{spec.name} on:\n{h}"
        )


@given(history_strategy(max_procs=2, max_ops=4))
@RELAXED
def test_agrees_on_two_procs(h):
    _agree(h)


@given(history_strategy(max_procs=4, max_ops=2, labeled=True))
@RELAXED
def test_agrees_on_labeled_histories(h):
    _agree(h)
