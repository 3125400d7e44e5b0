"""Property tests: the kernel agrees with every other decision procedure.

Up to three independent implementations exist per model — the kernel's
generic search, a hand-written fast checker (TSO only), and an
operational machine.  Any disagreement on any history is a bug in one
of them.  Every other model's ``check`` *is* the kernel, field for
field.  Swept over the full litmus catalog plus seeded random histories.
"""

import numpy as np
import pytest

from repro.analysis import machine_history, random_history
from repro.checking import MODELS, check
from repro.core.serialization import check_result_to_dict
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.machines import MACHINE_MODEL_PAIRS

#: Spec models with an independent fast path (the rest are decided by the
#: kernel, so comparing them with it would be a tautology).
FAST_MODELS = tuple(
    name for name, m in MODELS.items() if m.spec is not None and m.fast is not None
)

#: Spec models ``check`` decides with the kernel alone.
KERNEL_MODELS = tuple(
    name for name, m in MODELS.items() if m.spec is not None and m.fast is None
)


def _random_histories(n=200, seed=20260806):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        procs = 2 + (i % 2)  # alternate 2- and 3-processor shapes
        out.append(
            random_history(rng, procs=procs, ops_per_proc=3, locations=("x", "y"))
        )
    return out


@pytest.mark.parametrize("model", FAST_MODELS)
def test_kernel_agrees_with_fast_checker_on_catalog(model):
    m = MODELS[model]
    for name, test in CATALOG.items():
        h = test.history
        assert check_with_spec(m.spec, h).allowed == m.check(h).allowed, (
            f"{model} disagrees with kernel on {name}"
        )


@pytest.mark.parametrize("model", FAST_MODELS)
def test_kernel_agrees_with_fast_checker_on_random_histories(model):
    m = MODELS[model]
    for h in _random_histories():
        assert check_with_spec(m.spec, h).allowed == m.check(h).allowed, (
            f"{model} disagrees with kernel on:\n{h}"
        )


def _assert_check_is_the_kernel(model, histories):
    spec = MODELS[model].spec
    for h in histories:
        assert check_result_to_dict(check(h, model)) == check_result_to_dict(
            check_with_spec(spec, h)
        ), f"{model}: check() differs from the kernel on:\n{h}"


@pytest.mark.parametrize("model", KERNEL_MODELS)
def test_check_is_the_kernel_on_catalog(model):
    # One decider: verdict, reason, explored, views and witness are the
    # kernel's (SC and PRAM lost their fast paths in E30).
    _assert_check_is_the_kernel(model, (t.history for t in CATALOG.values()))


@pytest.mark.parametrize("model", KERNEL_MODELS)
def test_check_is_the_kernel_on_random_histories(model):
    rng = np.random.default_rng(20261019)
    _assert_check_is_the_kernel(
        model,
        (
            random_history(rng, procs=3, ops_per_proc=3, locations=("x", "y"))
            for _ in range(60)
        ),
    )


def test_catalog_expectations_hold_under_kernel():
    """The catalog's recorded per-model verdicts are kernel verdicts too."""
    for name, test in CATALOG.items():
        h = test.history
        for model, expected in test.expected.items():
            spec = MODELS[model].spec
            if spec is None:
                continue
            assert check_with_spec(spec, h).allowed == expected, (
                f"catalog expectation {name} × {model}"
            )


@pytest.mark.parametrize("machine_cls,model", MACHINE_MODEL_PAIRS)
def test_machine_traces_allowed_by_kernel(machine_cls, model):
    """Operational ⊆ declarative, with the kernel as the decider."""
    spec = MODELS[model].spec
    if spec is None:
        pytest.skip(f"{model} has no framework spec")
    rng = np.random.default_rng(hash(model) % 2**31)
    for _ in range(20):
        machine = machine_cls(("p", "q"))
        h = machine_history(machine, rng, ops_per_proc=3)
        assert check_with_spec(spec, h).allowed, (
            f"{machine.name} trace rejected by kernel {model}:\n{h}"
        )
