"""Property tests: the kernel agrees with every other decision procedure.

Three independent implementations exist for most models — the kernel's
generic search, a hand-written fast checker, and an operational machine.
Any disagreement on any history is a bug in one of them.  Swept over the
full litmus catalog plus seeded random histories.
"""

import numpy as np
import pytest

from repro.analysis import machine_history, random_history
from repro.checking import MODELS
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.machines import MACHINE_MODEL_PAIRS

#: Spec models with an independent fast path (the rest are decided by the
#: kernel, so comparing them with it would be a tautology).
FAST_MODELS = tuple(
    name for name, m in MODELS.items() if m.spec is not None and m.fast is not None
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
