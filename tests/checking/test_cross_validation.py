"""Cross-validation: the registry's ``check`` agrees with the generic solver.

TSO's greedy fast path is an independent implementation of the
definition the generic spec-driven solver interprets; any disagreement
on any history is a bug in one of them.  SC and PRAM had fast paths too
(E30 removed them); their cases now pin that the registry routes them
to the kernel.  Swept over the full canonical 2×2 space plus random
larger histories.
"""

import itertools

import numpy as np
import pytest

from repro.analysis import random_history
from repro.checking import MODELS
from repro.lattice import HistorySpace, canonical_histories

#: TSO has a fast path; SC and PRAM are decided by the kernel.
FAST_MODELS = ("SC", "TSO", "PRAM")


def canonical_2x2():
    return canonical_histories(HistorySpace(procs=2, ops_per_proc=2))


@pytest.mark.parametrize("model", FAST_MODELS)
def test_fast_agrees_with_generic_on_2x2_space(model):
    m = MODELS[model]
    for h in canonical_2x2():
        fast = m.check(h).allowed
        generic = m.check_generic(h).allowed
        assert fast == generic, f"{model} disagrees on:\n{h}"


@pytest.mark.parametrize("model", FAST_MODELS)
def test_fast_agrees_with_generic_on_random_histories(model):
    m = MODELS[model]
    rng = np.random.default_rng(99)
    for _ in range(60):
        h = random_history(rng, procs=2, ops_per_proc=3, locations=("x", "y"))
        fast = m.check(h).allowed
        generic = m.check_generic(h).allowed
        assert fast == generic, f"{model} disagrees on:\n{h}"


def test_fast_agrees_on_three_processors():
    rng = np.random.default_rng(7)
    for _ in range(25):
        h = random_history(rng, procs=3, ops_per_proc=2, locations=("x", "y"))
        for model in FAST_MODELS:
            m = MODELS[model]
            assert m.check(h).allowed == m.check_generic(h).allowed, (
                f"{model} disagrees on:\n{h}"
            )


def test_witness_views_satisfy_spec_requirements():
    """Positive verdicts carry views that really do include δ_p and legality."""
    from repro.core.view import check_view_contents, is_legal_sequence

    for h in itertools.islice(canonical_2x2(), 80):
        for model in ("TSO", "PRAM", "Causal", "PC"):
            res = MODELS[model].check(h)
            if not res.allowed:
                continue
            for proc, view in res.views.items():
                assert is_legal_sequence(list(view)), f"{model} illegal view:\n{h}"
                check_view_contents(list(view), h, proc)
                # δ_p = remote writes must all be present.
                present = {op.uid for op in view}
                for w in h.remote_writes(proc):
                    assert w.uid in present, f"{model} view missing {w}:\n{h}"
