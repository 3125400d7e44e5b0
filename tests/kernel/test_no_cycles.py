"""The check path leaves no reference cycles behind.

Every object a check allocates is freed by reference counting when the
check returns, so the cyclic collector has nothing to find: no search
builds a self-referencing closure, and no trace event is kept alive by
one.  Garbage the collector *would* have to find shows up in
``gc.garbage`` under ``gc.DEBUG_SAVEALL``.

``explain_with_spec`` is out of scope: its cyclic-counterexample path
reconstructs the cycle on the ``Relation`` plane.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Callable

import numpy as np
import pytest

from repro.analysis.random_histories import random_history
from repro.checking.models import MODELS, check, resolve_models
from repro.kernel.search import check_with_spec
from repro.litmus.catalog import CATALOG
from repro.obs.sink import RecordingSink

SPEC_MODELS = resolve_models("spec")


def _histories():
    rng = np.random.default_rng(7)
    return [entry.history for entry in CATALOG.values()] + [
        random_history(rng, procs=3, ops_per_proc=3, p_write=0.5)
        for _ in range(30)
    ]


def _cyclic_garbage(run: Callable[[], None]) -> Counter:
    """Types of the objects only the cyclic collector could free after ``run``."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_spec_models_cover_the_registry():
    assert len(SPEC_MODELS) == 19


@pytest.mark.parametrize("path", ["check", "check_with_spec-traced"])
def test_check_path_leaves_no_cycles(path):
    histories = _histories()

    def run() -> None:
        for history in histories:
            for name in SPEC_MODELS:
                if path == "check":
                    check(history, name)
                else:
                    check_with_spec(MODELS[name].spec, history, trace=RecordingSink())

    assert _cyclic_garbage(run) == Counter()
