"""E11 — the constraint kernel's generic solver on the litmus catalog.

The kernel refactor claimed at least a 2× speedup over the pre-kernel
generic solver on the catalog × spec sweep; the last measurement before
that solver was deleted was 8.98× (EXPERIMENTS.md E25).  Its answers
survive as ``tests/kernel/data/legacy_lock.json``, so the sweep here
asserts the kernel's verdicts equal the lock before timing anything.
"""

import json
from pathlib import Path

import pytest

from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.spec import ALL_SPECS

LOCK = Path(__file__).resolve().parents[1] / "tests" / "kernel" / "data" / "legacy_lock.json"

# Hoist the histories once: ``LitmusTest.history`` builds a fresh object
# per access, and the kernel's history-plane cache is identity-keyed.
HISTORIES = {name: t.history for name, t in CATALOG.items()}
PAIRS = [(name, spec) for name in HISTORIES for spec in ALL_SPECS]


def _sweep() -> dict[tuple[str, str], bool]:
    return {
        (name, spec.name): check_with_spec(spec, HISTORIES[name]).allowed
        for name, spec in PAIRS
    }


def test_kernel_verdicts_match_lock():
    """A fast wrong answer is not a speedup: the sweep equals the lock."""
    lock = {
        (r["history"], r["spec"]): r["allowed"]
        for r in json.loads(LOCK.read_text(encoding="utf-8"))
        if r["history"] in HISTORIES
    }
    assert _sweep() == lock


def test_bench_generic_solver_catalog(benchmark):
    benchmark.group = "generic solver: catalog x all specs"
    benchmark(_sweep)


@pytest.mark.parametrize(
    "name", ["fig1-sb", "iriw", "fig4-causal-not-tso", "2+2w-observed"]
)
def test_bench_generic_solver_single(benchmark, name):
    benchmark.group = f"generic solver: {name}"
    h = HISTORIES[name]

    def one():
        return [check_with_spec(spec, h).allowed for spec in ALL_SPECS]

    benchmark(one)
