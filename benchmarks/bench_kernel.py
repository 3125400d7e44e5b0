"""E11 — constraint kernel vs the pre-kernel generic solver.

The kernel refactor's performance claim: compiling a spec's three
parameters onto the bitmask plane (and sharing the history-level plane
across specs) makes the generic solver at least twice as fast on the
litmus catalog.  The frozen legacy solver is kept verbatim in
``repro.checking._legacy_solver`` as the baseline, so the comparison
stays honest as the kernel evolves.
"""

import time

import pytest

from repro.checking._legacy_solver import legacy_check_with_spec
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.spec import ALL_SPECS

# Hoist the histories once: ``LitmusTest.history`` builds a fresh object
# per access, and the kernel's history-plane cache is identity-keyed.
HISTORIES = [t.history for t in CATALOG.values()]
PAIRS = [(spec, h) for h in HISTORIES for spec in ALL_SPECS]


def _sweep(check):
    verdicts = 0
    for spec, h in PAIRS:
        if check(spec, h).allowed:
            verdicts += 1
    return verdicts


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_kernel_speedup_over_legacy_on_catalog():
    """The acceptance bar: ≥2× on the full catalog × spec sweep."""
    # Same verdicts first — a fast wrong answer is not a speedup.
    assert _sweep(check_with_spec) == _sweep(legacy_check_with_spec)
    legacy = _best_of(lambda: _sweep(legacy_check_with_spec), 5)
    kernel = _best_of(lambda: _sweep(check_with_spec), 5)
    speedup = legacy / kernel
    print(
        f"\ncatalog x {len(ALL_SPECS)} specs: "
        f"legacy {legacy * 1e3:.1f}ms, kernel {kernel * 1e3:.1f}ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 2.0, f"kernel speedup regressed: {speedup:.2f}x < 2x"


@pytest.mark.parametrize("which", ["legacy", "kernel"])
def test_bench_generic_solver_catalog(benchmark, which):
    benchmark.group = "generic solver: catalog x all specs"
    check = legacy_check_with_spec if which == "legacy" else check_with_spec
    benchmark(lambda: _sweep(check))


@pytest.mark.parametrize(
    "name", ["fig1-sb", "iriw", "fig4-causal-not-tso", "2+2w-observed"]
)
@pytest.mark.parametrize("which", ["legacy", "kernel"])
def test_bench_generic_solver_single(benchmark, which, name):
    benchmark.group = f"generic solver: {name}"
    check = legacy_check_with_spec if which == "legacy" else check_with_spec
    h = CATALOG[name].history

    def one():
        return [check(spec, h).allowed for spec in ALL_SPECS]

    benchmark(one)
