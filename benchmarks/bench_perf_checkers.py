"""E10a — checker performance and scaling.

The reproduction band notes pure-Python checking is workable but slow on
large traces; this experiment quantifies it: per-checker latency on the
paper's figures, scaling of the SC/TSO/PRAM checkers with history size,
and the cost split between the fast paths and the generic solver.
"""

import numpy as np
import pytest

from repro.analysis import random_history
from repro.checking import MODELS, check
from repro.litmus import CATALOG

FIG1 = CATALOG["fig1-sb"].history
FIG2 = CATALOG["fig2-pc-not-tso"].history
FIG4 = CATALOG["fig4-causal-not-tso"].history


@pytest.mark.parametrize(
    "model", ["SC", "TSO", "PC", "PRAM", "Causal", "Coherence", "TSO-axiomatic"]
)
def test_bench_checker_on_fig1(benchmark, model):
    benchmark.group = "fig1 per checker"
    result = benchmark(lambda: check(FIG1, model))
    assert result.allowed in (True, False)


@pytest.mark.parametrize("ops", [2, 3, 4, 5])
def test_bench_sc_scaling(benchmark, ops):
    benchmark.group = "SC scaling (2 procs, N ops each)"
    rng = np.random.default_rng(ops)
    histories = [
        random_history(rng, procs=2, ops_per_proc=ops, locations=("x", "y"))
        for _ in range(10)
    ]

    def sweep():
        return sum(1 for h in histories if check(h, "SC").allowed)

    benchmark(sweep)


@pytest.mark.parametrize("ops", [2, 3, 4])
def test_bench_tso_scaling(benchmark, ops):
    benchmark.group = "TSO scaling (2 procs, N ops each)"
    rng = np.random.default_rng(100 + ops)
    histories = [
        random_history(rng, procs=2, ops_per_proc=ops, locations=("x", "y"))
        for _ in range(10)
    ]

    def sweep():
        return sum(1 for h in histories if check(h, "TSO").allowed)

    benchmark(sweep)


@pytest.mark.parametrize("procs", [2, 3, 4])
def test_bench_pram_scaling_in_processors(benchmark, procs):
    benchmark.group = "PRAM scaling (N procs, 3 ops each)"
    rng = np.random.default_rng(200 + procs)
    histories = [
        random_history(rng, procs=procs, ops_per_proc=3, locations=("x", "y"))
        for _ in range(10)
    ]

    def sweep():
        return sum(1 for h in histories if check(h, "PRAM").allowed)

    benchmark(sweep)


def test_bench_fast_tso_vs_generic(benchmark):
    benchmark.group = "fast path vs generic solver"
    m = MODELS["TSO"]
    result = benchmark(lambda: m.check(FIG1))
    assert result.allowed


def test_bench_generic_tso(benchmark):
    benchmark.group = "fast path vs generic solver"
    m = MODELS["TSO"]
    result = benchmark(lambda: m.check_generic(FIG1))
    assert result.allowed


def test_bench_catalog_sweep_direct(benchmark):
    """Baseline: every catalog history × every model via direct check()."""
    benchmark.group = "catalog sweep"
    names = tuple(MODELS)

    def sweep():
        return sum(
            check(test.history, m).allowed
            for test in CATALOG.values()
            for m in names
        )

    allowed = benchmark(sweep)
    assert allowed > 0


def test_bench_pc_semi_causality_cost(benchmark):
    benchmark.group = "PC on the paper figures"
    result = benchmark(lambda: check(FIG2, "PC"))
    assert result.allowed


def test_bench_causal_on_fig4(benchmark):
    benchmark.group = "causal on the paper figures"
    result = benchmark(lambda: check(FIG4, "Causal"))
    assert result.allowed
