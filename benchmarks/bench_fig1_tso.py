"""E1 — Figure 1: the store-buffering history is TSO but not SC.

Regenerates the paper's first worked example: the history where both
processors write then read the other's location and see 0.  Asserts the
verdict split, shows that the TSO store-buffer machine actually produces
the history, and benchmarks both checkers on it.
"""

from repro.checking import check, check_tso
from repro.litmus import CATALOG
from repro.machines import TSOMachine
from repro.programs import Read, Write, explore

FIG1 = CATALOG["fig1-sb"]


def _iter_thread(ops):
    for op in ops:
        yield op


def _machine_reaches_fig1() -> bool:
    def setup():
        machine = TSOMachine(("p", "q"))
        return machine, {
            "p": lambda: _iter_thread([Write("x", 1), Read("y")]),
            "q": lambda: _iter_thread([Write("y", 1), Read("x")]),
        }

    target = FIG1.history
    return any(r.history == target for r in explore(setup, max_steps=40))


def test_fig1_claims(record_claims, benchmark):
    record_claims.set_title("E1 / Figure 1: SB history (TSO yes, SC no)")
    benchmark.group = "claims"

    def verify():
        h = FIG1.history
        return [
            ("allowed by TSO", True, check_tso(h).allowed),
            ("allowed by SC", False, check(h, "SC").allowed),
            ("TSO machine reaches it", True, _machine_reaches_fig1()),
        ]

    for claim, paper, measured in benchmark.pedantic(verify, rounds=1, iterations=1):
        record_claims(claim, paper, measured)


def test_bench_tso_checker_on_fig1(benchmark):
    h = FIG1.history
    result = benchmark(lambda: check_tso(h))
    assert result.allowed


def test_bench_sc_checker_on_fig1(benchmark):
    h = FIG1.history
    result = benchmark(lambda: check(h, "SC"))
    assert not result.allowed


def test_bench_tso_machine_schedule_exploration(benchmark):
    result = benchmark(_machine_reaches_fig1)
    assert result
