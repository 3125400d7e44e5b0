"""E3 — Figure 3: a history allowed by PRAM but not by TSO.

Each processor writes x, reads its own value back, then reads the
other's: the processors disagree about the order of the two writes to
the *same* location, which PRAM's independent views permit and any
write-order agreement (TSO, PC, coherence) forbids.  The replicated-FIFO
PRAM machine reproduces the outcome operationally.
"""

from repro.checking import check, check_tso
from repro.litmus import CATALOG
from repro.machines import PRAMMachine
from repro.programs import Read, Write, explore

FIG3 = CATALOG["fig3-pram-not-tso"]


def _iter_thread(ops):
    for op in ops:
        yield op


def _machine_reaches_fig3() -> bool:
    def setup():
        machine = PRAMMachine(("p", "q"))
        return machine, {
            "p": lambda: _iter_thread([Write("x", 1), Read("x"), Read("x")]),
            "q": lambda: _iter_thread([Write("x", 2), Read("x"), Read("x")]),
        }

    target = FIG3.history
    return any(r.history == target for r in explore(setup, max_steps=60))


def test_fig3_claims(record_claims, benchmark):
    record_claims.set_title("E3 / Figure 3: PRAM history that is not TSO")
    benchmark.group = "claims"

    def verify():
        h = FIG3.history
        pram = check(h, "PRAM")
        # The paper prints S_{p+w} = w_p(x)1 r_p(x)1 w_q(x)2 r_p(x)2 exactly.
        paper_view = [str(op) for op in pram.views["p"]] == [
            "w_p(x)1", "r_p(x)1", "w_q(x)2", "r_p(x)2",
        ]
        return [
            ("allowed by PRAM", True, pram.allowed),
            ("allowed by TSO", False, check_tso(h).allowed),
            ("paper's S_{p+w} reproduced", True, paper_view),
            ("PRAM machine reaches it", True, _machine_reaches_fig3()),
        ]

    for claim, paper, measured in benchmark.pedantic(verify, rounds=1, iterations=1):
        record_claims(claim, paper, measured)


def test_bench_pram_checker_on_fig3(benchmark):
    h = FIG3.history
    result = benchmark(lambda: check(h, "PRAM"))
    assert result.allowed


def test_bench_pram_machine_exploration(benchmark):
    assert benchmark(_machine_reaches_fig3)
