"""E4 — Figure 4: a history allowed by causal memory but not by TSO.

The paper's four-location example, including its closing observation:
once r has returned z=1, causality forces its later read of y to return 1
(the y-stale variant is PRAM-only), while PRAM would also allow y=0.
The vector-clock causal machine reaches the history operationally.
"""

from repro.checking import check, check_tso
from repro.litmus import CATALOG, parse_history
from repro.machines import CausalMachine

FIG4 = CATALOG["fig4-causal-not-tso"]

#: The paper's "in PRAM, r need not return 1 for y" variant.
FIG4_STALE_Y = (
    "p: w(x)1 w(y)1 | q: r(y)1 w(z)1 r(x)2 | r: w(x)2 r(x)1 r(z)1 r(y)0"
)


def _machine_reaches_fig4() -> bool:
    """Drive the causal machine through the schedule realizing Figure 4.

    r writes x=2 concurrently with p's writes; q sees p's writes, writes
    z; r first overwrites its x with p's (older at r, newer nowhere — no
    mutual consistency), then pulls in y and z causally; finally q sees
    r's x=2.
    """
    m = CausalMachine(("p", "q", "r"))
    m.write("r", "x", 2)
    m.write("p", "x", 1)
    m.write("p", "y", 1)
    m.fire(("apply", "q", "p", 1))  # x=1 at q
    m.fire(("apply", "q", "p", 2))  # y=1 at q
    assert m.read("q", "y") == 1
    m.write("q", "z", 1)
    m.fire(("apply", "r", "p", 1))  # x=1 at r (after its own x=2)
    assert m.read("r", "x") == 1
    m.fire(("apply", "r", "p", 2))  # y=1 at r (dependency of z)
    m.fire(("apply", "r", "q", 1))  # z=1 at r
    assert m.read("r", "z") == 1
    assert m.read("r", "y") == 1
    m.fire(("apply", "q", "r", 1))  # x=2 at q
    assert m.read("q", "x") == 2
    return m.history() == FIG4.history


def test_fig4_claims(record_claims, benchmark):
    record_claims.set_title("E4 / Figure 4: causal history that is not TSO")
    benchmark.group = "claims"

    def verify():
        h = FIG4.history
        stale = parse_history(FIG4_STALE_Y)
        return [
            ("allowed by causal memory", True, check(h, "Causal").allowed),
            ("allowed by TSO", False, check_tso(h).allowed),
            ("stale-y variant allowed by PRAM", True, check(stale, "PRAM").allowed),
            ("stale-y variant allowed by causal", False, check(stale, "Causal").allowed),
            ("causal machine reaches it", True, _machine_reaches_fig4()),
        ]

    for claim, paper, measured in benchmark.pedantic(verify, rounds=1, iterations=1):
        record_claims(claim, paper, measured)


def test_bench_causal_checker_on_fig4(benchmark):
    h = FIG4.history
    result = benchmark(lambda: check(h, "Causal"))
    assert result.allowed


def test_bench_tso_rejection_on_fig4(benchmark):
    h = FIG4.history
    result = benchmark(lambda: check_tso(h))
    assert not result.allowed
