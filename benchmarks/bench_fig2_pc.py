"""E2 — Figure 2: a history allowed by PC but not by TSO.

The paper's three-processor example: r observes q's flag write without
p's data write, which no shared total write order can explain, but the
per-location coherence plus semi-causality of PC admits.  The witness
views printed by ``pytest -s`` match the structure of the paper's
Section 3.3 display.
"""

from repro.checking import check, check_tso
from repro.litmus import CATALOG
from repro.viz import render_views

FIG2 = CATALOG["fig2-pc-not-tso"]


def test_fig2_claims(record_claims, benchmark):
    record_claims.set_title("E2 / Figure 2: PC history that is not TSO")
    benchmark.group = "claims"

    def verify():
        h = FIG2.history
        pc = check(h, "PC")
        # The paper's explanation: r returns y=1 then x=0, so r's view
        # orders w(y)1 before w(x)1 while TSO's mutual consistency would
        # force the reverse everywhere.
        view_r = pc.views["r"]
        ordered = view_r.orders(h.op("q", 1), h.op("p", 0))
        rows = [
            ("allowed by PC", True, pc.allowed),
            ("allowed by TSO", False, check_tso(h).allowed),
            ("r's view orders w(y)1 before w(x)1", True, ordered),
        ]
        return rows, pc.views

    rows, views = benchmark.pedantic(verify, rounds=1, iterations=1)
    for claim, paper, measured in rows:
        record_claims(claim, paper, measured)
    print(render_views(views))


def test_bench_pc_checker_on_fig2(benchmark):
    h = FIG2.history
    result = benchmark(lambda: check(h, "PC"))
    assert result.allowed


def test_bench_tso_rejection_on_fig2(benchmark):
    h = FIG2.history
    result = benchmark(lambda: check_tso(h))
    assert not result.allowed
