"""E8 — Section 3.2's equivalence claim: view-TSO vs axiomatic TSO.

The paper states its TSO characterization "is equivalent to the axiomatic
definition given in [Sindhu et al.]".  Measured: the view characterization
is *strictly stronger*.  Over the canonical 2×2 space the two agree on
every history without a same-location write→read program pattern, and the
paper's model rejects some store-forwarding outcomes (``sb-fwd``) that the
axioms — and the paper's own operational store-buffer description — allow.
This is the reproduction's one substantive divergence from the paper's
text; EXPERIMENTS.md discusses it.
"""

import pytest

from repro.checking import check_axiomatic_tso, check_tso
from repro.lattice import HistorySpace, canonical_histories
from repro.litmus import CATALOG
from repro.machines import TSOMachine


def canonical_space():
    return list(canonical_histories(HistorySpace(procs=2, ops_per_proc=2)))


def _has_forwarding_shape(history) -> bool:
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            if a.is_write and any(
                b.is_read and b.location == a.location for b in ops[i + 1:]
            ):
                return True
    return False


@pytest.fixture(scope="module")
def comparison():
    # The 2x2 grid has no same-location write->read program shapes, so the
    # catalog's three-op histories are added to expose the forwarding gap.
    histories = canonical_space() + [
        t.history
        for t in CATALOG.values()
        if t.history.has_distinct_write_values()
        and not any(op.kind.value == "u" for op in t.history.operations)
    ]
    agree = disagree = fwd_disagree = 0
    for h in histories:
        view = check_tso(h).allowed
        axio = check_axiomatic_tso(h).allowed
        if view == axio:
            agree += 1
        else:
            disagree += 1
            if _has_forwarding_shape(h):
                fwd_disagree += 1
            assert axio and not view, "containment direction broken"
    return agree, disagree, fwd_disagree


def test_e8_claims(comparison, record_claims, benchmark):
    record_claims.set_title("E8 / Section 3.2: view-TSO vs axiomatic TSO")
    benchmark.group = "claims"
    agree, disagree, fwd_disagree = comparison

    def verify():
        sb_fwd = CATALOG["sb-fwd"].history
        # The paper's own operational machine produces the divergent outcome.
        m = TSOMachine(("p", "q"))
        m.write("p", "x", 1)
        m.write("q", "y", 1)
        outcome = (
            m.read("p", "x"), m.read("p", "y"),
            m.read("q", "y"), m.read("q", "x"),
        )
        return [
            ("view-TSO contained in axiomatic TSO", True, True),
            # The paper claims full equivalence; we measure strict
            # containment: divergence exists, confined to forwarding shapes.
            ("divergences found", True, disagree > 0),
            ("all divergences are forwarding shapes", True,
             disagree == fwd_disagree),
            ("sb-fwd allowed by axiomatic TSO", True,
             check_axiomatic_tso(sb_fwd).allowed),
            ("sb-fwd allowed by view TSO", False, check_tso(sb_fwd).allowed),
            ("store-buffer machine realizes sb-fwd", True,
             outcome == (1, 0, 1, 0)),
        ]

    for claim, paper, measured in benchmark.pedantic(verify, rounds=1, iterations=1):
        record_claims(claim, paper, measured)
    total = agree + disagree
    print(
        f"\n   sweep space: {agree}/{total} agreements, "
        f"{disagree} divergences (all on forwarding shapes: "
        f"{disagree == fwd_disagree})"
    )


def test_bench_axiomatic_checker_sweep(benchmark):
    histories = canonical_space()

    def sweep():
        return sum(1 for h in histories if check_axiomatic_tso(h).allowed)

    count = benchmark(sweep)
    assert count > 0


def test_bench_view_tso_sweep(benchmark):
    histories = canonical_space()

    def sweep():
        return sum(1 for h in histories if check_tso(h).allowed)

    count = benchmark(sweep)
    assert count > 0
