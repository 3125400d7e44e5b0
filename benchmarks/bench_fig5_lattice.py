"""E5 — Figure 5: the containment lattice of memories, reproduced.

Exhaustively enumerates the canonical 2-processor × 2-operation history
space, classifies every history under every model, and checks that the
measured strict-containment diagram equals the paper's Figure 5 — with
per-model allowed-history counts (the sizes of the paper's Venn regions)
printed for the record.  Strictness witnesses are drawn from inside the
space; the catalog's figures serve as the paper's own separators.
"""

import pytest

from repro.analysis import format_counts
from repro.lattice import (
    FIGURE5_EDGES,
    HistorySpace,
    canonical_histories,
    classify_histories,
    containment_violations,
    empirical_hasse,
    hasse_levels,
    paper_hasse,
    separating_witnesses,
)
from repro.litmus import format_history
from repro.viz import render_lattice

MODELS = ("SC", "TSO", "PC", "Causal", "PRAM")


def canonical_space():
    return list(canonical_histories(HistorySpace(procs=2, ops_per_proc=2)))


@pytest.fixture(scope="module")
def classification():
    return classify_histories(canonical_space(), MODELS)


def test_fig5_claims(classification, record_claims, benchmark):
    record_claims.set_title("E5 / Figure 5: the memory lattice")
    benchmark.group = "claims"

    def verify():
        violations = containment_violations(classification, FIGURE5_EDGES)
        wits = separating_witnesses(classification, FIGURE5_EDGES)
        measured = empirical_hasse(classification)
        rows = [("containment violations", 0, len(violations))]
        rows.extend(
            (f"{a} strictly in {b}", True, wits[(a, b)] is not None)
            for a, b in FIGURE5_EDGES
        )
        rows.append(
            ("PC and Causal incomparable", True,
             classification.incomparable("PC", "Causal"))
        )
        rows.append(
            ("measured Hasse == paper Figure 5", True,
             set(measured.edges()) == set(paper_hasse().edges()))
        )
        return rows, wits, measured

    rows, wits, measured = benchmark.pedantic(verify, rounds=1, iterations=1)
    for claim, paper, got in rows:
        record_claims(claim, paper, got)
    total = len(classification.histories)
    print(f"\n   allowed-history counts over {total} canonical histories:")
    print(format_counts(classification.counts(), total))
    print("\n   measured lattice:")
    print(render_lattice(measured))
    print("\n   sample separators found inside the space:")
    for edge, w in wits.items():
        if w is not None:
            print(f"   {edge[0]} < {edge[1]}: {format_history(w, oneline=True)}")


def test_fig5_exhaustive_2x3_space(record_claims, benchmark):
    """The lattice verified exhaustively on the larger 2×3 space.

    12,189 canonical histories (48,388 raw before symmetry reduction) —
    this space contains the store-forwarding and per-location-
    disagreement shapes the 2×2 grid cannot express, so reproducing
    Figure 5 here is a substantially stronger check (~12 s).
    """
    record_claims.set_title("E5b / Figure 5 on the exhaustive 2×3 space")
    benchmark.group = "claims"

    def verify():
        hs = list(canonical_histories(HistorySpace(procs=2, ops_per_proc=3)))
        result = classify_histories(hs, MODELS)
        violations = containment_violations(result, FIGURE5_EDGES)
        wits = separating_witnesses(result, FIGURE5_EDGES)
        measured_hasse = empirical_hasse(result)
        return [
            ("canonical 2x3 histories", 12189, len(hs)),
            ("containment violations", 0, len(violations)),
            ("all strictness witnesses in-space", True,
             all(w is not None for w in wits.values())),
            ("PC and Causal incomparable", True,
             result.incomparable("PC", "Causal")),
            ("measured Hasse == paper Figure 5", True,
             set(measured_hasse.edges()) == set(paper_hasse().edges())),
        ], result.counts()

    (rows, counts) = benchmark.pedantic(verify, rounds=1, iterations=1)
    for claim, paper, measured in rows:
        record_claims(claim, paper, measured)
    print(f"\n   2x3 counts: {counts}")


def test_bench_enumerate_canonical_space(benchmark):
    out = benchmark(canonical_space)
    assert len(out) == 210


def test_bench_classify_space_all_models(benchmark):
    histories = canonical_space()
    result = benchmark(lambda: classify_histories(histories, MODELS))
    assert result.counts()["SC"] == 140


def test_bench_hasse_construction(benchmark, classification):
    g = benchmark(lambda: empirical_hasse(classification))
    assert hasse_levels(g)[0] == ["SC"]
