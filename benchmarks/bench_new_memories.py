"""E9 — Section 7: new memories by recombining the three parameters.

The paper's concluding remark: "a mutual consistency condition that
requires coherence can be added to causal memory."  We build exactly that
memory (CoherentCausal) plus the PRAM+coherence variant (PC-G, Goodman's
processor consistency) from the declarative spec framework and locate
both in the lattice empirically, and measures how CoherentCausal
relates to the plain intersection of causal memory and coherence (the
new memory requires one set of views to satisfy both at once).
"""

import pytest

from repro.checking import check
from repro.lattice import (
    HistorySpace,
    canonical_histories,
    classify_histories,
)
from repro.litmus import CATALOG


def _pc_definitions_incomparable() -> bool:
    a = CATALOG["pcg-not-pcd"].history
    b = CATALOG["pcd-not-pcg"].history
    return (
        check(a, "PC-G").allowed
        and not check(a, "PC").allowed
        and check(b, "PC").allowed
        and not check(b, "PC-G").allowed
    )

MODELS = (
    "SC", "TSO", "Causal", "Coherence", "CoherentCausal",
    "PC-G", "PRAM", "PC", "Hybrid", "Slow",
)


def canonical_space():
    return list(canonical_histories(HistorySpace(procs=2, ops_per_proc=2)))


@pytest.fixture(scope="module")
def classification():
    return classify_histories(canonical_space(), MODELS)


def test_e9_claims(classification, record_claims, benchmark):
    record_claims.set_title("E9 / Section 7: new memories from the parameters")
    benchmark.group = "claims"
    c = classification

    def verify():
        # CoherentCausal sits inside Causal ∩ Coherence by construction;
        # on this small space the inclusion measures as an equality (the
        # same views happen to satisfy both requirements whenever each is
        # satisfiable separately).  Recorded informationally.
        inter = c.allowed["Causal"] & c.allowed["Coherence"]
        coupled_gap = inter - c.allowed["CoherentCausal"]
        return [
            ("SC within CoherentCausal", True, c.contains("SC", "CoherentCausal")),
            ("CoherentCausal within Causal", True,
             c.contains("CoherentCausal", "Causal")),
            ("CoherentCausal within Coherence", True,
             c.contains("CoherentCausal", "Coherence")),
            ("CoherentCausal within Causal ∩ Coherence", True,
             c.allowed["CoherentCausal"] <= inter),
            ("inclusion strict on this space (informational)", "-",
             bool(coupled_gap)),
            ("PC-G within Coherence", True, c.contains("PC-G", "Coherence")),
            ("PC-G within PRAM", True, c.contains("PC-G", "PRAM")),
            # Section 3.3's remark (citing Ahamad et al. [2]): the two PC
            # definitions are incomparable.  Witnessed by the catalog's
            # pcg-not-pcd / pcd-not-pcg entries.
            ("PC-G vs DASH PC separating witnesses exist", True,
             _pc_definitions_incomparable()),
            # The extension models: hybrid consistency (strong/weak ops,
            # cited in Section 2) and slow memory (the lattice bottom).
            ("PRAM within unlabeled Hybrid", True,
             c.contains("PRAM", "Hybrid")),
            ("PRAM within Slow", True, c.contains("PRAM", "Slow")),
            ("Coherence within Slow", True, c.contains("Coherence", "Slow")),
            # On unlabeled histories hybrid imposes no ordering at all, so
            # it sits *below* even slow memory; slow bounds everything else.
            ("Slow contains every model except Hybrid", True,
             all(
                 c.contains(m, "Slow")
                 for m in MODELS
                 if m not in ("Slow", "Hybrid")
             )),
            ("Slow within unlabeled Hybrid", True, c.contains("Slow", "Hybrid")),
        ]

    for claim, paper, measured in benchmark.pedantic(verify, rounds=1, iterations=1):
        record_claims(claim, paper, measured)
    print(f"\n   counts: {c.counts()}")


def test_bench_coherent_causal_checker(benchmark):
    histories = canonical_space()[:60]

    def sweep():
        return sum(1 for h in histories if check(h, "CoherentCausal").allowed)

    assert benchmark(sweep) > 0


def test_bench_pcg_checker(benchmark):
    histories = canonical_space()[:60]

    def sweep():
        return sum(1 for h in histories if check(h, "PC-G").allowed)

    assert benchmark(sweep) > 0
