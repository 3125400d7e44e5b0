"""Regression lock: the headline numbers recorded in EXPERIMENTS.md.

These constants are measured facts about the reproduction (region sizes,
canonical-space cardinalities, the divergence inventory).  If a checker
or the enumeration changes behavior, this file pins down exactly which
recorded number moved.
"""

import pytest

from repro.checking import check
from repro.lattice import (
    HistorySpace,
    canonical_histories,
    classify_histories,
    space_size,
)
from repro.litmus import CATALOG


@pytest.fixture(scope="module")
def canonical_2x2():
    return list(canonical_histories(HistorySpace(procs=2, ops_per_proc=2)))


class TestSpaceCardinalities:
    def test_raw_2x2_size(self):
        assert space_size(HistorySpace(procs=2, ops_per_proc=2)) == 792

    def test_canonical_2x2_size(self, canonical_2x2):
        assert len(canonical_2x2) == 210

    def test_raw_2x3_size(self):
        assert space_size(HistorySpace(procs=2, ops_per_proc=3)) == 48388


class TestRegionSizes:
    def test_2x2_counts_match_experiments_md(self, canonical_2x2):
        result = classify_histories(
            canonical_2x2, ("SC", "TSO", "PC", "Causal", "PRAM")
        )
        assert result.counts() == {
            "SC": 140,
            "TSO": 141,
            "PC": 142,
            "Causal": 142,
            "PRAM": 144,
        }

    def test_extension_model_counts(self, canonical_2x2):
        result = classify_histories(
            canonical_2x2, ("Coherence", "CoherentCausal", "PC-G", "Hybrid", "Slow")
        )
        assert result.counts() == {
            "Coherence": 143,
            "CoherentCausal": 141,
            "PC-G": 142,
            "Hybrid": 210,  # unlabeled hybrid constrains nothing but legality
            "Slow": 145,
        }


class TestDivergenceInventory:
    def test_the_one_tso_divergence(self):
        """Exactly the forwarding divergence, nothing else, on the catalog."""
        diverging = []
        for name, t in CATALOG.items():
            h = t.history
            if any(op.kind.value == "u" for op in h.operations):
                continue
            view = check(h, "TSO").allowed
            axio = check(h, "TSO-axiomatic").allowed
            if view != axio:
                diverging.append(name)
        assert diverging == ["sb-fwd"]

    def test_catalog_size(self):
        # Grows only deliberately: each entry is a documented claim.
        assert len(CATALOG) == 17
