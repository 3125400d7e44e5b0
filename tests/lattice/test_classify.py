"""Figure 5 reproduced in miniature: classification over the 2×2 space."""

import pytest

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

MODELS = ("SC", "TSO", "PC", "Causal", "PRAM")


@pytest.fixture(scope="module")
def small_space_result():
    unique = canonical_histories(HistorySpace(procs=2, ops_per_proc=2))
    return classify_histories(unique, MODELS)


class TestFigure5OnSmallSpace:
    def test_no_containment_violations(self, small_space_result):
        assert containment_violations(small_space_result) == {}

    def test_counts_monotone_down_the_lattice(self, small_space_result):
        counts = small_space_result.counts()
        assert counts["SC"] < counts["TSO"]
        assert counts["TSO"] <= counts["PC"]
        assert counts["TSO"] <= counts["Causal"]
        assert counts["PC"] <= counts["PRAM"]
        assert counts["Causal"] <= counts["PRAM"]

    def test_strictness_witnessed_in_space(self, small_space_result):
        wits = separating_witnesses(small_space_result)
        for edge in FIGURE5_EDGES:
            assert wits[edge] is not None, f"no separator for {edge} in space"

    def test_pc_causal_incomparable(self, small_space_result):
        assert small_space_result.incomparable("PC", "Causal")

    def test_empirical_hasse_matches_paper(self, small_space_result):
        measured = empirical_hasse(small_space_result)
        expected = paper_hasse()
        assert set(measured.edges()) == set(expected.edges())

    def test_hasse_levels_start_with_sc(self, small_space_result):
        levels = hasse_levels(empirical_hasse(small_space_result))
        assert levels[0] == ["SC"]
        assert "PRAM" in levels[-1]


class TestClassificationResultAPI:
    def test_contains_and_strict(self, small_space_result):
        assert small_space_result.contains("SC", "PRAM")
        assert small_space_result.strictly_contains("SC", "PRAM")
        assert not small_space_result.contains("PRAM", "SC")

    def test_containment_matrix_shape(self, small_space_result):
        matrix = small_space_result.containment_matrix()
        assert len(matrix) == len(MODELS) * (len(MODELS) - 1)
        assert matrix[("SC", "TSO")] is True
        assert matrix[("TSO", "SC")] is False


class TestEnginePath:
    def test_engine_matches_direct_classification(self, small_space_result):
        from repro.engine import CheckEngine

        engine_result = classify_histories(
            small_space_result.histories, MODELS, engine=CheckEngine()
        )
        assert engine_result.allowed == small_space_result.allowed

    def test_parallel_engine_matches_too(self, small_space_result):
        from repro.engine import CheckEngine

        engine_result = classify_histories(
            small_space_result.histories, MODELS, engine=CheckEngine(jobs=2)
        )
        assert engine_result.allowed == small_space_result.allowed
