"""Tests for the strength-frontier analysis."""

import numpy as np

from repro.analysis import random_history
from repro.analysis.spectrum import (
    KNOWN_EDGES,
    SPECTRUM_MODELS,
    accepting_models,
    strength_frontier,
)
from repro.checking import check
from repro.litmus import CATALOG, parse_history


class TestKnownEdgesSound:
    def test_edges_hold_on_catalog(self):
        for name, t in CATALOG.items():
            h = t.history
            verdicts = {m: check(h, m).allowed for m in SPECTRUM_MODELS}
            for stronger, weaker in KNOWN_EDGES:
                if verdicts[stronger]:
                    assert verdicts[weaker], (
                        f"edge {stronger}->{weaker} violated on {name}"
                    )

    def test_edges_hold_on_random_histories(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            h = random_history(rng, procs=2, ops_per_proc=3)
            verdicts = {m: check(h, m).allowed for m in SPECTRUM_MODELS}
            for stronger, weaker in KNOWN_EDGES:
                if verdicts[stronger]:
                    assert verdicts[weaker], f"{stronger}->{weaker}:\n{h}"


class TestFrontier:
    def test_sc_history_frontier_is_sc(self):
        h = parse_history("p: w(x)1 | q: r(x)1")
        assert strength_frontier(h) == ("SC",)

    def test_fig1_frontier(self, fig1):
        # TSO and CoherentCausal both allow it and are incomparable
        # (SC, the only common dominator, rejects it).
        assert strength_frontier(fig1) == ("TSO", "CoherentCausal")

    def test_fig3_frontier(self, fig3):
        # Rejected by everything mutual-consistent; causal is the
        # strongest acceptor (PRAM and Slow dominated by it).
        frontier = strength_frontier(fig3)
        assert "Causal" in frontier
        assert "PRAM" not in frontier and "Slow" not in frontier

    def test_fig2_frontier_is_pc(self, fig2):
        frontier = strength_frontier(fig2)
        assert "PC" in frontier
        assert "SC" not in frontier and "TSO" not in frontier

    def test_mp_frontier_is_coherence(self):
        h = parse_history("p: w(x)1 w(y)1 | q: r(y)1 r(x)0")
        assert strength_frontier(h) == ("Coherence",)

    def test_unsatisfiable_history_empty_frontier(self):
        h = parse_history("p: r(x)9")
        assert strength_frontier(h) == ()
        assert accepting_models(h) == set()

    def test_frontier_members_accept(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            h = random_history(rng, procs=2, ops_per_proc=3)
            accepted = accepting_models(h)
            for m in strength_frontier(h):
                assert m in accepted

    def test_frontier_maximality(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            h = random_history(rng, procs=2, ops_per_proc=3)
            accepted = accepting_models(h)
            frontier = set(strength_frontier(h))
            for m in frontier:
                dominators = {s for s, w in KNOWN_EDGES if w == m}
                assert not (dominators & accepted), f"{m} dominated on:\n{h}"


class TestEnginePath:
    def test_engine_matches_direct(self):
        from repro.engine import CheckEngine

        engine = CheckEngine()
        rng = np.random.default_rng(71)
        for _ in range(10):
            h = random_history(rng, procs=2, ops_per_proc=3)
            assert accepting_models(h, engine=engine) == accepting_models(h)
            assert strength_frontier(h, engine=engine) == strength_frontier(h)
