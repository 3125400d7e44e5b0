"""Integration: Section 4's containment theorems, checked empirically (E7).

The paper proves TSO ⊆ PC by view reuse; here every Figure 5 containment
is swept over the catalog, random structural histories, and machine-
generated traces, with the machine hierarchy thrown in (an SC machine
trace must satisfy every weaker model too).
"""

import numpy as np
import pytest

from repro.analysis import machine_history, random_history
from repro.checking import check, classify
from repro.lattice import FIGURE5_EDGES
from repro.litmus import CATALOG
from repro.machines import SCMachine

ALL_EDGES = FIGURE5_EDGES + (
    ("SC", "Coherence"),
    ("TSO", "Coherence"),
    ("PC", "Coherence"),
    ("SC", "RC_sc"),
    ("RC_sc", "RC_pc"),
    ("SC", "CoherentCausal"),
    ("CoherentCausal", "Causal"),
    ("CoherentCausal", "Coherence"),
)


def assert_containments(history, edges=ALL_EDGES):
    verdicts = {}

    def verdict(model):
        if model not in verdicts:
            verdicts[model] = check(history, model).allowed
        return verdicts[model]

    for stronger, weaker in edges:
        if verdict(stronger):
            assert verdict(weaker), (
                f"{stronger} ⊆ {weaker} violated by:\n{history}"
            )


class TestOnCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_containments_hold(self, name):
        assert_containments(CATALOG[name].history)


class TestOnRandomHistories:
    def test_containments_hold_2proc(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert_containments(random_history(rng, procs=2, ops_per_proc=3))

    def test_containments_hold_3proc(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert_containments(
                random_history(rng, procs=3, ops_per_proc=2, locations=("x", "y"))
            )


class TestOnMachineTraces:
    def test_sc_traces_satisfy_every_model(self):
        rng = np.random.default_rng(17)
        models = ("SC", "TSO", "PC", "Causal", "PRAM", "Coherence", "RC_sc", "RC_pc")
        for _ in range(15):
            m = SCMachine(("p0", "p1"))
            h = machine_history(m, rng, ops_per_proc=3)
            verdicts = classify(h, models)
            assert all(verdicts.values()), f"SC trace rejected somewhere: {verdicts}\n{h}"


class TestPaperProofShape:
    def test_tso_views_reusable_for_pc(self, fig1):
        """Section 4's proof: the TSO witness views satisfy PC's needs."""
        from repro.checking import check_tso
        from repro.orders import sem_relation, unique_reads_from

        tso = check_tso(fig1)
        assert tso.allowed
        # Mutual consistency: per-location order shared (trivially, since
        # the full write order is shared).
        rf = unique_reads_from(fig1)
        coherence = {
            loc: tuple(
                op for op in tso.views["p"].writes_only if op.location == loc
            )
            for loc in fig1.locations
        }
        sem = sem_relation(fig1, rf, coherence)
        for proc, view in tso.views.items():
            for a, b in sem.pairs():
                if a in view and b in view:
                    assert view.orders(a, b), (
                        f"TSO view for {proc} breaks sem edge {a} -> {b}"
                    )
        assert check(fig1, "PC").allowed
