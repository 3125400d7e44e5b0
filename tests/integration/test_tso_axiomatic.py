"""Integration: the paper's TSO vs axiomatic (hardware) TSO (E8).

Section 3.2 claims the view characterization "is equivalent to the
axiomatic definition" of Sindhu et al.  Measured result: the paper's TSO
is *contained in* axiomatic TSO but strictly stronger — the two diverge
exactly on store-forwarding shapes, where a processor reads its own write
before it is globally visible.  The paper's ``->ppo`` keeps the
same-location write→read edge that forwarding breaks.
"""

import numpy as np

from repro.analysis import machine_history, random_history
from repro.checking import check_axiomatic_tso, check_tso
from repro.lattice import HistorySpace, canonical_histories
from repro.litmus import CATALOG, parse_history
from repro.machines import TSOMachine


class TestContainment:
    def test_paper_tso_contained_in_axiomatic_on_2x2_space(self):
        for h in canonical_histories(HistorySpace(procs=2, ops_per_proc=2)):
            if check_tso(h).allowed:
                assert check_axiomatic_tso(h).allowed, f"containment broken:\n{h}"

    def test_paper_tso_contained_on_random_histories(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            h = random_history(rng, procs=2, ops_per_proc=3)
            if check_tso(h).allowed:
                assert check_axiomatic_tso(h).allowed, f"containment broken:\n{h}"


class TestDivergence:
    def test_sb_fwd_separates_the_models(self):
        h = CATALOG["sb-fwd"].history
        assert check_axiomatic_tso(h).allowed
        assert not check_tso(h).allowed

    def test_minimal_forwarding_separator(self):
        # The smallest shape: p forwards its own buffered store while q
        # still sees the old memory — combined with the mirror image, the
        # paper's shared write order cannot exist.
        h = parse_history("p: w(x)1 r(x)1 r(y)0 | q: w(y)1 r(y)1 r(x)0")
        assert check_axiomatic_tso(h).allowed
        assert not check_tso(h).allowed

    def test_tso_machine_realizes_the_divergent_outcome(self):
        # The operational machine (the paper's own Section 3.2 description,
        # buffers with forwarding) reaches the outcome its view model bans.
        m = TSOMachine(("p", "q"))
        m.write("p", "x", 1)
        m.write("q", "y", 1)
        assert m.read("p", "x") == 1   # forwarded
        assert m.read("p", "y") == 0
        assert m.read("q", "y") == 1   # forwarded
        assert m.read("q", "x") == 0
        h = m.history()
        assert check_axiomatic_tso(h).allowed
        assert not check_tso(h).allowed

    def test_agreement_without_forwarding_shapes(self):
        """On histories with no same-location w->r program pattern the two
        models agree (over the canonical 2x2 space)."""
        for h in canonical_histories(HistorySpace(procs=2, ops_per_proc=2)):
            if _has_forwarding_shape(h):
                continue
            assert check_tso(h).allowed == check_axiomatic_tso(h).allowed, str(h)


class TestMachineSoundness:
    def test_tso_machine_traces_always_axiomatic(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            m = TSOMachine(("p", "q"))
            h = machine_history(m, rng, ops_per_proc=3)
            assert check_axiomatic_tso(h).allowed, f"machine broke the axioms:\n{h}"


def _has_forwarding_shape(history) -> bool:
    """A write followed (in program order) by a read of the same location."""
    for proc in history.procs:
        ops = history.ops_of(proc)
        for i, a in enumerate(ops):
            if not a.is_write:
                continue
            for b in ops[i + 1:]:
                if b.is_read and b.location == a.location:
                    return True
    return False
