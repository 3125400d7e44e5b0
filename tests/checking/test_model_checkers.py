"""Targeted verdict tests for each model checker.

The catalog tests (tests/litmus) sweep every litmus entry; here each
checker gets focused cases including witness-view validation.
"""

from repro.checking import check, check_pram, check_sc, check_tso
from repro.core.view import is_legal_sequence
from repro.litmus import parse_history


class TestSC:
    def test_sequential_program_allowed(self):
        h = parse_history("p: w(x)1 r(x)1")
        assert check_sc(h).allowed

    def test_sb_rejected(self, fig1):
        res = check_sc(fig1)
        assert not res.allowed and res.reason

    def test_witness_views_identical_and_legal(self):
        h = parse_history("p: w(x)1 | q: r(x)1")
        res = check_sc(h)
        assert res.allowed
        views = list(res.views.values())
        assert all(tuple(v) == tuple(views[0]) for v in views)
        assert is_legal_sequence(list(views[0]))

    def test_read_of_unwritten_value_rejected(self):
        h = parse_history("p: r(x)9")
        assert not check_sc(h).allowed


class TestTSO:
    def test_fig1_allowed_with_views(self, fig1):
        res = check_tso(fig1)
        assert res.allowed
        # Witness views must share the write order (mutual consistency).
        orders = [
            [op.uid for op in v.writes_only] for v in res.views.values()
        ]
        assert all(o == orders[0] for o in orders)

    def test_fig2_rejected(self, fig2):
        assert not check_tso(fig2).allowed

    def test_write_read_bypass_but_not_read_read(self):
        # Reads cannot bypass reads: q reads y new then x old is fine only
        # if write order allows; with the causality chain it is not.
        h = parse_history("p: w(x)1 w(y)2 | q: r(y)2 r(x)0")
        assert not check_tso(h).allowed

    def test_own_write_read_early_rejected(self):
        # The paper's ppo same-location edge forbids forwarding shapes.
        h = parse_history("p: w(x)1 r(x)1 r(y)0 | q: w(y)1 r(y)1 r(x)0")
        assert not check_tso(h).allowed

    def test_rmw_falls_back_to_generic(self):
        # Two test-and-sets on one location: exactly one sees 0.
        h = parse_history("p: u(l)0->1 | q: u(l)1->2")
        assert check_tso(h).allowed
        h_bad = parse_history("p: u(l)0->1 | q: u(l)0->2")
        assert not check_tso(h_bad).allowed

    def test_ppo_derived_once_per_check(self, monkeypatch):
        # The greedy placement reuses the plane's ->ppo rows for every
        # processor of every write order instead of re-closing them.
        import repro.checking.tso as tso

        calls = []
        real = tso.rule_masks
        monkeypatch.setattr(
            tso, "rule_masks", lambda *args: calls.append(args) or real(*args)
        )
        h = parse_history(
            "p: w(x)1 r(y)0 w(z)1 | q: w(y)1 r(z)0 w(x)2 | r: r(x)2 r(x)1"
        )
        res = check_tso(h)
        assert res.explored > 1  # several write orders were tried
        assert len(calls) == 1


class TestPC:
    def test_fig2_allowed(self, fig2):
        assert check(fig2, "PC").allowed

    def test_mp_rejected(self):
        h = parse_history("p: w(x)1 w(y)2 | q: r(y)2 r(x)0")
        assert not check(h, "PC").allowed

    def test_iriw_allowed(self):
        h = parse_history(
            "p: w(x)1 | q: w(y)1 | r: r(x)1 r(y)0 | s: r(y)1 r(x)0"
        )
        assert check(h, "PC").allowed

    def test_coherence_enforced(self):
        h = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
        assert not check(h, "PC").allowed


class TestPRAM:
    def test_fig3_allowed(self, fig3):
        res = check_pram(fig3)
        assert res.allowed
        for v in res.views.values():
            assert is_legal_sequence(list(v))

    def test_corr_rejected(self):
        # Remote writes of one processor must be seen in program order.
        h = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
        assert not check_pram(h).allowed

    def test_iriw_allowed(self):
        h = parse_history(
            "p: w(x)1 | q: w(y)1 | r: r(x)1 r(y)0 | s: r(y)1 r(x)0"
        )
        assert check_pram(h).allowed

    def test_mp_rejected(self):
        h = parse_history("p: w(x)1 w(y)2 | q: r(y)2 r(x)0")
        assert not check_pram(h).allowed

    @staticmethod
    def _long_writer(reads):
        writes = " ".join(f"w(x){v}" for v in range(1, 1201))
        return parse_history(f"p: {writes} | q: {reads}")

    def test_long_view_allowed(self):
        # A view of 1,202 operations merges without recursion.
        res = check(self._long_writer("r(x)1200"), "PRAM")
        assert res.allowed
        assert [op.value_read for op in res.views["q"] if op.is_read] == [1200]

    def test_long_view_rejected(self):
        # q cannot see x go back from 1200 to 1: p's writes arrive in order.
        assert not check(self._long_writer("r(x)1200 r(x)1"), "PRAM").allowed


class TestCausal:
    def test_fig4_allowed(self, fig4):
        assert check(fig4, "Causal").allowed

    def test_wrc_rejected(self):
        h = parse_history("p: w(x)1 | q: r(x)1 w(y)2 | r: r(y)2 r(x)0")
        assert not check(h, "Causal").allowed

    def test_fig3_allowed(self, fig3):
        # Per-location disagreement on concurrent writes is causal.
        assert check(fig3, "Causal").allowed


class TestCoherence:
    def test_mp_allowed(self):
        # Coherence has no cross-location ordering at all.
        h = parse_history("p: w(x)1 w(y)2 | q: r(y)2 r(x)0")
        assert check(h, "Coherence").allowed

    def test_corr_rejected(self):
        h = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
        assert not check(h, "Coherence").allowed

    def test_fig3_rejected(self, fig3):
        assert not check(fig3, "Coherence").allowed


class TestGoodmanPC:
    def test_is_pram_plus_coherence(self, fig3):
        # fig3 is PRAM but not coherent, so PC-G rejects it.
        assert not check(fig3, "PC-G").allowed

    def test_sb_allowed(self, fig1):
        assert check(fig1, "PC-G").allowed

    def test_keeps_the_kernel_witness(self):
        # PC-G is decided by the kernel: the result carries the kernel's
        # witness, not just its views.
        from repro.kernel.search import check_with_spec
        from repro.litmus.catalog import CATALOG
        from repro.spec.registry import PC_G_SPEC

        h = CATALOG["fig1-sb"].history
        res = check(h, "PC-G")
        ref = check_with_spec(PC_G_SPEC, h)
        assert res.model == "PC-G" and res.allowed
        assert res.witness is not None and res.witness == ref.witness

    def test_incomparable_with_dash_pc(self):
        # DASH-PC allows IRIW-with-control shapes that PC-G forbids and
        # vice versa; here we exhibit one direction measured in-catalog:
        # fig2 is DASH-PC-allowed; is it PC-G-allowed too? (It is; the
        # separation shows up in the lattice tests on the enumerated
        # space, which find witnesses in both directions.)
        h = parse_history("p: w(x)1 | q: r(x)1 w(y)1 | r: r(y)1 r(x)0")
        assert check(h, "PC-G").allowed
