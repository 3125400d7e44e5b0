"""Release-consistency checker tests, including the Section 5 experiment."""

from repro.checking import check
from repro.litmus import parse_history


class TestSection5:
    def test_bakery_violation_allowed_by_rc_pc(self, bakery_violation):
        assert check(bakery_violation, "RC_pc").allowed

    def test_bakery_violation_rejected_by_rc_sc(self, bakery_violation):
        assert not check(bakery_violation, "RC_sc").allowed

    def test_sequentialized_bakery_allowed_by_both(self):
        # p1 completes its whole protocol before p2 starts: trivially fine.
        h = parse_history(
            "p1: w*(c0)1 r*(n1)0 w*(n0)1 w*(c0)0 r*(c1)0 r*(n1)0 w(cs)1 w*(n0)0 | "
            "p2: w*(c1)1 r*(n0)0 w*(n1)2 w*(c1)0 r*(c0)0 r*(n0)0 w(cs)2 w*(n1)0"
        )
        assert check(h, "RC_sc").allowed
        assert check(h, "RC_pc").allowed


class TestLabeledDiscipline:
    def test_labeled_sb_rejected_by_rc_sc(self):
        # The SB shape on sync variables: SC labeled ops forbid it.
        h = parse_history("p: w*(x)1 r*(y)0 | q: w*(y)1 r*(x)0")
        assert not check(h, "RC_sc").allowed

    def test_labeled_sb_allowed_by_rc_pc(self):
        # PC labeled ops allow the bypass (labeled ppo drops w->r).
        h = parse_history("p: w*(x)1 r*(y)0 | q: w*(y)1 r*(x)0")
        assert check(h, "RC_pc").allowed

    def test_labeled_mp_rejected_by_both(self):
        # Labeled MP staleness violates PC of the labeled ops too.
        h = parse_history("p: w*(x)1 w*(y)2 | q: r*(y)2 r*(x)0")
        assert not check(h, "RC_sc").allowed
        assert not check(h, "RC_pc").allowed

    def test_no_labeled_ops_degenerates_to_coherent_ppo(self):
        # With nothing labeled, both RC variants impose coherence + ppo.
        h = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
        assert check(h, "RC_sc").allowed
        assert check(h, "RC_pc").allowed

    def test_ordinary_mp_allowed_even_under_rc_sc(self):
        # Unlabeled MP: ordinary operations are free to be stale.
        h = parse_history("p: w(x)1 w(y)2 | q: r(y)2 r(x)0")
        assert check(h, "RC_sc").allowed


class TestBracketing:
    def test_acquired_data_must_be_fresh(self):
        # q acquires the flag written by p's release; p's ordinary write
        # of x precedes its release, and q's ordinary read of x follows
        # its acquire — RC forbids q from seeing x stale.
        h = parse_history(
            "p: w(x)1 w*(s)1 | q: r*(s)1 r(x)0"
        )
        assert not check(h, "RC_sc").allowed
        assert not check(h, "RC_pc").allowed

    def test_acquired_data_fresh_version_allowed(self):
        h = parse_history("p: w(x)1 w*(s)1 | q: r*(s)1 r(x)1")
        assert check(h, "RC_sc").allowed
        assert check(h, "RC_pc").allowed

    def test_unsynchronized_staleness_allowed(self):
        # Without the acquire, the stale read is ordinary RC behavior.
        h = parse_history("p: w(x)1 w*(s)1 | q: r(x)0")
        assert check(h, "RC_sc").allowed

    def test_relaxed_before_acquire_unconstrained(self):
        # An ordinary op *before* any acquire is not bracketed from below.
        h = parse_history("p: w(x)1 w*(s)1 | q: r(x)0 r*(s)1")
        assert check(h, "RC_sc").allowed


class TestRCStrength:
    def test_rc_sc_subset_of_rc_pc_on_samples(self):
        samples = [
            "p: w*(x)1 r*(y)0 | q: w*(y)1 r*(x)0",
            "p: w(x)1 w*(s)1 | q: r*(s)1 r(x)1",
            "p: w*(a)1 w*(b)2 | q: r*(b)2 r*(a)1",
            "p: w(x)1 | q: r(x)1",
        ]
        for text in samples:
            h = parse_history(text)
            if check(h, "RC_sc").allowed:
                assert check(h, "RC_pc").allowed, text
