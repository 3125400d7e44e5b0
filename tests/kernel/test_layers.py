"""Layer-by-layer unit tests: rf enumeration, serialization candidates,
compiled planes, and the history-plane sharing the driver relies on."""

import pytest

from repro.core.errors import CheckerError
from repro.engine.cache import RelationCache
from repro.kernel.constraints import (
    CompiledConstraints,
    compile_constraints,
    history_plane,
)
from repro.kernel.rf import impossible_read, iter_attributions
from repro.kernel.search import check_with_spec
from repro.kernel.serializations import forced_write_order, iter_mutual_candidates
from repro.litmus import parse_history
from repro.orders.memo import relation_memo
from repro.spec import ALL_SPECS
from repro.spec.registry import SC_SPEC, TSO_SPEC
from repro.spec.parameters import MutualConsistency, OperationSet


class TestReadsFromLayer:
    def test_impossible_read_detected(self):
        h = parse_history("p: w(x)1 | q: r(x)7")
        bad = impossible_read(h)
        assert bad is not None and bad.value == 7

    def test_no_impossible_read(self):
        h = parse_history("p: w(x)1 | q: r(x)1")
        assert impossible_read(h) is None

    def test_unambiguous_yields_single_attribution(self):
        h = parse_history("p: w(x)1 | q: r(x)1 r(x)0")
        attrs = list(iter_attributions(h, 100))
        assert len(attrs) == 1
        (rf,) = attrs
        read_one = h.op("q", 0)
        assert rf[read_one] == h.op("p", 0)
        assert rf[h.op("q", 1)] is None  # initial-value read

    def test_ambiguous_enumerates_product(self):
        # Two writes of the same value: the read has two candidates.
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        attrs = list(iter_attributions(h, 100))
        assert len(attrs) == 2

    def test_budget_exceeded_raises(self):
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1 r(x)1")
        with pytest.raises(CheckerError):
            list(iter_attributions(h, 1))

    def test_read_without_source_yields_nothing(self):
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1 r(x)9")
        assert list(iter_attributions(h, 100)) == []


class TestSerializationLayer:
    def test_forced_write_order_contains_program_order(self):
        h = parse_history("p: w(x)1 w(y)2 | q: w(x)3")
        forced = forced_write_order(h, None)
        assert forced.orders(h.op("p", 0), h.op("p", 1))
        assert not forced.orders(h.op("p", 0), h.op("q", 0))

    def test_forced_write_order_adds_rf_coherence(self):
        # q reads w1 and later writes w2: w1 precedes w2 in any admissible
        # write order (q's view has w1 before w2 and views agree on it).
        h = parse_history("p: w(x)1 | q: r(x)1 w(x)2")
        (rf,) = iter_attributions(h, 10)
        forced = forced_write_order(h, rf)
        assert forced.orders(h.op("p", 0), h.op("q", 1))

    def test_total_write_order_candidates_are_topological_sorts(self):
        h = parse_history("p: w(x)1 w(x)2 | q: w(y)3")
        (rf,) = iter_attributions(h, 10)
        cands = list(iter_mutual_candidates(TSO_SPEC, h, rf))
        # 3 writes with one forced pair (p's program order): 3 interleavings.
        assert len(cands) == 3
        for cand in cands:
            assert len(cand.chains) == 1 and len(cand.chains[0]) == 3

    def test_none_mutual_consistency_yields_one_empty_candidate(self):
        pram = next(
            s for s in ALL_SPECS
            if s.mutual_consistency is MutualConsistency.NONE
        )
        h = parse_history("p: w(x)1 | q: w(x)2")
        (rf,) = iter_attributions(h, 10)
        cands = list(iter_mutual_candidates(pram, h, rf))
        assert cands and all(c.chains == () for c in cands)


class TestHistoryPlane:
    def test_identity_cached_across_specs(self):
        h = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
        assert history_plane(h) is history_plane(h)
        cc1 = CompiledConstraints(SC_SPEC, h)
        cc2 = CompiledConstraints(TSO_SPEC, h)
        assert cc1.hp is cc2.hp

    def test_view_members_put_own_operations_first(self):
        h = parse_history("p: w(x)1 r(y)0 | q: w(y)2 r(x)0")
        hp = history_plane(h)
        views = hp.views(OperationSet.ALL_REMOTE)
        start, end = hp.ranges["q"]
        assert views["q"].members[: end - start] == tuple(range(start, end))
        # view contents match the spec parameter's own definition
        expected = OperationSet.ALL_REMOTE.view_contents(h, "q")
        assert [hp.ops[i] for i in views["q"].members] == list(expected)

    def test_remote_writes_views_drop_remote_reads(self):
        h = parse_history("p: w(x)1 r(y)0 | q: w(y)2 r(x)0")
        hp = history_plane(h)
        views = hp.views(OperationSet.REMOTE_WRITES)
        ops = [hp.ops[i] for i in views["q"].members]
        assert h.op("p", 1) not in ops  # p's read is remote to q
        assert h.op("q", 1) in ops  # q's own read stays

    def test_unique_rf_matches_attribution_layer(self):
        h = parse_history("p: w(x)1 | q: r(x)1 r(x)0")
        hp = history_plane(h)
        (rf,) = iter_attributions(h, 10)
        assert hp.unique_rf == rf

    def test_ambiguous_history_has_no_unique_rf(self):
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        assert history_plane(h).unique_rf is None

    def test_semi_causal_rows_share_the_ppo_entry(self):
        from repro.spec.parameters import PPO
        from repro.spec.registry import PC_SPEC

        h = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")
        hp = history_plane(h)
        check_with_spec(PC_SPEC, h)
        assert {PPO, "sem"} <= set(hp.masks)
        ppo = hp.masks[PPO]
        check_with_spec(TSO_SPEC, h)  # reuses PC's ppo rows, and vice versa
        assert hp.masks[PPO] is ppo

    def test_other_coherence_dependent_orderings_are_refused(self):
        from repro.core.errors import KernelError
        from repro.spec import MemoryModelSpec
        from repro.spec.parameters import OrderingRule, PO

        rule = OrderingRule("po-co", PO.build, needs_coherence=True)
        spec = MemoryModelSpec(
            name="po-co",
            operation_set=OperationSet.REMOTE_WRITES,
            mutual_consistency=MutualConsistency.COHERENCE,
            ordering=rule,
        )
        with pytest.raises(KernelError, match="semi-causality"):
            check_with_spec(spec, parse_history("p: w(x)1 | q: r(x)1"))


class TestCacheTwinRegression:
    """A compiled plane must serve value-equal history twins.

    The engine's relation cache keys by canonical history key, so two
    parses of the same litmus text share one table; a plane compiled for
    the first parse is handed the second parse's operation objects.
    """

    TEXTS = (
        "p: w(x)1 r(y)0 | q: w(y)1 r(x)0",
        "p: w(x)1 w(x)2 | q: r(x)2 r(x)1",
        "p: w(x)1 | q: w(x)2 | r: r(x)1 r(x)2 | s: r(x)2 r(x)1",
    )

    @pytest.mark.parametrize("text", TEXTS)
    def test_twins_share_compiled_constraints(self, text):
        h1, h2 = parse_history(text), parse_history(text)
        with relation_memo(RelationCache()):
            cc1 = compile_constraints(SC_SPEC, h1)
            cc2 = compile_constraints(SC_SPEC, h2)
            assert cc1 is cc2

    @pytest.mark.parametrize("text", TEXTS)
    def test_twin_verdicts_identical_under_shared_cache(self, text):
        h1, h2 = parse_history(text), parse_history(text)
        with relation_memo(RelationCache()):
            for spec in ALL_SPECS:
                a = check_with_spec(spec, h1)
                b = check_with_spec(spec, h2)
                assert (a.allowed, a.explored, a.reason) == (
                    b.allowed,
                    b.explored,
                    b.reason,
                ), spec.name
