"""Tests for coherence-order machinery."""

from repro.litmus import parse_history
from repro.orders import (
    coherence_position,
    enumerate_coherence_orders,
    forced_coherence_pairs,
    program_write_chains,
    unique_reads_from,
)


class TestWriteChains:
    def test_per_proc_chains(self):
        h = parse_history("p: w(x)1 w(x)2 | q: w(x)3")
        chains = program_write_chains(h, "x")
        assert sorted(len(c) for c in chains) == [1, 2]

    def test_empty_for_untouched_location(self):
        h = parse_history("p: w(x)1")
        assert program_write_chains(h, "y") == []


class TestForcedPairs:
    def test_program_order_forced(self):
        h = parse_history("p: w(x)1 w(x)2")
        forced = forced_coherence_pairs(h, "x")
        assert forced.orders(h.op("p", 0), h.op("p", 1))

    def test_reads_from_forces_order(self):
        # q reads p's write then overwrites: p's write precedes q's.
        h = parse_history("p: w(x)1 | q: r(x)1 w(x)2")
        rf = unique_reads_from(h)
        forced = forced_coherence_pairs(h, "x", rf)
        assert forced.orders(h.op("p", 0), h.op("q", 1))

    def test_no_rf_no_extra_edges(self):
        h = parse_history("p: w(x)1 | q: r(x)1 w(x)2")
        forced = forced_coherence_pairs(h, "x")
        assert not forced.orders(h.op("p", 0), h.op("q", 1))


class TestEnumeration:
    def test_counts_interleavings(self):
        h = parse_history("p: w(x)1 w(x)2 | q: w(x)3")
        orders = list(enumerate_coherence_orders(h))
        assert len(orders) == 3  # interleave chain of 2 with chain of 1

    def test_product_over_locations(self):
        h = parse_history("p: w(x)1 w(y)2 | q: w(x)3 w(y)4")
        orders = list(enumerate_coherence_orders(h))
        assert len(orders) == 4  # 2 per location

    def test_rf_pruning_reduces(self):
        h = parse_history("p: w(x)1 | q: r(x)1 w(x)2")
        rf = unique_reads_from(h)
        assert len(list(enumerate_coherence_orders(h, rf))) == 1
        assert len(list(enumerate_coherence_orders(h))) == 2

    def test_orders_respect_program_order(self):
        h = parse_history("p: w(x)1 w(x)2 | q: w(x)3")
        for order in enumerate_coherence_orders(h):
            chain = order["x"]
            pos = {w.uid: i for i, w in enumerate(chain)}
            assert pos[("p", 0)] < pos[("p", 1)]


class TestRelationAndPosition:
    def test_coherence_position(self):
        h = parse_history("p: w(x)1 w(x)2")
        order = {"x": (h.op("p", 0), h.op("p", 1))}
        pos = coherence_position(order)
        assert pos[("p", 0)] == 0 and pos[("p", 1)] == 1
