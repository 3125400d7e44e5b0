"""Tests for history-space enumeration and canonicalization."""

import itertools

import pytest

from repro.lattice import (
    HistorySpace,
    canonical_histories,
    canonical_key,
    enumerate_histories,
    space_size,
)


class TestHistorySpace:
    def test_slots(self):
        assert HistorySpace(procs=2, ops_per_proc=3).slots == 6

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            HistorySpace(procs=0)
        with pytest.raises(ValueError):
            HistorySpace(locations=())

    def test_duplicate_locations_rejected(self):
        # ("x", "x") would enumerate every history twice.
        with pytest.raises(ValueError, match="duplicate location"):
            HistorySpace(procs=1, ops_per_proc=1, locations=("x", "x"))


class TestEnumeration:
    def test_count_matches_formula(self):
        space = HistorySpace(procs=2, ops_per_proc=1, locations=("x",))
        histories = list(enumerate_histories(space))
        assert len(histories) == space_size(space)

    def test_small_space_by_hand(self):
        # 1 proc, 1 op, 1 loc: w(x)1, r(x)0 — 2 histories.
        space = HistorySpace(procs=1, ops_per_proc=1, locations=("x",))
        hs = list(enumerate_histories(space))
        assert len(hs) == 2

    def test_write_values_distinct(self):
        space = HistorySpace(procs=2, ops_per_proc=2)
        for h in itertools.islice(enumerate_histories(space), 200):
            assert h.has_distinct_write_values()

    def test_reads_always_have_candidates(self):
        from repro.orders import reads_from_candidates

        space = HistorySpace(procs=2, ops_per_proc=2)
        for h in itertools.islice(enumerate_histories(space), 200):
            for op, cands in reads_from_candidates(h).items():
                assert cands, f"read with no candidate in {h}"

    def test_default_2x2_size(self):
        space = HistorySpace(procs=2, ops_per_proc=2)
        assert space_size(space) == sum(1 for _ in enumerate_histories(space))


class TestCanonicalization:
    def test_proc_renaming_collapses(self):
        from repro.litmus import parse_history

        a = parse_history("p0: w(x)1 | p1: r(x)1")
        b = parse_history("p0: r(x)2 | p1: w(x)2")  # roles swapped
        assert canonical_key(a) == canonical_key(b)

    def test_location_renaming_collapses(self):
        from repro.litmus import parse_history

        a = parse_history("p0: w(x)1 r(y)0 | p1: w(y)2 r(x)0")
        b = parse_history("p0: w(y)1 r(x)0 | p1: w(x)2 r(y)0")
        assert canonical_key(a) == canonical_key(b)

    def test_different_shapes_distinct(self):
        from repro.litmus import parse_history

        a = parse_history("p0: w(x)1 | p1: r(x)1")
        b = parse_history("p0: w(x)1 | p1: r(x)0")
        assert canonical_key(a) != canonical_key(b)

    def test_dedup_reduces_default_space(self):
        space = HistorySpace(procs=2, ops_per_proc=2)
        total = 0
        seen = set()
        for h in enumerate_histories(space):
            total += 1
            seen.add(canonical_key(h))
        assert len(seen) < total
        # Measured constant, guards against canonicalization regressions.
        assert len(seen) == 210


def _first_seen(space: HistorySpace) -> list:
    """The reference: enumerate everything, keep each canonical_key once."""
    seen: set = set()
    kept = []
    for h in enumerate_histories(space):
        key = canonical_key(h)
        if key not in seen:
            seen.add(key)
            kept.append(h)
    return kept


class TestCanonicalHistories:
    @pytest.mark.parametrize(
        "space",
        [
            HistorySpace(procs, ops, ("x", "y", "z")[:locs])
            for procs in (1, 2, 3)
            for ops in (1, 2)
            for locs in (1, 2, 3)
        ]
        + [HistorySpace(procs=2, ops_per_proc=3)],
        ids=lambda s: f"{s.procs}x{s.ops_per_proc}:{len(s.locations)}loc",
    )
    def test_equals_first_seen_representatives(self, space):
        assert list(canonical_histories(space)) == _first_seen(space)
