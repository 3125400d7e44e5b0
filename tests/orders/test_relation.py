"""Unit tests for the Relation algebra."""

import pytest

from repro.orders.relation import Relation


def rel(items, pairs=()):
    return Relation(items, pairs)


class TestBasics:
    def test_empty(self):
        r = rel("abc")
        assert len(r) == 0 and not r.orders("a", "b")

    def test_add_and_contains(self):
        r = rel("abc", [("a", "b")])
        assert ("a", "b") in r and ("b", "a") not in r

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            rel("aab")

    def test_pairs_deterministic(self):
        r = rel("abc", [("a", "c"), ("a", "b")])
        assert list(r.pairs()) == [("a", "b"), ("a", "c")]

    def test_successors_predecessors(self):
        r = rel("abc", [("a", "b"), ("a", "c")])
        assert r.successors("a") == ("b", "c")
        assert r.predecessors("c") == ("a",)

    def test_in_degrees(self):
        r = rel("abc", [("a", "b"), ("c", "b")])
        assert r.in_degrees() == {"a": 0, "b": 2, "c": 0}

    def test_from_chains(self):
        r = Relation.from_chains(["abc", "de"])
        assert ("a", "b") in r and ("d", "e") in r and ("a", "c") not in r


class TestCombinators:
    def test_union(self):
        r = rel("abc", [("a", "b")]).union(rel("abc", [("b", "c")]))
        assert ("a", "b") in r and ("b", "c") in r

    def test_union_does_not_mutate(self):
        base = rel("abc", [("a", "b")])
        base.union(rel("abc", [("b", "c")]))
        assert ("b", "c") not in base

    def test_restrict_by_predicate(self):
        r = rel("abc", [("a", "b"), ("b", "c")]).restrict(lambda x: x != "b")
        assert r.items == ("a", "c") and len(r) == 0

    def test_restrict_by_iterable(self):
        r = rel("abc", [("a", "b")]).restrict(["a", "b"])
        assert ("a", "b") in r

    def test_closure_small(self):
        r = rel("abc", [("a", "b"), ("b", "c")]).transitive_closure()
        assert ("a", "c") in r

    def test_closure_of_a_long_chain(self):
        items = list(range(20))
        chain = rel(items, [(i, i + 1) for i in range(19)])
        closed = chain.transitive_closure()
        assert (0, 19) in closed
        assert len(closed) == 20 * 19 // 2

    def test_closure_of_cycle(self):
        r = rel("ab", [("a", "b"), ("b", "a")]).transitive_closure()
        assert ("a", "a") in r and ("b", "b") in r

    def test_compose(self):
        r1 = rel("abc", [("a", "b")])
        r2 = rel("abc", [("b", "c")])
        assert ("a", "c") in r1.compose(r2)


class TestOrderTheory:
    def test_acyclic(self):
        assert rel("abc", [("a", "b"), ("b", "c")]).is_acyclic()
        assert not rel("ab", [("a", "b"), ("b", "a")]).is_acyclic()

    def test_find_cycle_returns_path(self):
        cyc = rel("abc", [("a", "b"), ("b", "c"), ("c", "a")]).find_cycle()
        assert cyc is not None and cyc[0] == cyc[-1]

    def test_topological_sort(self):
        order = rel("abc", [("c", "a"), ("a", "b")]).topological_sort()
        assert order.index("c") < order.index("a") < order.index("b")

    def test_topological_sort_cyclic_raises(self):
        with pytest.raises(ValueError):
            rel("ab", [("a", "b"), ("b", "a")]).topological_sort()

    def test_all_topological_sorts_count(self):
        # Two incomparable chains of 2: C(4,2) = 6 interleavings.
        r = Relation.from_chains(["ab", "cd"])
        assert sum(1 for _ in r.all_topological_sorts()) == 6

    def test_all_topological_sorts_respect_constraints(self):
        r = rel("abc", [("a", "b")])
        for order in r.all_topological_sorts():
            assert order.index("a") < order.index("b")

    def test_is_linear_extension(self):
        r = rel("abc", [("a", "b")])
        assert r.is_linear_extension(["a", "b", "c"])
        assert not r.is_linear_extension(["b", "a", "c"])
        assert not r.is_linear_extension(["a", "b"])  # wrong universe
