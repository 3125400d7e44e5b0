"""Property-based tests for the relation algebra (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.orders.relation import Relation

items = st.integers(min_value=0, max_value=11)
pairs = st.lists(st.tuples(items, items).filter(lambda p: p[0] != p[1]), max_size=20)


def make(pair_list):
    return Relation(range(12), pair_list)


@given(pairs)
def test_closure_is_idempotent(pair_list):
    r = make(pair_list).transitive_closure()
    again = r.transitive_closure()
    assert set(r.pairs()) == set(again.pairs())


@given(pairs)
def test_closure_contains_original(pair_list):
    r = make(pair_list)
    closed = r.transitive_closure()
    assert set(r.pairs()) <= set(closed.pairs())


@given(pairs)
def test_closure_is_transitive(pair_list):
    closed = make(pair_list).transitive_closure()
    ps = set(closed.pairs())
    for a, b in ps:
        for c, d in ps:
            if b == c:
                assert (a, d) in ps


@given(pairs, pairs)
def test_union_commutative_on_pairs(p1, p2):
    a = make(p1).union(make(p2))
    b = make(p2).union(make(p1))
    assert set(a.pairs()) == set(b.pairs())


@given(pairs)
def test_closure_ignores_items_outside_the_pairs(pair_list):
    # The same pairs over a 6-item and a 12-item universe close alike.
    small = Relation(range(6), [(a % 6, b % 6) for a, b in pair_list if a % 6 != b % 6])
    big = Relation(range(12), [(a % 6, b % 6) for a, b in pair_list if a % 6 != b % 6])
    sc = set(small.transitive_closure().pairs())
    bc = set(big.transitive_closure().pairs())
    assert sc == {(a, b) for a, b in bc if a < 6 and b < 6}


@st.composite
def any_relation(draw):
    """0-40 items and any pairs over them, self-loops and cycles included."""
    n = draw(st.integers(min_value=0, max_value=40))
    if n == 0:
        return n, []
    item = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(item, item), max_size=3 * n))


def reachable(n, pair_list):
    """Brute-force ``R+``: (a, b) when b is reached from a in one or more steps."""
    succ = {a: set() for a in range(n)}
    for a, b in pair_list:
        succ[a].add(b)
    out = set()
    for a in range(n):
        frontier, seen = list(succ[a]), set(succ[a])
        while frontier:
            for c in succ[frontier.pop()]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        out |= {(a, b) for b in seen}
    return out


@given(any_relation())
@settings(max_examples=200)
def test_closure_is_reachability(relation):
    n, pair_list = relation
    closed = Relation(range(n), pair_list).transitive_closure()
    assert set(closed.pairs()) == reachable(n, pair_list)
    assert closed.items == tuple(range(n))


@given(pairs)
@settings(max_examples=50)
def test_topological_sort_is_linear_extension_when_acyclic(pair_list):
    r = make(pair_list)
    if r.is_acyclic():
        order = r.topological_sort()
        assert r.is_linear_extension(order)


@given(pairs)
@settings(max_examples=50)
def test_cycle_detection_consistent_with_sort(pair_list):
    r = make(pair_list)
    cycle = r.find_cycle()
    if cycle is None:
        r.topological_sort()  # must not raise
    else:
        # The returned cycle must be a real path through the relation.
        assert cycle[0] == cycle[-1] and len(cycle) >= 2
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in r


@given(pairs)
@settings(max_examples=30)
def test_restrict_preserves_internal_pairs(pair_list):
    r = make(pair_list)
    keep = set(range(6))
    restricted = r.restrict(lambda x: x in keep)
    expected = {(a, b) for a, b in r.pairs() if a in keep and b in keep}
    assert set(restricted.pairs()) == expected
