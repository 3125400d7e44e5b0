"""Tests for the legal-linear-extension search kernel."""

from repro.kernel import count_legal_extensions, find_legal_extension, iter_legal_extensions
from repro.core import read, write
from repro.core.view import is_legal_sequence
from repro.litmus import parse_history
from repro.orders import po_relation
from repro.orders.relation import Relation


class TestFindLegalExtension:
    def test_trivial(self):
        ops = [write("p", 0, "x", 1)]
        out = find_legal_extension(ops, Relation(ops))
        assert out == ops

    def test_respects_constraints(self):
        a, b = write("p", 0, "x", 1), write("q", 0, "x", 2)
        rel = Relation([a, b], [(b, a)])
        out = find_legal_extension([a, b], rel)
        assert out == [b, a]

    def test_legality_forces_order(self):
        # r(x)2 must come after w(x)2 and with no intervening w(x)1.
        w1, w2 = write("p", 0, "x", 1), write("q", 0, "x", 2)
        r = read("r", 0, "x", 2)
        out = find_legal_extension([w1, w2, r], Relation([w1, w2, r]))
        assert out is not None
        assert is_legal_sequence(out)

    def test_unsatisfiable_read(self):
        r = read("p", 0, "x", 9)
        assert find_legal_extension([r], Relation([r])) is None

    def test_cyclic_constraints(self):
        a, b = write("p", 0, "x", 1), write("q", 0, "x", 2)
        rel = Relation([a, b], [(a, b), (b, a)])
        assert find_legal_extension([a, b], rel) is None

    def test_sb_with_program_order_unsatisfiable(self):
        # Figure 1 under full po: the classic SC impossibility.
        h = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
        assert find_legal_extension(h.operations, po_relation(h)) is None

    def test_sb_without_constraints_satisfiable(self):
        h = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
        out = find_legal_extension(h.operations, Relation(h.operations))
        assert out is not None and is_legal_sequence(out)

    def test_deterministic(self):
        h = parse_history("p: w(x)1 w(y)2 | q: r(x)1")
        rel = po_relation(h)
        assert find_legal_extension(h.operations, rel) == find_legal_extension(
            h.operations, rel
        )

    def test_constraints_outside_universe_ignored(self):
        a = write("p", 0, "x", 1)
        foreign = write("z", 0, "q", 9)
        rel = Relation([a, foreign], [(foreign, a)])
        assert find_legal_extension([a], rel) == [a]

    def test_long_extension_found(self):
        # 130 operations: there is no operation cap.  Each read must
        # follow its own write; program order forces the rest.
        h = parse_history(
            "p: " + " ".join(f"w(x){v}" for v in range(1, 66))
            + " | q: " + " ".join(f"r(x){v}" for v in range(1, 66))
        )
        out = find_legal_extension(h.operations, po_relation(h))
        assert out is not None and len(out) == 130
        assert is_legal_sequence(out)

    def test_rmw_legality(self):
        w = write("p", 0, "x", 1)
        u = read("q", 0, "x", 1)  # plain read of 1
        from repro.core import rmw

        t = rmw("r", 0, "x", 1, 2)
        out = find_legal_extension([w, u, t], Relation([w, u, t]))
        assert out is not None and is_legal_sequence(out)


class TestIterAndCount:
    def test_count_unconstrained_writes(self):
        a, b = write("p", 0, "x", 1), write("q", 0, "y", 2)
        assert count_legal_extensions([a, b], Relation([a, b])) == 2

    def test_count_respects_legality(self):
        w = write("p", 0, "x", 1)
        r = read("q", 0, "x", 1)
        # r must follow w: only one of the two orders is legal.
        assert count_legal_extensions([w, r], Relation([w, r])) == 1

    def test_iter_limit(self):
        ops = [write(f"p{i}", 0, f"l{i}", i + 1) for i in range(4)]
        out = list(iter_legal_extensions(ops, Relation(ops), limit=5))
        assert len(out) == 5

    def test_iter_yields_legal_extensions(self):
        h = parse_history("p: w(x)1 r(x)1 | q: w(y)2")
        rel = po_relation(h)
        for seq in iter_legal_extensions(h.operations, rel):
            assert is_legal_sequence(seq)
            assert rel.is_linear_extension(seq)
