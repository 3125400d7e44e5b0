"""Ablations of the design choices DESIGN.md calls out.

Two load-bearing optimizations in the decision procedures, measured with
the switch on and off (verdicts are asserted identical):

* **reads-from pruning** — deriving forced write-order edges from the
  unique reads-from attribution before enumerating TSO write orders /
  coherence orders.  Without it the serialization enumeration explores
  every interleaving.
* **failure-state memoization** in the legal-extension kernel — caching
  failing (placed-set, memory-state) pairs.  Without it unsatisfiable
  instances revisit dead subtrees exponentially often.

Also measured: the TSO fast path (greedy read placement) against the
generic solver on the same histories, quantifying the third design choice.
"""


from repro.checking import MODELS
from repro.kernel import SearchBudget, check_with_spec, find_legal_extension
from repro.litmus import parse_history
from repro.orders import po_relation
from repro.spec import TSO_SPEC

# TSO-unsatisfiable history where two processors read a location and then
# overwrite it: reads-from forces write-order edges, so pruning shrinks
# the (fully exhausted) serialization enumeration 4x.
PRUNABLE = parse_history(
    "p: w(x)1 w(y)9 | q: r(x)1 w(x)2 r(c)0 | t: r(y)9 w(y)10 | "
    "r: w(a)3 w(b)4 | s: r(y)9 r(x)0"
)

# Unsatisfiable SC instance used for verdict-identity checks.
UNSAT = parse_history(
    "p: w(x)1 r(y)0 w(a)3 r(b)0 | q: w(y)2 r(x)0 w(b)4 r(a)0"
)


def _deep_unsat():
    """Memoization's showcase: two 10-write chains ending in impossible reads.

    The reachable search states collapse to (chain position, chain
    position) pairs — about 120 — while the raw path count is the central
    binomial C(20,10) ≈ 184k; memoization turns a multi-second exhaustive
    failure into milliseconds (~600x measured).
    """
    from repro.core import HistoryBuilder

    b = HistoryBuilder()
    b.proc("p")
    for i in range(10):
        b.write("a", i + 1)
    b.read("y", 9)
    b.proc("q")
    for i in range(10):
        b.write("b", i + 101)
    b.read("x", 9)
    return b.build()


DEEP_UNSAT = _deep_unsat()


def test_ablation_verdicts_identical(benchmark):
    """The switches are pure optimizations: verdicts never change."""
    benchmark.group = "claims"

    def verify():
        for history in (PRUNABLE, UNSAT):
            on = check_with_spec(TSO_SPEC, history, SearchBudget())
            off = check_with_spec(
                TSO_SPEC, history, SearchBudget(use_reads_from_pruning=False)
            )
            assert on.allowed == off.allowed
            # The pruned search explores no more candidates than the unpruned.
            assert on.explored <= off.explored
        rel = po_relation(UNSAT)
        assert (
            find_legal_extension(UNSAT.operations, rel, memoize=True)
            == find_legal_extension(UNSAT.operations, rel, memoize=False)
        )
        return True

    assert benchmark.pedantic(verify, rounds=1, iterations=1)


def test_bench_tso_with_rf_pruning(benchmark):
    benchmark.group = "ablation: reads-from pruning (TSO)"
    result = benchmark(lambda: check_with_spec(TSO_SPEC, PRUNABLE, SearchBudget()))
    assert not result.allowed and result.explored == 45


def test_bench_tso_without_rf_pruning(benchmark):
    benchmark.group = "ablation: reads-from pruning (TSO)"
    result = benchmark(
        lambda: check_with_spec(
            TSO_SPEC, PRUNABLE, SearchBudget(use_reads_from_pruning=False)
        )
    )
    assert not result.allowed and result.explored == 180


def test_bench_extension_with_memoization(benchmark):
    benchmark.group = "ablation: failure memoization (deep unsat)"
    rel = po_relation(DEEP_UNSAT)
    result = benchmark(
        lambda: find_legal_extension(DEEP_UNSAT.operations, rel, memoize=True)
    )
    assert result is None


def test_bench_extension_without_memoization(benchmark):
    benchmark.group = "ablation: failure memoization (deep unsat)"
    rel = po_relation(DEEP_UNSAT)
    result = benchmark.pedantic(
        lambda: find_legal_extension(DEEP_UNSAT.operations, rel, memoize=False),
        rounds=3,
        iterations=1,
    )
    assert result is None


def test_bench_tso_fast_path(benchmark):
    benchmark.group = "ablation: TSO fast path vs generic"
    m = MODELS["TSO"]
    result = benchmark(lambda: m.check(PRUNABLE))
    assert not result.allowed


def test_bench_tso_generic_path(benchmark):
    benchmark.group = "ablation: TSO fast path vs generic"
    m = MODELS["TSO"]
    result = benchmark(lambda: m.check_generic(PRUNABLE))
    assert not result.allowed
