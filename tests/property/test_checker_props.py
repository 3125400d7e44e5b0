"""Property-based tests over the checkers (hypothesis).

Invariants: the Figure 5 containments hold on arbitrary generated
histories; witness views really witness; fast paths agree with the
generic solver; verdicts are invariant under processor renaming.
"""

from hypothesis import HealthCheck, given, settings

from repro.checking import MODELS, check
from repro.core.history import ProcessorHistory, SystemHistory
from repro.core.operation import Operation
from repro.core.view import check_view_contents, is_legal_sequence
from repro.lattice import FIGURE5_EDGES

from tests.property.test_history_strategies import history_strategy

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(history_strategy())
@RELAXED
def test_figure5_containments(h):
    verdicts = {}
    for stronger, weaker in FIGURE5_EDGES:
        for name in (stronger, weaker):
            if name not in verdicts:
                verdicts[name] = check(h, name).allowed
        if verdicts[stronger]:
            assert verdicts[weaker], f"{stronger} ⊄ {weaker}:\n{h}"


@given(history_strategy())
@RELAXED
def test_witness_views_are_valid(h):
    for model in ("SC", "TSO", "PRAM", "Causal"):
        res = MODELS[model].check(h)
        if res.allowed:
            for proc, view in res.views.items():
                assert is_legal_sequence(list(view))
                check_view_contents(list(view), h, proc)


@given(history_strategy(max_procs=2))
@RELAXED
def test_fast_paths_agree_with_generic(h):
    # TSO is the one spec model with a fast path (SC and PRAM: E30).
    m = MODELS["TSO"]
    assert m.check(h).allowed == m.check_generic(h).allowed, f"TSO:\n{h}"


@given(history_strategy())
@RELAXED
def test_verdicts_invariant_under_proc_renaming(h):
    renamed = SystemHistory(
        ProcessorHistory(
            f"z{proc}",
            [
                Operation(
                    proc=f"z{proc}",
                    index=op.index,
                    kind=op.kind,
                    location=op.location,
                    value=op.value,
                    read_value=op.read_value,
                    labeled=op.labeled,
                )
                for op in h.ops_of(proc)
            ],
        )
        for proc in h.procs
    )
    for model in ("SC", "TSO", "PRAM", "Causal"):
        assert check(h, model).allowed == check(renamed, model).allowed


@given(history_strategy(max_procs=2, max_ops=2))
@RELAXED
def test_single_processor_histories_decided_by_legality(h):
    # For one processor, every model collapses: allowed iff the program
    # order itself is a legal sequence.
    if len(h.procs) != 1:
        return
    legal = is_legal_sequence(list(h.ops_of(h.procs[0])))
    for model in ("SC", "TSO", "PC", "PRAM", "Causal", "Coherence"):
        assert check(h, model).allowed == legal, f"{model}:\n{h}"


@given(history_strategy(max_procs=2))
@RELAXED
def test_slow_memory_bounds_the_lattice(h):
    # Slow memory contains every unlabeled model (and unlabeled hybrid
    # contains slow): the measured bottom of the extended lattice.
    slow = check(h, "Slow").allowed
    for model in ("SC", "TSO", "PC", "PRAM", "Causal", "Coherence"):
        if check(h, model).allowed:
            assert slow, f"{model} ⊄ Slow:\n{h}"
    if slow:
        assert check(h, "Hybrid").allowed, f"Slow ⊄ Hybrid:\n{h}"


@given(history_strategy(labeled=True, max_procs=2))
@RELAXED
def test_labeled_hybrid_between_sc_and_everything(h):
    # Fully-labeled histories: SC implies hybrid (the SC order is the
    # agreed strong order).
    strong = h.relabel(lambda op: True)
    if check(strong, "SC").allowed:
        assert check(strong, "Hybrid").allowed, f"SC ⊄ Hybrid (all-strong):\n{h}"


@given(history_strategy(labeled=True, max_procs=2))
@RELAXED
def test_rc_sc_contained_in_rc_pc(h):
    if check(h, "RC_sc").allowed:
        assert check(h, "RC_pc").allowed, f"RC_sc ⊄ RC_pc:\n{h}"


@given(history_strategy(labeled=True, max_procs=2))
@RELAXED
def test_sc_contained_in_rc_sc_under_location_discipline(h):
    # The RC containment holds only under the paper's Section 5
    # assumption: synchronization locations are touched only by labeled
    # operations (otherwise the labeled sub-history is not self-contained
    # and RC_sc's labeled-SC requirement is vacuously unsatisfiable).
    from repro.analysis import location_discipline_violations

    if location_discipline_violations(h):
        return
    if check(h, "SC").allowed:
        assert check(h, "RC_sc").allowed, f"SC ⊄ RC_sc:\n{h}"
