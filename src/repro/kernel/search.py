"""Layer 4 of the constraint kernel: the one linear-extension search.

Every checker in the framework bottoms out here.  Given per-operation
predecessor bitmasks and read/write payloads, the search constructs a legal
linear extension — legal as in paper Section 2: every read observes the most
recent preceding write to its location — by depth-first backtracking over
``(placed-set, last-write-per-location)`` states with memoized failures.
The memory state is carried *incrementally* across backtrack frames (one
tuple substitution per placement) and, under an unambiguous reads-from
attribution, the compiled propagation edges of
:mod:`repro.kernel.constraints` turn would-be deep value failures into
immediate predecessor-mask failures.

The module exposes two surfaces:

* the legal-extension API —
  :func:`find_legal_extension`, :func:`iter_legal_extensions`,
  :func:`count_legal_extensions` — with identical semantics (including the
  64-operation limit and determinism guarantees), and
* the generic spec-driven driver :func:`check_with_spec` (plus
  :func:`explain_with_spec` for counterexamples), which composes layers
  1–3 and replaces the old monolithic solver while preserving its verdicts,
  witnesses, ``explored`` counts and budget semantics exactly.

Ambiguity
---------
The paper (and the litmus-test tradition) assumes distinct write values so
the writes-before relation is a function of the history.  When a history
violates that discipline we define "allowed" as: *there exists* a
reads-from attribution under which the model's constraints are satisfiable.
All fast paths and all experiments use distinct values.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.core.view import View
from repro.kernel.backend import masks_acyclic, masks_acyclic_within
from repro.kernel.constraints import (
    CompiledConstraints,
    compile_constraints,
    history_plane,
)
from repro.kernel.results import CheckResult, Counterexample, Witness
from repro.kernel.rf import impossible_read, iter_attributions
from repro.kernel.serializations import (
    coherence_operations,
    iter_labeled_extras,
    iter_mutual_candidates,
)
from repro.obs.events import (
    AttributionTried,
    Backtracked,
    CandidateTried,
    CheckStarted,
    LabeledExtraTried,
    NodeEntered,
    PhaseMark,
    PropagationApplied,
    VerdictReached,
    ViewSearch,
    ViewSolved,
    ViewStuck,
)
from repro.obs import sink as _sink_state
from repro.obs.sink import TraceSink, tracing
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom, unambiguous_reads_from

__all__ = [
    "SearchBudget",
    "check_with_spec",
    "explain_with_spec",
    "find_legal_extension",
    "iter_legal_extensions",
    "iter_legal_orders",
    "count_legal_extensions",
]

_MAX_OPS = 64


class SearchBudget:
    """Caps on the solver's enumeration, to fail loudly instead of hanging.

    The decision problem is NP-hard, so *some* budget is unavoidable; the
    defaults comfortably cover every litmus test and the exhaustive lattice
    enumeration while keeping pathological inputs from running away.
    """

    def __init__(
        self,
        max_reads_from: int = 4096,
        max_serializations: int = 200_000,
        max_labeled_orders: int = 100_000,
        use_reads_from_pruning: bool = True,
    ) -> None:
        self.max_reads_from = max_reads_from
        self.max_serializations = max_serializations
        self.max_labeled_orders = max_labeled_orders
        #: Ablation switch: derive forced write-order edges from the
        #: reads-from attribution before enumerating serializations.
        #: Disabling it preserves verdicts but multiplies the number of
        #: candidate write orders examined (see bench_ablation.py).
        self.use_reads_from_pruning = use_reads_from_pruning


# -- the search core ----------------------------------------------------------


def _dfs_find(
    n: int,
    pred: Sequence[int],
    members: Sequence[int],
    outside: int,
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
    initial: int,
    memoize: bool,
    sink: TraceSink | None = None,
    proc: str = "",
    render: Sequence[str] = (),
    on_fail: Callable[[int, tuple[int, ...]], None] | None = None,
) -> list[int] | None:
    """One legal extension of ``members``, as indices, or ``None``.

    The search runs on ``n``-bit universe indices: ``pred`` and the
    payloads are indexed by universe index, and ``outside`` marks every
    index that is not a member as already placed, so a member's
    predecessors outside the view never hold it back.  Deterministic:
    members are tried in the order given, so equal inputs give the same
    witness.

    The search keeps an explicit stack of ``(placed, values, untried
    members)`` frames and defines no nested function, so its depth is
    not bounded by the recursion limit and it leaves no reference cycle
    behind.  A state already memoized as failed is entered and backed
    out of without being searched again.

    With ``sink`` set, every placement and backtrack is narrated as a
    ``NodeEntered``/``Backtracked`` event labelled ``proc``, naming the
    operation by ``render`` (indexed like ``pred``); search order,
    memoization and the witness do not change.  ``on_fail(placed,
    values)`` is called at every state the search leaves failed, just
    before it is memoized (the explain path finds its deepest dead end
    this way).
    """
    full = (1 << n) - 1
    order: list[int] = []
    if outside == full:
        return order
    failed: set[tuple[int, tuple[int, ...]]] = set()
    stack: list[tuple[int, tuple[int, ...], Iterator[int]]] = []
    placed = outside
    values = tuple([initial] * n_locs)
    untried = iter(members)
    while True:
        for g in untried:
            bit = 1 << g
            if placed & bit or (pred[g] & ~placed):
                continue
            li = op_loc[g]
            rv = read_vals[g]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[g]
            child_values = values
            if wv is not None and values[li] != wv:
                child_values = values[:li] + (wv,) + values[li + 1:]
            if sink is not None:
                sink.emit(NodeEntered(proc=proc, depth=len(order), op=render[g]))
            order.append(g)
            child = placed | bit
            if child == full:
                return order
            if memoize and (child, child_values) in failed:
                order.pop()
                if sink is not None:
                    sink.emit(Backtracked(proc=proc, depth=len(order), op=render[g]))
                continue
            stack.append((placed, values, untried))
            placed, values, untried = child, child_values, iter(members)
            break
        else:
            # Every member tried from this state: it is failed.
            if on_fail is not None:
                on_fail(placed, values)
            if memoize:
                failed.add((placed, values))
            if not stack:
                return None
            placed, values, untried = stack.pop()
            g = order.pop()
            if sink is not None:
                sink.emit(Backtracked(proc=proc, depth=len(order), op=render[g]))


# -- legal-extension API ------------------------------------------------------


def _payloads(
    ops: Sequence[Operation],
) -> tuple[list[int], list[int | None], list[int | None], int]:
    """Location ids and read/write values of an ad-hoc operation set."""
    loc_names = sorted({op.location for op in ops})
    loc_index = {loc: i for i, loc in enumerate(loc_names)}
    op_loc = [loc_index[op.location] for op in ops]
    read_vals: list[int | None] = [
        op.value_read if op.is_read else None for op in ops
    ]
    write_vals: list[int | None] = [
        op.value_written if op.is_write else None for op in ops
    ]
    return op_loc, read_vals, write_vals, len(loc_names)


def _prepare(
    ops: Sequence[Operation], pred: Sequence[int]
) -> tuple[Sequence[int], list[int], list[int | None], list[int | None], int] | None:
    """Masks and payloads for an ad-hoc operation set, or ``None`` if cyclic."""
    n = len(ops)
    if n > _MAX_OPS:
        raise CheckerError(
            f"view of {n} operations exceeds the {_MAX_OPS}-operation solver limit"
        )
    if not masks_acyclic(pred, n):
        return None
    return (pred, *_payloads(ops))


def find_legal_extension(
    ops: Sequence[Operation],
    constraints: Relation[Operation],
    *,
    initial: int = INITIAL_VALUE,
    memoize: bool = True,
) -> list[Operation] | None:
    """One legal linear extension of ``constraints`` over ``ops``, or ``None``.

    Parameters
    ----------
    ops:
        The operations the sequence must contain (each exactly once).
    constraints:
        Required orderings; pairs mentioning operations outside ``ops``
        are ignored.
    initial:
        Initial value of every location.
    memoize:
        Ablation switch: record failing (placed-set, memory-state) pairs
        so each dead state is explored once.  Disabling it preserves
        results but revisits dead states exponentially often on
        unsatisfiable instances (see bench_ablation.py).
    """
    prep = _prepare(ops, constraints.pred_masks(ops))
    if prep is None:
        return None
    pred, op_loc, read_vals, write_vals, n_locs = prep
    n = len(ops)
    order = _dfs_find(
        n, pred, range(n), 0, op_loc, read_vals, write_vals, n_locs, initial,
        memoize,
    )
    if order is None:
        return None
    return [ops[i] for i in order]


def iter_legal_extensions(
    ops: Sequence[Operation],
    constraints: Relation[Operation],
    *,
    initial: int = INITIAL_VALUE,
    limit: int | None = None,
):
    """Yield every legal linear extension (small inputs only).

    Unlike :func:`find_legal_extension` this cannot memoize failures across
    branches that must all be enumerated, so it is exponential even on
    *successful* instances; ``limit`` bounds the number of yields.
    """
    for order in iter_legal_orders(
        ops, constraints.pred_masks(ops), initial=initial, limit=limit
    ):
        yield [ops[i] for i in order]


def iter_legal_orders(
    ops: Sequence[Operation],
    pred: Sequence[int],
    *,
    initial: int = INITIAL_VALUE,
    limit: int | None = None,
):
    """:func:`iter_legal_extensions` on predecessor masks over ``ops``.

    Yields each legal extension as a list of positions in ``ops``.
    """
    prep = _prepare(ops, pred)
    if prep is None:
        return
    yield from _iter_legal(len(ops), *prep, initial, limit)


def _iter_legal(
    n: int,
    pred: Sequence[int],
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
    initial: int,
    limit: int | None = None,
) -> Iterator[list[int]]:
    """Every legal extension as a list of local indices, in index order.

    The explicit-stack walk of :func:`_dfs_find` without its failure
    memo: every branch is enumerated.
    """
    if limit is not None and limit <= 0:
        return
    full = (1 << n) - 1
    order: list[int] = []
    if full == 0:
        yield order
        return
    yielded = 0
    stack: list[tuple[int, tuple[int, ...], Iterator[int]]] = []
    placed = 0
    values = tuple([initial] * n_locs)
    untried = iter(range(n))
    while True:
        for i in untried:
            bit = 1 << i
            if placed & bit or (pred[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            child_values = values
            if wv is not None and values[li] != wv:
                child_values = values[:li] + (wv,) + values[li + 1:]
            child = placed | bit
            if child == full:
                yield order + [i]
                yielded += 1
                if limit is not None and yielded >= limit:
                    return
                continue
            order.append(i)
            stack.append((placed, values, untried))
            placed, values, untried = child, child_values, iter(range(n))
            break
        else:
            if not stack:
                return
            placed, values, untried = stack.pop()
            order.pop()


def count_legal_extensions(
    ops: Sequence[Operation],
    constraints: Relation[Operation],
    *,
    initial: int = INITIAL_VALUE,
    limit: int = 1_000_000,
) -> int:
    """The number of legal linear extensions (capped at ``limit``)."""
    count = 0
    for _ in iter_legal_extensions(ops, constraints, initial=initial, limit=limit):
        count += 1
    return count


# -- the spec-driven driver ---------------------------------------------------


def check_with_spec(
    spec,
    history: SystemHistory,
    budget: SearchBudget | None = None,
    *,
    trace: TraceSink | None = None,
    reuse: Any | None = None,
) -> CheckResult:
    """Decide whether ``history`` is allowed by the model ``spec`` describes.

    The composition of the kernel's four layers: enumerate attributions
    (layer 1) × mutual-consistency candidates and labeled extras (layer 2)
    over the compiled constraint plane (layer 3), searching each
    processor's view (this layer) until some combination yields legal
    views for every processor.

    With ``trace`` set (or a sink installed via
    :func:`repro.obs.sink.tracing`), the check narrates its search as
    typed :mod:`repro.obs.events` — same verdict, same witness, same
    ``explored`` count.  The default — no sink anywhere — takes the
    untraced hot path with zero per-node instrumentation.

    ``reuse`` is the incremental session's failure-memory hook
    (:class:`repro.kernel.incremental.IncrementalCheck` installs it); the
    default ``None`` — every ordinary caller — leaves the search
    byte-identical to the pre-incremental driver.
    """
    if trace is not None:
        with tracing(trace):
            return _check_with_spec_impl(spec, history, budget, trace, reuse)
    # Read the module global directly: this is the gate on the untraced
    # hot path, and an attribute load is cheaper than a function call.
    return _check_with_spec_impl(spec, history, budget, _sink_state._ACTIVE, reuse)


def _render_rf(rf: ReadsFrom) -> tuple[tuple[str, str], ...]:
    """The attribution as rendered (read, source) pairs, deterministic order."""
    return tuple(
        (str(r), "" if w is None else str(w))
        for r, w in sorted(rf.items(), key=lambda kv: (str(kv[0].proc), kv[0].index))
    )


def _check_with_spec_impl(
    spec,
    history: SystemHistory,
    budget: SearchBudget | None,
    sink: TraceSink | None,
    reuse: Any | None = None,
) -> CheckResult:
    budget = budget or SearchBudget()
    if sink is not None:
        sink.emit(
            CheckStarted(
                model=spec.name,
                operations=len(history.operations),
                processors=len(history.procs),
            )
        )

    # Derive the candidate-source table once (shared across the specs a
    # sweep checks this history against); every layer below receives it.
    if sink is not None:
        sink.emit(PhaseMark(phase="compile", mark="start"))
    hp = history_plane(history)
    candidates = hp.candidates

    # A read of a value no write stores (and which is not the initial
    # value) cannot be legal in any view under any model.
    bad = impossible_read(history, candidates)
    if bad is not None:
        reason = f"{bad} observes a value never written to {bad.location!r}"
        if sink is not None:
            sink.emit(PhaseMark(phase="compile", mark="end"))
            sink.emit(
                VerdictReached(
                    model=spec.name, allowed=False, explored=0, reason=reason
                )
            )
        return CheckResult(
            spec.name,
            False,
            reason=reason,
            counterexample=Counterexample(spec.name, "impossible-value", reason),
        )

    cc = compile_constraints(spec, history)
    if sink is not None:
        sink.emit(PhaseMark(phase="compile", mark="end"))
        sink.emit(PhaseMark(phase="search", mark="start"))
    try:
        return _search_candidates(
            spec, history, budget, sink, hp, candidates, cc, reuse
        )
    finally:
        if sink is not None:
            sink.emit(PhaseMark(phase="search", mark="end"))


def _try_candidate(
    spec,
    budget: SearchBudget,
    sink: TraceSink | None,
    cc: CompiledConstraints,
    plane,
    rf: ReadsFrom,
    cand,
    prepared: tuple[list[int], dict[Any, list[int]] | None],
    propagate: bool,
    explored: int,
    history: SystemHistory,
) -> tuple[int, CheckResult | None]:
    """Run one gated candidate's labeled-extra loop and view searches.

    Returns the updated ``explored`` count and the ADMIT result, or
    ``None`` when every labeled extra of this candidate is exhausted.
    """
    base, own = prepared
    prop = cc.candidate_propagation(plane, cand.coherence) if propagate else None
    if sink is not None and prop is not None:
        sink.emit(PropagationApplied(edges=sum(m.bit_count() for m in prop)))
    n_extra = 0
    for extra in iter_labeled_extras(
        spec, history, rf, cand, budget.max_labeled_orders
    ):
        explored += 1
        if explored > budget.max_serializations:
            raise CheckerError(
                f"{spec.name}: search budget exceeded after "
                f"{budget.max_serializations} candidate serializations"
            )
        if sink is not None and extra is not None:
            n_extra += 1
            order = extra.chains[0] if extra.chains else ()
            sink.emit(
                LabeledExtraTried(
                    index=n_extra, order=tuple(str(cc.ops[i]) for i in order)
                )
            )
        extra_m = cc.extra_masks(extra)
        views = _solve_views(cc, base, own, extra_m, prop, sink)
        if views is not None:
            if sink is not None:
                sink.emit(
                    VerdictReached(
                        model=spec.name, allowed=True, explored=explored
                    )
                )
            return explored, CheckResult(
                spec.name,
                True,
                views=views,
                explored=explored,
                witness=Witness(
                    views=views,
                    reads_from=rf,
                    coherence=coherence_operations(cand, cc.ops),
                ),
            )
    return explored, None


def _search_candidates(
    spec,
    history: SystemHistory,
    budget: SearchBudget,
    sink: TraceSink | None,
    hp,
    candidates,
    cc: CompiledConstraints,
    reuse: Any | None = None,
) -> CheckResult:
    """Layers 1–4 composed: the enumeration loop of the spec-driven driver.

    One loop, one candidate at a time: the reuse hook, when installed,
    may skip a candidate its prefix already decided; every other
    candidate is gated by ``assemble_base`` and, if it survives, searched.
    """
    # Propagation edges are attribution-forced, hence sound only when the
    # attribution is the unique one (see constraints.candidate_propagation).
    unique_rf = hp.unique_rf
    propagate = unique_rf is not None
    if reuse is not None and not propagate:
        # Failure memory is keyed per candidate under the single unique
        # attribution; an ambiguous history enumerates attributions and
        # the keys would collide across them.
        reuse = None
    if reuse is not None:
        reuse.start(cc.ops)
    explored = 0
    attributions = (
        (unique_rf,)
        if propagate
        else iter_attributions(history, budget.max_reads_from, candidates)
    )
    n_attr = 0
    for rf in attributions:
        n_attr += 1
        if sink is not None:
            sink.emit(
                AttributionTried(
                    index=n_attr, unique=propagate, assignment=_render_rf(rf)
                )
            )
        plane = cc.plane(rf, propagate)
        n_cand = 0
        for cand in iter_mutual_candidates(
            spec,
            history,
            rf,
            use_reads_from_pruning=budget.use_reads_from_pruning,
            unambiguous=propagate,
        ):
            n_cand += 1
            if sink is not None:
                sink.emit(
                    CandidateTried(
                        index=n_cand,
                        chains=tuple(
                            tuple(str(cc.ops[i]) for i in chain)
                            for chain in cand.chains
                        ),
                    )
                )
            if reuse is not None:
                mode = reuse.lookup(cand)
                if mode == "cyclic":
                    # The prefix's cycle only gained edges; skip without
                    # counting, exactly as a fresh assemble_base rejection.
                    continue
                if mode == "stuck":
                    if reuse.needs_probe(cand):
                        # The appended ops entered this candidate's chains,
                        # so the acyclicity gate could now flip; replay it.
                        ordering = cc.ordering_masks(plane, cand.coherence)
                        if not cc.base_acyclic(plane, cand.chains, ordering):
                            reuse.record(cand, "cyclic")
                            continue
                    # The prefix exhausted this candidate's view searches
                    # and extension only constrains them further; count it
                    # explored (the extras loop is the single ``None``
                    # entry whenever the hook is installed) and move on.
                    reuse.record(cand, "stuck")
                    explored += 1
                    if explored > budget.max_serializations:
                        raise CheckerError(
                            f"{spec.name}: search budget exceeded after "
                            f"{budget.max_serializations} candidate serializations"
                        )
                    continue
            ordering = cc.ordering_masks(plane, cand.coherence)
            prepared = cc.assemble_base(plane, cand.chains, ordering)
            if prepared is None:
                if reuse is not None:
                    reuse.record(cand, "cyclic")
                continue
            explored, result = _try_candidate(
                spec, budget, sink, cc, plane, rf, cand, prepared,
                propagate, explored, history,
            )
            if result is not None:
                return result
            if reuse is not None:
                reuse.record(cand, "stuck")
    reason = "no choice of views satisfies the model's requirements"
    if sink is not None:
        sink.emit(
            VerdictReached(
                model=spec.name, allowed=False, explored=explored, reason=reason
            )
        )
    return CheckResult(
        spec.name,
        False,
        reason=reason,
        explored=explored,
    )


def _union(a: Sequence[int], b: Sequence[int] | None) -> Sequence[int]:
    if b is None:
        return a
    return [x | y for x, y in zip(a, b)]


def _solve_one_view(
    cc: CompiledConstraints,
    masks: Sequence[int],
    members: Sequence[int],
    outside: int,
    sink: TraceSink | None,
    proc_label: str,
    render: Sequence[str],
) -> list[int] | None:
    """One view search on universe indices, narrated when a sink is present."""
    hp = cc.hp
    if sink is None:
        return _dfs_find(
            cc.n, masks, members, outside, hp.uni_loc, hp.uni_read,
            hp.uni_write, len(hp.locations), INITIAL_VALUE, True,
        )
    sink.emit(ViewSearch(proc=proc_label, operations=len(members)))
    order = _dfs_find(
        cc.n, masks, members, outside, hp.uni_loc, hp.uni_read, hp.uni_write,
        len(hp.locations), INITIAL_VALUE, True, sink, proc_label, render,
    )
    if order is None:
        sink.emit(ViewStuck(proc=proc_label))
    else:
        sink.emit(
            ViewSolved(proc=proc_label, order=tuple(render[g] for g in order))
        )
    return order


def _solve_views(
    cc: CompiledConstraints,
    base: Sequence[int],
    own: dict[Any, Sequence[int]] | None,
    extra: Sequence[int] | None,
    prop: Sequence[int] | None,
    sink: TraceSink | None = None,
) -> dict[Any, View] | None:
    """Every processor's view under one gated candidate, or ``None``.

    ``base`` is closed and acyclic (the gate saw to it), and so is every
    view of it; a cycle test runs only when labeled extras or
    propagation edges were added to it.
    """
    history = cc.history
    render = [str(op) for op in cc.ops] if sink is not None else ()
    fresh = extra is not None or prop is not None
    combined = base if extra is None else _union(base, extra)
    searched = _union(combined, prop)
    if cc.identical:
        if cc.n > _MAX_OPS:
            raise CheckerError(
                f"view of {cc.n} operations exceeds the "
                f"{_MAX_OPS}-operation solver limit"
            )
        if fresh and not masks_acyclic(searched, cc.n):
            if sink is not None:
                sink.emit(ViewStuck(proc="*", reason="constraint-cycle"))
            return None
        order = _solve_one_view(
            cc, searched, cc.universe_plane.members, 0, sink, "*", render
        )
        if order is None:
            return None
        sequence = [cc.ops[g] for g in order]
        return {
            proc: View(proc, sequence, history, validate=False)
            for proc in history.procs
        }

    full = (1 << cc.n) - 1
    orders: list[tuple[Any, list[int]]] = []
    for proc in cc.procs:
        masks = searched
        if own is not None:
            # Release consistency: the ordering binds this processor's own
            # operations only in its own view.  The pre-kernel solver checks
            # acyclicity of the combination over the *full* universe,
            # without propagation edges, before restricting; mirror that
            # (it can reject candidates a view-local check would accept).
            if not masks_acyclic(_union(combined, own[proc]), cc.n):
                if sink is not None:
                    sink.emit(ViewStuck(proc=str(proc), reason="constraint-cycle"))
                return None
            masks = _union(masks, own[proc])
        vp = cc.views[proc]
        if len(vp.members) > _MAX_OPS:
            raise CheckerError(
                f"view of {len(vp.members)} operations exceeds the "
                f"{_MAX_OPS}-operation solver limit"
            )
        if fresh and not masks_acyclic_within(masks, vp.bits):
            if sink is not None:
                sink.emit(ViewStuck(proc=str(proc), reason="constraint-cycle"))
            return None
        order = _solve_one_view(
            cc, masks, vp.members, full ^ vp.bits, sink, str(proc), render
        )
        if order is None:
            return None
        orders.append((proc, order))
    return {
        proc: View(proc, [cc.ops[g] for g in order], history, validate=False)
        for proc, order in orders
    }


# -- counterexamples ----------------------------------------------------------


def explain_with_spec(
    spec,
    history: SystemHistory,
    budget: SearchBudget | None = None,
) -> CheckResult:
    """Like :func:`check_with_spec`, but attach a counterexample when denied.

    The counterexample reports the first unsatisfiable view constraint the
    kernel hits on the first choice of attribution and mutual-consistency
    candidate — the shape ``python -m repro explain`` prints.
    """
    result = check_with_spec(spec, history, budget)
    if result.allowed or result.counterexample is not None:
        return result
    budget = budget or SearchBudget()
    cx = _first_failure(spec, history, budget)
    return CheckResult(
        result.model,
        False,
        reason=result.reason,
        explored=result.explored,
        counterexample=cx,
    )


def _first_failure(
    spec, history: SystemHistory, budget: SearchBudget
) -> Counterexample:
    cc = compile_constraints(spec, history)
    propagate = unambiguous_reads_from(history) is not None
    for rf in iter_attributions(history, budget.max_reads_from):
        plane = cc.plane(rf)
        for cand in iter_mutual_candidates(
            spec, history, rf, use_reads_from_pruning=budget.use_reads_from_pruning
        ):
            ordering = cc.ordering_masks(plane, cand.coherence)
            prepared = cc.assemble_base(plane, cand.chains, ordering)
            if prepared is None:
                return _cyclic_counterexample(spec, history, rf, cand)
            base, own = prepared
            prop = (
                cc.candidate_propagation(plane, cand.coherence) if propagate else None
            )
            for extra in iter_labeled_extras(
                spec, history, rf, cand, budget.max_labeled_orders
            ):
                extra_m = cc.extra_masks(extra)
                return _stuck_view_counterexample(
                    cc, base, own, extra_m, prop
                )
            break  # no labeled extras: fall through to the generic message
        else:
            return Counterexample(
                spec.name,
                "cyclic-constraints",
                "the reads-from attribution forces contradictory "
                "mutual-consistency orders (no candidate serialization exists)",
            )
        break
    return Counterexample(
        spec.name,
        "stuck-view",
        "no labeled serialization satisfies the model's labeled discipline",
    )


def _cyclic_counterexample(
    spec, history: SystemHistory, rf: ReadsFrom, cand
) -> Counterexample:
    """Reconstruct the cycle of the first candidate on the relation plane."""
    from repro.kernel.constraints import bracketing_edges

    ops = history.operations
    rel = spec.ordering.build(history, rf, coherence_operations(cand, ops))
    combined: Relation[Operation] = Relation(ops)
    if not spec.ordering_own_view_only:
        combined = combined.union(rel)
    for chain in cand.chains:
        for i, a in enumerate(chain):
            for b in chain[i + 1:]:
                combined.add(ops[a], ops[b])
    if spec.bracketing:
        combined = combined.union(bracketing_edges(history, rf))
    cycle = combined.find_cycle() or []
    return Counterexample(
        spec.name,
        "cyclic-constraints",
        "the model's ordering constraints are contradictory "
        f"(cycle of {max(len(cycle) - 1, 0)} operations)",
        cycle=tuple(cycle),
    )


def _stuck_view_counterexample(
    cc: CompiledConstraints,
    base: Sequence[int],
    own: dict[Any, Sequence[int]] | None,
    extra: Sequence[int] | None,
    prop: Sequence[int] | None,
) -> Counterexample:
    """Diagnose the first processor whose view search gets stuck."""
    spec = cc.spec
    combined = _union(_union(base, extra), prop)
    if cc.identical:
        probes = [(None, cc.universe_plane, combined)]
    else:
        probes = []
        for proc in cc.procs:
            masks = combined
            if own is not None:
                masks = _union(masks, own[proc])
            probes.append((proc, cc.views[proc], masks))
    hp = cc.hp
    full = (1 << cc.n) - 1
    for proc, vp, masks in probes:
        members = vp.members
        outside = full ^ vp.bits
        # The deepest dead end of the failing search: the partial view with
        # the most operations placed from which no operation can be placed
        # next — the most informative frontier to show a human.  The first
        # failed state of greatest depth is one: a placeable operation
        # would lead to a deeper failed state.  Under a constraint cycle
        # it is the empty prefix, and the blocked list shows the mutual
        # blocking.
        deepest = (0, outside, tuple([INITIAL_VALUE] * len(hp.locations)))
        if masks_acyclic_within(masks, vp.bits):

            def failed_state(placed: int, values: tuple[int, ...]) -> None:
                nonlocal deepest
                depth = (placed ^ outside).bit_count()
                if depth > deepest[0]:
                    deepest = (depth, placed, values)

            if _dfs_find(
                cc.n, masks, members, outside, hp.uni_loc, hp.uni_read,
                hp.uni_write, len(hp.locations), INITIAL_VALUE, True,
                on_fail=failed_state,
            ) is not None:
                continue
        depth, placed, values = deepest
        blocked: list[tuple[Operation, str]] = []
        for g in members:
            if placed & (1 << g):
                continue
            op = cc.ops[g]
            missing = masks[g] & ~placed
            if missing:
                # Name the missing predecessor that comes first in the view.
                first = next(h for h in members if missing >> h & 1)
                blocked.append((op, f"must follow {cc.ops[first]}"))
                continue
            cur = values[hp.uni_loc[g]]
            blocked.append(
                (op, f"reads {hp.uni_read[g]} but {op.location} holds {cur}")
            )
        who = "the common view" if proc is None else f"processor {proc!r}"
        return Counterexample(
            spec.name,
            "stuck-view",
            f"no legal view exists for {who}",
            proc=proc,
            stuck_after=depth,
            blocked=tuple(blocked),
        )
    # Every view individually satisfiable under the first candidate, yet the
    # driver rejected: the failure spans candidates; report generically.
    return Counterexample(
        spec.name,
        "stuck-view",
        "every candidate serialization leaves some processor without "
        "a legal view",
    )
