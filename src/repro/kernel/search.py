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

* the compatibility API of the old ``repro.checking.extension`` module —
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

from itertools import islice
from typing import Any, Sequence

from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.core.operation import INITIAL_VALUE, Operation
from repro.core.view import View
from repro.kernel.backend import active_backend
from repro.kernel.constraints import (
    CompiledConstraints,
    compile_constraints,
    history_plane,
    masks_acyclic,
    restrict_masks,
)
from repro.kernel.results import CheckResult, Counterexample, Witness
from repro.kernel.rf import impossible_read, iter_attributions
from repro.kernel.serializations import iter_labeled_extras, iter_mutual_candidates
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
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
    initial: int,
    memoize: bool,
) -> list[int] | None:
    """One legal extension as local indices, or ``None``.

    Deterministic: operations are tried in index order, so given equal
    inputs the same witness is returned.
    """
    full = (1 << n) - 1
    failed: set[tuple[int, tuple[int, ...]]] = set()
    order: list[int] = []

    def dfs(placed: int, values: tuple[int, ...]) -> bool:
        if placed == full:
            return True
        key = (placed, values)
        if memoize and key in failed:
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            order.append(i)
            if dfs(placed | bit, new_values):
                return True
            order.pop()
        if memoize:
            failed.add(key)
        return False

    if dfs(0, tuple([initial] * n_locs)):
        return order
    return None


def _dfs_find_traced(
    n: int,
    pred: Sequence[int],
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
    initial: int,
    memoize: bool,
    sink: TraceSink,
    proc: str,
    render: Sequence[str],
) -> list[int] | None:
    """:func:`_dfs_find` narrating every placement/backtrack to ``sink``.

    A separate function rather than a flag so the untraced hot path stays
    byte-for-byte the pre-instrumentation code — ``bench_obs.py`` holds
    the disabled overhead under 3%.  Search order, memoization and the
    returned witness are identical to :func:`_dfs_find`.
    """
    full = (1 << n) - 1
    failed: set[tuple[int, tuple[int, ...]]] = set()
    order: list[int] = []

    def dfs(placed: int, values: tuple[int, ...]) -> bool:
        if placed == full:
            return True
        key = (placed, values)
        if memoize and key in failed:
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            sink.emit(NodeEntered(proc=proc, depth=len(order), op=render[i]))
            order.append(i)
            if dfs(placed | bit, new_values):
                return True
            order.pop()
            sink.emit(Backtracked(proc=proc, depth=len(order), op=render[i]))
        if memoize:
            failed.add(key)
        return False

    if dfs(0, tuple([initial] * n_locs)):
        return order
    return None


# -- compatibility API (the old repro.checking.extension surface) -------------


def _prepare(
    ops: Sequence[Operation], constraints: Relation[Operation]
) -> tuple[list[int], list[int], list[int | None], list[int | None], int] | None:
    """Masks and payloads for an ad-hoc operation set, or ``None`` if cyclic."""
    n = len(ops)
    if n > _MAX_OPS:
        raise CheckerError(
            f"view of {n} operations exceeds the {_MAX_OPS}-operation solver limit"
        )
    pred = constraints.pred_masks(ops)
    if not masks_acyclic(pred, n):
        return None
    loc_names = sorted({op.location for op in ops})
    loc_index = {loc: i for i, loc in enumerate(loc_names)}
    op_loc = [loc_index[op.location] for op in ops]
    read_vals: list[int | None] = [
        op.value_read if op.is_read else None for op in ops
    ]
    write_vals: list[int | None] = [
        op.value_written if op.is_write else None for op in ops
    ]
    return pred, op_loc, read_vals, write_vals, len(loc_names)


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
    prep = _prepare(ops, constraints)
    if prep is None:
        return None
    pred, op_loc, read_vals, write_vals, n_locs = prep
    order = _dfs_find(
        len(ops), pred, op_loc, read_vals, write_vals, n_locs, initial, memoize
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
    prep = _prepare(ops, constraints)
    if prep is None:
        return
    pred, op_loc, read_vals, write_vals, n_locs = prep
    n = len(ops)
    full = (1 << n) - 1
    order: list[int] = []
    yielded = 0

    def dfs(placed: int, values: tuple[int, ...]):
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if placed == full:
            yielded += 1
            yield [ops[i] for i in order]
            return
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            order.append(i)
            yield from dfs(placed | bit, new_values)
            order.pop()

    yield from dfs(0, tuple([initial] * n_locs))


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
    prepass: bool = False,
    trace: TraceSink | None = None,
    reuse: Any | None = None,
) -> CheckResult:
    """Decide whether ``history`` is allowed by the model ``spec`` describes.

    The composition of the kernel's four layers: enumerate attributions
    (layer 1) × mutual-consistency candidates and labeled extras (layer 2)
    over the compiled constraint plane (layer 3), searching each
    processor's view (this layer) until some combination yields legal
    views for every processor.

    With ``prepass=True``, the polynomial static pre-pass
    (:mod:`repro.staticcheck.prepass`) runs first and short-circuits the
    search on a definite verdict — a necessary-condition DENY or an
    ADMIT whose witness the pre-pass constructed outright.  The
    ``allowed`` bit is unchanged either way (the pre-pass is sound in
    both directions; a short-circuited result carries ``explored=0`` and
    the pre-pass's own witness).  The default is off so the kernel
    surface stays byte-comparable to the frozen legacy solver, and the
    engine opts in on top.

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
            return _check_with_spec_impl(
                spec, history, budget, prepass, trace, reuse
            )
    # Read the module global directly: this is the gate on the untraced
    # hot path, and an attribute load is cheaper than a function call.
    return _check_with_spec_impl(
        spec, history, budget, prepass, _sink_state._ACTIVE, reuse
    )


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
    prepass: bool,
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

    if prepass:
        # Imported lazily: repro.staticcheck imports kernel modules, so a
        # top-level import here would be circular.
        from repro.staticcheck.prepass import prepass_check

        if sink is not None:
            sink.emit(PhaseMark(phase="prepass", mark="start"))
        verdict = prepass_check(spec, history)
        if sink is not None:
            sink.emit(PhaseMark(phase="prepass", mark="end"))
        if verdict.decided:
            result = verdict.to_result()
            if sink is not None:
                # Narrate the pre-pass's witness the way the search would:
                # the views exist and are part of the returned result.
                for proc, view in result.views.items():
                    sink.emit(
                        ViewSolved(
                            proc=str(proc),
                            order=tuple(str(op) for op in view),
                        )
                    )
                sink.emit(
                    VerdictReached(
                        model=spec.name,
                        allowed=result.allowed,
                        explored=0,
                        reason=result.reason,
                    )
                )
            return result

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


#: Frontier chunk sizes for batched candidate gating: start at one so the
#: common admit-on-first-candidate check pays nothing for batching, ramp
#: geometrically so DENY verdicts (which enumerate the whole frontier
#: anyway) hand the backend large batches.
_FRONTIER_RAMP_CAP = 64


def _gate_chunk(
    cc: CompiledConstraints,
    plane,
    chunk: Sequence[Any],
    orderings: Sequence[Sequence[int] | None],
) -> list[tuple[list[int], dict[Any, list[int]] | None] | None]:
    """Assemble and gate a whole chunk of mutual candidates at once.

    The batched counterpart of ``CompiledConstraints.assemble_base``: the
    raw base masks are built per candidate (chains are tiny), then the
    acyclicity gate + closure of the entire frontier goes through the
    active backend in one ``gate_batch`` call.  The gate is a pure
    function of each plane, so results are identical to the sequential
    path for every backend — the reference backend's ``gate_batch`` *is*
    the sequential path.
    """
    raw = [
        cc._base_masks(plane, cand.chains, ordering)
        for cand, ordering in zip(chunk, orderings)
    ]
    gated = active_backend().gate_batch([masks for masks, _ in raw], cc.n)
    return [
        None if closed is None else (closed, raw[i][1])
        for i, closed in enumerate(gated)
    ]


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
    Shared verbatim by the sequential (incremental-reuse) and batched
    drivers so the two cannot drift.
    """
    base, own = prepared
    prop = cc.candidate_propagation(plane, cand.coherence) if propagate else None
    if sink is not None and prop is not None:
        sink.emit(PropagationApplied(edges=sum(m.bit_count() for m in prop)))
    n_extra = 0
    for extra in iter_labeled_extras(
        spec, history, rf, cand.coherence, budget.max_labeled_orders
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
                    index=n_extra, order=tuple(str(op) for op in order)
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
                    views=views, reads_from=rf, coherence=cand.coherence
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
    """Layers 1–4 composed: the enumeration loop of the spec-driven driver."""
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
        reuse.start()
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
        if reuse is not None:
            # Sequential driver: the failure-memory hook interleaves a
            # per-candidate lookup with the gate, so candidates go one at
            # a time through the reference primitives (sessions check a
            # single appended history — there is no frontier to batch).
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
                                tuple(str(op) for op in chain)
                                for chain in cand.chains
                            ),
                        )
                    )
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
                    reuse.record(cand, "cyclic")
                    continue
                explored, result = _try_candidate(
                    spec, budget, sink, cc, plane, rf, cand, prepared,
                    propagate, explored, history,
                )
                if result is not None:
                    return result
                reuse.record(cand, "stuck")
        else:
            # Batched driver: pull candidates in geometrically ramping
            # chunks and gate each whole frontier chunk through the
            # active backend in one call.  Pulling candidates ahead of
            # processing has no observable effect (enumeration emits no
            # events), the ramp starts at one so an admit-on-first check
            # does no extra work, and the per-candidate pass below runs
            # in enumeration order — so events, explored counts, budget
            # errors and the first witness are byte-identical to the
            # sequential driver on every backend.
            cand_iter = iter_mutual_candidates(
                spec,
                history,
                rf,
                use_reads_from_pruning=budget.use_reads_from_pruning,
                unambiguous=propagate,
            )
            n_cand = 0
            chunk_size = 1
            while True:
                chunk = list(islice(cand_iter, chunk_size))
                if not chunk:
                    break
                chunk_size = min(chunk_size * 4, _FRONTIER_RAMP_CAP)
                orderings = [
                    cc.ordering_masks(plane, cand.coherence) for cand in chunk
                ]
                gated = _gate_chunk(cc, plane, chunk, orderings)
                for cand, prepared in zip(chunk, gated):
                    n_cand += 1
                    if sink is not None:
                        sink.emit(
                            CandidateTried(
                                index=n_cand,
                                chains=tuple(
                                    tuple(str(op) for op in chain)
                                    for chain in cand.chains
                                ),
                            )
                        )
                    if prepared is None:
                        continue
                    explored, result = _try_candidate(
                        spec, budget, sink, cc, plane, rf, cand, prepared,
                        propagate, explored, history,
                    )
                    if result is not None:
                        return result
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
    n: int,
    masks: Sequence[int],
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
    sink: TraceSink | None,
    proc_label: str,
    render: Sequence[str],
) -> list[int] | None:
    """One view search, narrated when a sink is present."""
    if sink is None:
        return _dfs_find(
            n, masks, op_loc, read_vals, write_vals, n_locs, INITIAL_VALUE, True
        )
    sink.emit(ViewSearch(proc=proc_label, operations=n))
    order = _dfs_find_traced(
        n,
        masks,
        op_loc,
        read_vals,
        write_vals,
        n_locs,
        INITIAL_VALUE,
        True,
        sink,
        proc_label,
        render,
    )
    if order is None:
        sink.emit(ViewStuck(proc=proc_label))
    else:
        sink.emit(
            ViewSolved(proc=proc_label, order=tuple(render[i] for i in order))
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
    history = cc.history
    if cc.identical:
        up = cc.universe_plane
        if cc.n > _MAX_OPS:
            raise CheckerError(
                f"view of {cc.n} operations exceeds the "
                f"{_MAX_OPS}-operation solver limit"
            )
        masks = _union(_union(base, extra), prop)
        if not masks_acyclic(masks, cc.n):
            if sink is not None:
                sink.emit(ViewStuck(proc="*", reason="constraint-cycle"))
            return None
        order = _solve_one_view(
            cc.n,
            masks,
            up.op_loc,
            up.read_vals,
            up.write_vals,
            up.n_locs,
            sink,
            "*",
            [str(op) for op in cc.ops] if sink is not None else (),
        )
        if order is None:
            return None
        sequence = [cc.ops[i] for i in order]
        return {
            proc: View(proc, sequence, history, validate=False)
            for proc in history.procs
        }

    views: dict[Any, View] = {}
    combined = base if extra is None else _union(base, extra)
    for proc in cc.procs:
        masks = combined
        if own is not None:
            # Release consistency: the ordering binds this processor's own
            # operations only in its own view.  The pre-kernel solver checks
            # acyclicity of the combination over the *full* universe before
            # restricting; mirror that (it can reject candidates a
            # view-local check would accept).
            masks = _union(masks, own[proc])
            if not masks_acyclic(masks, cc.n):
                if sink is not None:
                    sink.emit(ViewStuck(proc=str(proc), reason="constraint-cycle"))
                return None
        masks = _union(masks, prop)
        vp = cc.views[proc]
        v = len(vp.members)
        if v > _MAX_OPS:
            raise CheckerError(
                f"view of {v} operations exceeds the "
                f"{_MAX_OPS}-operation solver limit"
            )
        local = restrict_masks(masks, vp.members)
        if not masks_acyclic(local, v):
            if sink is not None:
                sink.emit(ViewStuck(proc=str(proc), reason="constraint-cycle"))
            return None
        order = _solve_one_view(
            v,
            local,
            vp.op_loc,
            vp.read_vals,
            vp.write_vals,
            vp.n_locs,
            sink,
            str(proc),
            [str(cc.ops[g]) for g in vp.members] if sink is not None else (),
        )
        if order is None:
            return None
        views[proc] = View(
            proc, [cc.ops[vp.members[i]] for i in order], history, validate=False
        )
    return views


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
                spec, history, rf, cand.coherence, budget.max_labeled_orders
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

    rel = spec.ordering.build(history, rf, cand.coherence)
    combined: Relation[Operation] = Relation(history.operations)
    if not spec.ordering_own_view_only:
        combined = combined.union(rel)
    for chain in cand.chains:
        for i, a in enumerate(chain):
            for b in chain[i + 1:]:
                combined.add(a, b)
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
    for proc, vp, masks in probes:
        members = vp.members
        local = restrict_masks(masks, members)
        v = len(members)
        stuck = _deepest_stuck_state(
            v, local, vp.op_loc, vp.read_vals, vp.write_vals, vp.n_locs
        )
        if stuck is None:
            continue
        depth, placed, values = stuck
        loc_names = sorted(
            {cc.ops[g].location for g in members}
        )
        blocked: list[tuple[Operation, str]] = []
        for i in range(v):
            if placed & (1 << i):
                continue
            op = cc.ops[members[i]]
            missing = local[i] & ~placed
            if missing:
                j = (missing & -missing).bit_length() - 1
                blocked.append(
                    (op, f"must follow {cc.ops[members[j]]}")
                )
                continue
            rv = vp.read_vals[i]
            cur = values[vp.op_loc[i]]
            blocked.append(
                (op, f"reads {rv} but {loc_names[vp.op_loc[i]]} holds {cur}")
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


def _deepest_stuck_state(
    n: int,
    pred: Sequence[int],
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
) -> tuple[int, int, tuple[int, ...]] | None:
    """The deepest dead-end of a failing search, or ``None`` if it succeeds.

    Returns ``(operations placed, placed mask, memory values)`` for the
    failing partial view with the most operations placed — the most
    informative frontier to show a human.
    """
    if not masks_acyclic(pred, n):
        # A constraint cycle: report the empty prefix; the blocked list
        # will show the mutual blocking.
        return 0, 0, tuple([INITIAL_VALUE] * n_locs)
    full = (1 << n) - 1
    failed: set[tuple[int, tuple[int, ...]]] = set()
    best: list[tuple[int, int, tuple[int, ...]]] = [
        (0, 0, tuple([INITIAL_VALUE] * n_locs))
    ]

    def dfs(placed: int, values: tuple[int, ...], depth: int) -> bool:
        if placed == full:
            return True
        key = (placed, values)
        if key in failed:
            return False
        progressed = False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            progressed = True
            if dfs(placed | bit, new_values, depth + 1):
                return True
        if not progressed and depth > best[0][0]:
            best[0] = (depth, placed, values)
        failed.add(key)
        return False

    if dfs(0, tuple([INITIAL_VALUE] * n_locs), 0):
        return None
    return best[0]
