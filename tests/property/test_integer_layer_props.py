"""The kernel's integer layers equal their definitional ``Relation`` forms.

Three pieces of the kernel run on universe indices instead of
``Operation`` objects and ``Relation``\\ s; each is pinned here to the
definition it replaces:

* layer 2: :func:`~repro.kernel.serializations.iter_mutual_candidates`
  yields exactly the candidates, in exactly the order, of the
  ``Relation.all_topological_sorts`` enumeration over the forced orders
  (:func:`reference_candidates`, the enumeration the kernel used before);
* layer 3: every registered ordering rule's mask function, and the
  bracketing rows, equal ``build(h, rf, None).pred_masks(h.operations)``;
* the labeled disciplines: ``RC_sc``'s serializations and ``RC_pc``'s
  sub-history semi-causality equal ``iter_legal_extensions`` and
  ``sem_relation`` on the projected labeled sub-history;
* the gate: the one-pass :func:`gate_masks` equals an acyclicity test
  followed by :func:`close_masks`;
* layer 4: the view search on universe indices (members as the try
  order, non-members marked placed) equals the search over
  :func:`restrict_masks` local masks, and so does the confined Kahn
  test; ``iter_legal_orders`` equals a filter over all permutations.

Histories mix reads, writes and RMWs, labeled operations, initial-value
reads and repeated write values (several attributions).
"""

from itertools import permutations, product
from math import factorial

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryBuilder
from repro.kernel.backend import (
    PythonBackend,
    close_masks,
    gate_masks,
    masks_acyclic,
    masks_acyclic_within,
)
from repro.kernel.constraints import (
    _bracketing_masks,
    bracketing_edges,
    history_plane,
    restrict_masks,
    rule_compiler,
    rule_masks,
)
from repro.kernel.rf import iter_attributions
from repro.kernel.search import _dfs_find, iter_legal_extensions, iter_legal_orders
from repro.kernel.serializations import (
    coherence_operations,
    forced_write_order,
    iter_labeled_extras,
    iter_mutual_candidates,
)
from repro.litmus import parse_history
from repro.obs.sink import RecordingSink
from repro.orders.coherence import enumerate_coherence_orders, forced_coherence_pairs
from repro.orders.program_order import in_program_order
from repro.orders.relation import Relation
from repro.orders.semi_causal import sem_relation
from repro.spec import ALL_SPECS
from repro.spec.parameters import MutualConsistency, partition_block_map
from repro.spec.registry import get_spec

#: One spec per enumerated mutual consistency: TSO (total write order),
#: PC (coherence), the two partitions, Hybrid (labeled total order).
CANDIDATE_SPECS = tuple(
    get_spec(name) for name in ("TSO", "PC", "partition-2", "partition-3", "Hybrid")
)

#: Every registered ordering rule the mask functions cover.
REGISTERED_RULES = tuple(
    dict.fromkeys(s.ordering for s in ALL_SPECS if not s.ordering.needs_coherence)
)

MAX_WRITES = 5


@st.composite
def histories(draw, max_procs=3, max_ops=3):
    """Small histories: reads, writes, RMWs, labeled ops, repeated values."""
    hb = HistoryBuilder()
    for pi in range(draw(st.integers(1, max_procs))):
        hb.proc(f"p{pi}")
        for _ in range(draw(st.integers(1, max_ops))):
            loc = draw(st.sampled_from(("x", "y", "z")))
            labeled = draw(st.booleans())
            kind = draw(st.sampled_from("rrwwu"))
            if kind == "r":
                hb.read(loc, draw(st.integers(0, 2)), labeled=labeled)
            elif kind == "w":
                hb.write(loc, draw(st.integers(1, 3)), labeled=labeled)
            else:
                hb.rmw(
                    loc,
                    draw(st.integers(0, 2)),
                    draw(st.integers(1, 3)),
                    labeled=labeled,
                )
    return hb.build()


def _by_location(order):
    chains = {}
    for op in order:
        chains.setdefault(op.location, []).append(op)
    return {loc: tuple(ops) for loc, ops in chains.items()}


def reference_candidates(spec, h, rf, pruning):
    """The candidates as the ``Relation`` enumeration yields them.

    ``(coherence, chains)`` pairs over operations, for ``pruning`` the
    effective reads-from pruning switch.
    """
    mc = spec.mutual_consistency
    seed = rf if pruning else None
    if mc is MutualConsistency.TOTAL_WRITE_ORDER:
        forced = forced_write_order(h, seed)
        if not forced.is_acyclic():
            return []
        return [
            (_by_location(order), (tuple(order),))
            for order in forced.all_topological_sorts()
        ]
    if mc is MutualConsistency.COHERENCE:
        return [
            (co, tuple(co.values())) for co in enumerate_coherence_orders(h, seed)
        ]
    if mc is MutualConsistency.PARTITION:
        blocks = spec.partition_blocks
        block = partition_block_map(h, blocks)
        per_block = []
        for b in range(blocks):
            forced = Relation([w for w in h.writes if block[w.location] == b])
            for proc in h.procs:
                chain = [
                    op
                    for op in h.ops_of(proc)
                    if op.is_write and block[op.location] == b
                ]
                for x, y in zip(chain, chain[1:]):
                    forced.add(x, y)
            if seed is not None:
                for loc in h.locations:
                    if block[loc] == b:
                        for x, y in forced_coherence_pairs(h, loc, seed).pairs():
                            forced.add(x, y)
            if not forced.is_acyclic():
                return []
            per_block.append([tuple(o) for o in forced.all_topological_sorts()])
        out = []
        for combo in product(*per_block):
            coherence = {}
            for order in combo:
                coherence.update(_by_location(order))
            out.append((coherence, tuple(order for order in combo if order)))
        return out
    assert mc is MutualConsistency.LABELED_TOTAL_ORDER
    forced = Relation(h.labeled_ops)
    for proc in h.procs:
        chain = [op for op in h.ops_of(proc) if op.labeled]
        for a, b in zip(chain, chain[1:]):
            forced.add(a, b)
    return [(None, (tuple(order),)) for order in forced.all_topological_sorts()]


def integer_candidates(spec, h, rf, pruning, unambiguous):
    ops = h.operations
    return [
        (
            coherence_operations(cand, ops),
            tuple(tuple(ops[i] for i in chain) for chain in cand.chains),
        )
        for cand in iter_mutual_candidates(
            spec, h, rf, use_reads_from_pruning=pruning, unambiguous=unambiguous
        )
    ]


def assert_candidates_match(h):
    hp = history_plane(h)
    unique = hp.unique_rf is not None
    attributions = list(iter_attributions(h, 64))
    if unique:
        attributions.append(hp.unique_rf)  # the plane-cached path
    for spec in CANDIDATE_SPECS:
        for rf in attributions:
            for pruning in (True, False):
                want = reference_candidates(spec, h, rf, pruning and unique)
                got = integer_candidates(spec, h, rf, pruning, unique)
                assert got == want, f"{spec.name}, pruning={pruning}:\n{h}"
                # Equal dicts could still differ in key order.
                assert [None if c is None else list(c) for c, _ in got] == [
                    None if c is None else list(c) for c, _ in want
                ]


@given(h=histories())
@example(h=parse_history("p: w(x)1 w(y)2 | q: r(y)2 w(x)3 | r: r(x)3 r(x)1"))
@example(h=parse_history("p: w*(x)1 r(y)0 w*(y)1 | q: w*(y)2 r*(x)1"))
@example(h=parse_history("p: u(x)0->1 w(x)1 | q: r(x)1 w(z)1 | r: r(z)0"))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_integer_candidates_equal_relation_enumeration(h):
    assume(len(h.writes) <= MAX_WRITES)
    assume(factorial(len(h.writes)) * len(list(iter_attributions(h, 64))) <= 2000)
    assert_candidates_match(h)


@given(h=histories())
@example(h=parse_history("p: u(x)5->1 w(x)5 | q: r(x)1"))
@example(h=parse_history("p: r*(x)1 w(y)1 w*(z)1 | q: w*(x)1 r(y)1 r*(z)0"))
@settings(max_examples=300, deadline=None)
def test_rule_masks_equal_rule_relations(h):
    hp = history_plane(h)
    for rf in iter_attributions(h, 64):
        src = {hp.index[r]: -1 if s is None else hp.index[s] for r, s in rf.items()}
        for rule in REGISTERED_RULES:
            assert rule_compiler(rule) is not None, rule.name
            want = rule.build(h, rf, None).pred_masks(h.operations)
            assert rule_masks(hp, rule, rf, src) == want, f"{rule.name}:\n{h}"
        want = bracketing_edges(h, rf).pred_masks(h.operations)
        assert _bracketing_masks(hp, src) == want, f"bracketing:\n{h}"


@st.composite
def gate_planes(draw, min_n=0, max_n=64):
    """``(masks, n)``: a random DAG under a random rank, plus back edges.

    About half the planes get one to three extra random edges, so cyclic
    planes (self-loops included) are about as common as acyclic ones.
    """
    n = draw(st.integers(min_n, max_n))
    rank = draw(st.permutations(range(n)))
    sparse = draw(st.integers(1, 3))
    masks = []
    for j in range(n):
        row = sum(1 << i for i in rank[: rank.index(j)])
        for _ in range(sparse):
            row &= draw(st.integers(0, (1 << n) - 1))
        masks.append(row)
    if n and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            masks[draw(st.sampled_from(rank))] |= 1 << draw(st.sampled_from(rank))
    return masks, n


@given(plane=gate_planes())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_one_pass_gate_equals_acyclic_then_close(plane):
    masks, n = plane
    want = close_masks(masks) if masks_acyclic(masks, n) else None
    assert gate_masks(masks, n) == want
    assert PythonBackend().gate(masks, n) == want


@st.composite
def view_planes(draw, max_n=12):
    """A universe plane, a view of it and universe-indexed payloads.

    ``(n, masks, members, loc, reads, writes)``: a :func:`gate_planes`
    plane (cycles and edges from non-members allowed), the members as a
    prefix of a random permutation (the try order), and per-operation
    location ids with read and write values over two locations (reads,
    writes and RMWs).
    """
    masks, n = draw(gate_planes(1, max_n))
    members = draw(st.permutations(range(n)))
    members = members[: draw(st.integers(0, n))]
    loc = [draw(st.integers(0, 1)) for _ in range(n)]
    reads: list = []
    writes: list = []
    for _ in range(n):
        kind = draw(st.sampled_from("rwu"))
        reads.append(draw(st.integers(0, 2)) if kind in "ru" else None)
        writes.append(draw(st.integers(1, 2)) if kind in "wu" else None)
    return n, masks, members, loc, reads, writes


def _confined_bits(members):
    bits = 0
    for g in members:
        bits |= 1 << g
    return bits


@given(plane=view_planes(max_n=14))
@settings(max_examples=300, deadline=None)
def test_confined_kahn_equals_restricted_acyclic(plane):
    n, masks, members, *_ = plane
    want = masks_acyclic(restrict_masks(masks, members), len(members))
    assert masks_acyclic_within(masks, _confined_bits(members)) == want


@given(plane=view_planes(), memoize=st.booleans())
@settings(max_examples=400, deadline=None)
def test_universe_view_search_equals_restricted_search(plane, memoize):
    """Members as try order, non-members placed == search over local masks.

    Same order (or ``None``), same narration, and the same failed states
    handed to ``on_fail`` (mapped to local positions).
    """
    n, masks, members, loc, reads, writes = plane
    v = len(members)
    bits = _confined_bits(members)
    outside = ((1 << n) - 1) ^ bits
    got_sink, want_sink = RecordingSink(), RecordingSink()
    got_failed: list = []
    want_failed: list = []

    def local_placed(placed):
        return sum(1 << k for k, g in enumerate(members) if placed >> g & 1)

    got = _dfs_find(
        n, masks, members, outside, loc, reads, writes, 2, 0, memoize,
        got_sink, "p", [f"op{g}" for g in range(n)],
        lambda placed, values: got_failed.append((local_placed(placed), values)),
    )
    want = _dfs_find(
        v, restrict_masks(masks, members), range(v), 0,
        [loc[g] for g in members], [reads[g] for g in members],
        [writes[g] for g in members], 2, 0, memoize,
        want_sink, "p", [f"op{g}" for g in members],
        lambda placed, values: want_failed.append((placed, values)),
    )
    assert got == (None if want is None else [members[i] for i in want])
    assert got_sink.events == want_sink.events
    assert got_failed == want_failed


def _legal_under(order, ops, pred, initial):
    placed = 0
    memory: dict = {}
    for i in order:
        if pred[i] & ~placed:
            return False
        op = ops[i]
        if op.is_read and memory.get(op.location, initial) != op.value_read:
            return False
        if op.is_write:
            memory[op.location] = op.value_written
        placed |= 1 << i
    return True


@given(
    h=histories(max_procs=2),
    data=st.data(),
    limit=st.one_of(st.none(), st.integers(0, 4)),
)
@settings(max_examples=300, deadline=None)
def test_iter_legal_orders_equals_permutation_filter(h, data, limit):
    ops = h.operations[:6]
    n = len(ops)
    pred = [
        data.draw(st.integers(0, (1 << n) - 1)) & ~(1 << j) for j in range(n)
    ]
    want = [
        list(order)
        for order in permutations(range(n))
        if _legal_under(order, ops, pred, 0)
    ]
    if limit is not None:
        want = want[:limit]
    assert list(iter_legal_orders(ops, pred, limit=limit)) == want


def reference_labeled_extras(spec, h, rf, coherence):
    """The labeled extras on the ``Relation`` plane, as operations.

    ``RC_sc``: each legal serialization of the labeled operations under
    their program order.  ``RC_pc``: the semi-causality of the projected
    labeled sub-history (a read whose source is not labeled reads its
    initial value), or nothing when it is cyclic.
    """
    labeled = h.labeled_ops
    if spec.labeled_discipline.value == "sc":
        po = Relation(labeled)
        for a in labeled:
            for b in labeled:
                if in_program_order(a, b):
                    po.add(a, b)
        return [(tuple(o),) for o in iter_legal_extensions(labeled, po)]
    sub, back = h.project(lambda op: op.labeled)
    fwd = {back[new.uid].uid: new for new in sub.operations}
    rf_sub = {}
    for new_op in sub.operations:
        if new_op.is_read:
            src = rf.get(back[new_op.uid])
            ok = src is not None and src.uid in fwd
            rf_sub[new_op] = fwd[src.uid] if ok else None
    co_sub = {}
    for loc, chain in (coherence or {}).items():
        projected = tuple(fwd[w.uid] for w in chain if w.uid in fwd)
        if projected:
            co_sub[loc] = projected
    rel = Relation(h.operations)
    for a, b in sem_relation(sub, rf_sub, co_sub).pairs():
        rel.add(back[a.uid], back[b.uid])
    if not rel.is_acyclic():
        return []
    return [rel.transitive_closure().pred_masks(h.operations)]


@given(h=histories())
@example(h=parse_history("p: w*(x)1 r*(y)0 w*(y)1 | q: w*(y)2 r*(x)1 r*(y)1"))
@example(h=parse_history("p: u*(x)5->1 w*(x)5 | q: r*(x)1"))
@example(h=parse_history("p: w*(x)1 w(y)1 | q: r*(x)1 r*(y)1 w*(x)2 | r: r*(x)2"))
# A labeled read of an ordinary write reads the sub-history's initial
# value, so it is ->rrb-before w*(y)3.
@example(h=parse_history("p: w(x)1 | q: w*(x)2 w*(y)3 | r: r*(x)1"))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_labeled_extras_equal_relation_forms(h):
    assume(h.labeled_ops and len(h.writes) <= MAX_WRITES)
    ops = h.operations
    for name in ("RC_sc", "RC_pc"):
        spec = get_spec(name)
        for rf in list(iter_attributions(h, 16)):
            cands = list(iter_mutual_candidates(spec, h, rf))
            for cand in cands[:24]:
                co = coherence_operations(cand, ops)
                got = [
                    tuple(tuple(ops[i] for i in c) for c in x.chains)
                    if x.masks is None
                    else x.masks
                    for x in iter_labeled_extras(spec, h, rf, cand, 10_000)
                ]
                assert got == reference_labeled_extras(spec, h, rf, co), (
                    f"{name}:\n{h}"
                )
