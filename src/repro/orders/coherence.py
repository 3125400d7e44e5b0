"""Coherence: per-location total orders on writes (Sections 2 and 3.3).

Coherence is the mutual-consistency requirement that all writes *to a given
location* appear in the same order in every processor view.  A *coherence
order* assigns each location a total order over its writes, extending each
processor's program order on that location (a processor's own same-location
writes are ordered by ``->ppo``, so any view — and hence any shared
per-location order — must respect it).

Checkers that need coherence (PC, RC, plain coherent memory) enumerate
candidate coherence orders with :func:`enumerate_coherence_orders` and test
each; :func:`forced_coherence_pairs` narrows the enumeration using
reads-from information before the (worst-case factorial) interleaving.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from repro.core.history import SystemHistory
from repro.core.operation import Operation
from repro.orders.relation import Relation
from repro.orders.writes_before import ReadsFrom

__all__ = [
    "CoherenceOrder",
    "program_write_chains",
    "forced_coherence_pairs",
    "enumerate_coherence_orders",
    "coherence_position",
]

#: A coherence order: location -> totally ordered tuple of its writes.
CoherenceOrder = Mapping[str, tuple[Operation, ...]]


def program_write_chains(
    history: SystemHistory, location: str
) -> list[tuple[Operation, ...]]:
    """Per-processor program-order chains of writes to ``location``."""
    chains = []
    for proc in history.procs:
        chain = tuple(
            op
            for op in history.ops_of(proc)
            if op.is_write and op.location == location
        )
        if chain:
            chains.append(chain)
    return chains


def forced_coherence_pairs(
    history: SystemHistory,
    location: str,
    reads_from: ReadsFrom | None = None,
) -> Relation[Operation]:
    """Edges every admissible coherence order of ``location`` must contain.

    Two sources of forced edges:

    * program order between a processor's own writes to the location;
    * when ``reads_from`` is supplied: if processor ``p`` reads from write
      ``w1`` and *later in program order* writes ``w2`` to the same location,
      then ``w1`` precedes ``w2`` (``p``'s view puts ``w1`` before ``w2`` and
      views respect the shared order).

    These are sound prunings, not a complete axiomatisation — enumeration
    plus per-view checking remains the decision procedure.
    """
    writes = tuple(
        op for op in history.operations if op.is_write and op.location == location
    )
    rel: Relation[Operation] = Relation(writes)
    for chain in program_write_chains(history, location):
        for a, b in zip(chain, chain[1:]):
            rel.add(a, b)
    if reads_from is not None:
        write_set = {w.uid for w in writes}
        for read_op, src in reads_from.items():
            if src is None or read_op.location != location:
                continue
            if src.uid not in write_set:
                continue
            for later in history.ops_of(read_op.proc)[read_op.index + 1:]:
                if later.is_write and later.location == location and later.uid != src.uid:
                    rel.add(src, later)
    return rel


def enumerate_coherence_orders(
    history: SystemHistory,
    reads_from: ReadsFrom | None = None,
) -> Iterator[dict[str, tuple[Operation, ...]]]:
    """Enumerate every coherence order consistent with the forced edges.

    The result iterates over the Cartesian product, per location, of all
    linear extensions of :func:`forced_coherence_pairs`.  Intended for the
    small histories used in litmus tests and lattice enumeration.
    """
    locations = [
        loc for loc in history.locations if any(True for _ in history.writes_to(loc))
    ]
    per_loc: list[list[tuple[Operation, ...]]] = []
    for loc in locations:
        forced = forced_coherence_pairs(history, loc, reads_from)
        if not forced.is_acyclic():
            return  # contradictory constraints: no coherence order exists
        per_loc.append([tuple(order) for order in forced.all_topological_sorts()])
    for combo in itertools.product(*per_loc):
        yield dict(zip(locations, combo))


def coherence_position(order: CoherenceOrder) -> dict[tuple, int]:
    """Map each write's identity to its rank within its location's order."""
    pos: dict[tuple, int] = {}
    for chain in order.values():
        for i, w in enumerate(chain):
            pos[w.uid] = i
    return pos
