"""Exhaustive enumeration of small system execution histories.

The paper relates memories by *set containment* over the histories they
allow (Section 4, Figure 5).  To check those claims mechanically we
enumerate every small history — every assignment of operation kinds,
locations, and read values to a fixed grid of processors × slots — and run
every checker on each.

To keep the space meaningful and the checkers fast, writes are assigned
globally distinct values (1, 2, … by slot position), the conventional
litmus discipline under which reads-from is unambiguous.  Reads range over
the initial value 0 plus the values written to their location anywhere in
the history (other values are rejected by every model outright and carry
no information).

Symmetry reduction: histories equal up to renaming of processors and
locations (values are canonical already) classify identically under every
model, so :func:`canonical_key` tells duplicates apart, typically
shrinking the space by close to ``procs! × locations!``.
:func:`canonical_histories` yields each class's first history directly,
without building the duplicates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.history import ProcessorHistory, SystemHistory
from repro.core.operation import Operation, read, write

__all__ = [
    "HistorySpace",
    "canonical_histories",
    "canonical_key",
    "enumerate_histories",
    "space_size",
]


@dataclass(frozen=True)
class HistorySpace:
    """A grid of histories: ``procs`` processors issuing ``ops_per_proc`` ops.

    Attributes
    ----------
    procs:
        Number of processors (named ``p0``, ``p1``, …).
    ops_per_proc:
        Operations issued by each processor.
    locations:
        Location names available to every operation.
    """

    procs: int = 2
    ops_per_proc: int = 2
    locations: tuple[str, ...] = ("x", "y")

    def __post_init__(self) -> None:
        if self.procs < 1 or self.ops_per_proc < 1 or not self.locations:
            raise ValueError(f"degenerate history space {self}")
        if len(set(self.locations)) != len(self.locations):
            raise ValueError(f"duplicate location names in {self}")

    @property
    def slots(self) -> int:
        """Total operation slots in the grid."""
        return self.procs * self.ops_per_proc

    def proc_names(self) -> tuple[str, ...]:
        return tuple(f"p{i}" for i in range(self.procs))


def _shapes(space: HistorySpace) -> Iterator[tuple[tuple, list[int], list[list[int]]]]:
    """Yield ``(shape, read_slots, read_options)`` for every shape, in order.

    A shape assigns each slot a ``(kind, location)`` pair; ``read_options``
    lists, per read slot, 0 plus the values written to its location.
    """
    shape_choices = [(kind, loc) for kind in ("w", "r") for loc in space.locations]
    for shape in itertools.product(shape_choices, repeat=space.slots):
        written: dict[str, list[int]] = {loc: [] for loc in space.locations}
        for k, (kind, loc) in enumerate(shape):
            if kind == "w":
                written[loc].append(k + 1)
        read_slots = [k for k, (kind, _) in enumerate(shape) if kind == "r"]
        yield shape, read_slots, [[0] + written[shape[k][1]] for k in read_slots]


def _builder(
    space: HistorySpace, shape: tuple, read_slots: list[int]
) -> Callable[[tuple[int, ...]], SystemHistory]:
    """Return the function from read values to ``shape``'s history.

    The function takes one value per read slot, in slot order.  Operations
    are immutable, so each is built once per shape and shared by every
    history of the shape that holds it.
    """
    names = space.proc_names()
    n = space.ops_per_proc
    ops: dict[tuple[int, int], Operation] = {}

    def op(k: int, value: int) -> Operation:
        made = ops.get((k, value))
        if made is None:
            kind, loc = shape[k]
            make = write if kind == "w" else read
            made = ops[k, value] = make(names[k // n], k % n, loc, value)
        return made

    def build(combo: tuple[int, ...]) -> SystemHistory:
        values = [k + 1 for k in range(space.slots)]  # slot k writes k + 1
        for k, value in zip(read_slots, combo):
            values[k] = value
        rows = []
        for pi, proc in enumerate(names):
            slots = range(pi * n, (pi + 1) * n)
            rows.append(ProcessorHistory(proc, [op(k, values[k]) for k in slots]))
        return SystemHistory(rows)

    return build


def enumerate_histories(space: HistorySpace) -> Iterator[SystemHistory]:
    """Yield every history of the space (writes distinct-valued by slot).

    Slot ``k`` (row-major: processor index × ops_per_proc + op index)
    writes value ``k + 1`` when it is a write.  Reads enumerate 0 plus all
    values written to their location by any slot of the current shape.
    """
    for shape, read_slots, read_options in _shapes(space):
        build = _builder(space, shape, read_slots)
        for combo in itertools.product(*read_options):
            yield build(combo)


def _shape_key(shape: tuple, order: tuple[int, ...]) -> tuple:
    """``shape``'s slots in ``order``, locations renamed by first appearance."""
    loc_ids: dict[str, int] = {}
    return tuple(
        (shape[k][0], loc_ids.setdefault(shape[k][1], len(loc_ids))) for k in order
    )


def canonical_histories(space: HistorySpace) -> Iterator[SystemHistory]:
    """Yield the first history of each :func:`canonical_key` class, in order.

    Equal, history for history, to keeping from :func:`enumerate_histories`
    each history whose ``canonical_key`` was not seen before, but builds
    only the histories it keeps.  Each candidate is keyed on plain tuples:
    for a processor order, the slots' kinds with locations renamed by first
    appearance, then each read's source as the position of the write it
    reads in that order (-1 for the initial value).  Two histories share a
    ``canonical_key`` exactly when some processor orders give them equal
    tuples, because writes carry distinct values.

    Enumeration is shape-major, so the first shape of a renaming class
    holds a representative of every history of the class's later shapes,
    which are skipped whole.  Within a shape only the processor orders
    that minimize the shape's tuple can tell two read assignments apart;
    they are found once per shape.
    """
    n = space.ops_per_proc
    orders = [
        tuple(p * n + i for p in perm for i in range(n))
        for perm in itertools.permutations(range(space.procs))
    ]
    seen_shapes: set[tuple] = set()
    for shape, read_slots, read_options in _shapes(space):
        shape_keys = {order: _shape_key(shape, order) for order in orders}
        best = min(shape_keys.values())
        if best in seen_shapes:
            continue
        seen_shapes.add(best)
        minimal = [order for order, key in shape_keys.items() if key == best]
        # Per minimal order: where each value's writer sits (value 0, the
        # initial value, at -1), and the read slots' indices in that order.
        renamings = []
        for order in minimal:
            position = [-1] * (space.slots + 1)
            for i, k in enumerate(order):
                position[k + 1] = i
            reads = [read_slots.index(k) for k in order if shape[k][0] == "r"]
            renamings.append((position, reads))
        build = _builder(space, shape, read_slots)
        seen: set[tuple] = set()
        for combo in itertools.product(*read_options):
            key = min(
                tuple([position[combo[j]] for j in reads])
                for position, reads in renamings
            )
            if key not in seen:
                seen.add(key)
                yield build(combo)


def space_size(space: HistorySpace) -> int:
    """The exact number of histories :func:`enumerate_histories` yields.

    Computed combinatorially (not by enumeration): for each shape, the
    product over read slots of ``1 + writes to that slot's location``.
    """
    return sum(
        math.prod(len(options) for options in read_options)
        for _, _, read_options in _shapes(space)
    )


def canonical_key(history: SystemHistory) -> tuple:
    """A key equal for histories that differ only by proc/location renaming.

    Minimizes, over all processor permutations, the tuple of per-processor
    operation descriptions with locations renamed in order of first
    appearance.  Write values are renamed by first appearance as well (the
    slot-based values of :func:`enumerate_histories` depend on processor
    position); read values follow the write-value renaming, with 0 fixed.
    """
    procs = list(history.procs)
    best: tuple | None = None
    for perm in itertools.permutations(procs):
        loc_names: dict[str, int] = {}
        val_names: dict[int, int] = {0: 0}
        rows = []
        for proc in perm:
            row = []
            for op in history.ops_of(proc):
                loc_id = loc_names.setdefault(op.location, len(loc_names))
                val = op.value
                val_id = val_names.setdefault(val, len(val_names))
                rv = op.read_value
                rv_id = None if rv is None else val_names.setdefault(rv, len(val_names))
                row.append((op.kind.value, loc_id, val_id, rv_id, op.labeled))
            rows.append(tuple(row))
        key = tuple(rows)
        if best is None or key < best:
            best = key
    assert best is not None
    return best
