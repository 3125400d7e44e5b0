"""A small relation algebra over operations.

Every ordering parameter in the paper — program order, partial program
order, writes-before, causality, semi-causality, coherence — is a binary
relation over the operations of a history.  This module provides the one
:class:`Relation` type they all share, with the combinators the definitions
need: union, composition, transitive closure, restriction, acyclicity and
(all) topological extensions.

Transitive closure runs on integer bitmasks, one successor row per item,
with the Warshall loop the kernel closes its constraint planes with
(:func:`repro.core.masks.close_masks`).
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterable, Iterator, TypeVar

from repro.core.masks import close_masks

__all__ = ["Relation"]

T = TypeVar("T", bound=Hashable)


class Relation(Generic[T]):
    """A binary relation over a fixed, ordered universe of items.

    The universe is fixed at construction; pairs may be added afterwards
    while building, but the combinators (:meth:`union`,
    :meth:`transitive_closure`, …) are functional and return new relations.

    Items must be hashable.  Iteration orders are deterministic (universe
    order is preserved from construction), which keeps witnesses and
    counterexamples reproducible.
    """

    __slots__ = ("_items", "_index", "_succ")

    def __init__(self, items: Iterable[T], pairs: Iterable[tuple[T, T]] = ()) -> None:
        self._items: tuple[T, ...] = tuple(items)
        self._index: dict[T, int] = {x: i for i, x in enumerate(self._items)}
        if len(self._index) != len(self._items):
            raise ValueError("relation universe contains duplicate items")
        self._succ: list[set[int]] = [set() for _ in self._items]
        for a, b in pairs:
            self.add(a, b)

    # -- construction ----------------------------------------------------------

    def add(self, a: T, b: T) -> None:
        """Add the pair ``(a, b)``; both items must be in the universe."""
        self._succ[self._index[a]].add(self._index[b])

    @classmethod
    def from_chains(cls, chains: Iterable[Iterable[T]]) -> "Relation[T]":
        """Relation whose pairs are the adjacent pairs of each chain.

        The transitive closure of the result totally orders each chain;
        useful for building program order from processor histories.
        """
        items: list[T] = []
        pairs: list[tuple[T, T]] = []
        for chain in chains:
            chain = list(chain)
            items.extend(chain)
            pairs.extend(zip(chain, chain[1:]))
        rel = cls(items)
        for a, b in pairs:
            rel.add(a, b)
        return rel

    # -- basic queries -----------------------------------------------------------

    @property
    def items(self) -> tuple[T, ...]:
        """The universe, in construction order."""
        return self._items

    def __len__(self) -> int:
        return sum(len(s) for s in self._succ)

    def __contains__(self, pair: tuple[T, T]) -> bool:
        a, b = pair
        ia, ib = self._index.get(a), self._index.get(b)
        return ia is not None and ib is not None and ib in self._succ[ia]

    def orders(self, a: T, b: T) -> bool:
        """True when ``(a, b)`` is in the relation."""
        return (a, b) in self

    def pairs(self) -> Iterator[tuple[T, T]]:
        """All pairs, in deterministic order."""
        for ia, succs in enumerate(self._succ):
            a = self._items[ia]
            for ib in sorted(succs):
                yield (a, self._items[ib])

    def successors(self, a: T) -> tuple[T, ...]:
        """Items ``b`` with ``(a, b)`` in the relation."""
        return tuple(self._items[ib] for ib in sorted(self._succ[self._index[a]]))

    def predecessors(self, b: T) -> tuple[T, ...]:
        """Items ``a`` with ``(a, b)`` in the relation."""
        ib = self._index[b]
        return tuple(
            self._items[ia] for ia, succs in enumerate(self._succ) if ib in succs
        )

    def in_degrees(self) -> dict[T, int]:
        """In-degree of every universe item (items with none map to 0)."""
        deg = {x: 0 for x in self._items}
        for _, b in self.pairs():
            deg[b] += 1
        return deg

    def pred_masks(self, items: Iterable[T]) -> list[int]:
        """Bit-encoded predecessor sets of the relation restricted to ``items``.

        ``masks[j]`` has bit ``i`` set exactly when ``(items[i], items[j])``
        is a pair of the relation; pairs mentioning items outside ``items``
        are ignored.  This is the representation the constraint kernel's
        linear-extension search runs on (one arbitrary-precision integer per
        item), shared by every checker instead of being rebuilt ad hoc.
        """
        ordered = list(items)
        index = {x: i for i, x in enumerate(ordered)}
        # Translate the relation's internal indices once, then walk the
        # successor sets directly — O(universe) hash lookups instead of one
        # per pair, which matters for dense (closed) relations.
        pos = [index.get(x) for x in self._items]
        masks = [0] * len(ordered)
        for ia, succs in enumerate(self._succ):
            pa = pos[ia]
            if pa is None:
                continue
            abit = 1 << pa
            for ib in succs:
                pb = pos[ib]
                if pb is not None and pb != pa:
                    masks[pb] |= abit
        return masks

    # -- combinators ---------------------------------------------------------------

    def _derived(self, succ: list[set[int]]) -> "Relation[T]":
        """A relation over this universe with successor sets ``succ``.

        The universe and its index are immutable, so the two share them.
        """
        out: Relation[T] = Relation.__new__(Relation)
        out._items = self._items
        out._index = self._index
        out._succ = succ
        return out

    def _copy(self) -> "Relation[T]":
        return self._derived([set(s) for s in self._succ])

    def union(self, *others: "Relation[T]") -> "Relation[T]":
        """Union with relations over the same (or a sub-) universe."""
        out = self._copy()
        for other in others:
            for a, b in other.pairs():
                out.add(a, b)
        return out

    def restrict(self, keep: Callable[[T], bool] | Iterable[T]) -> "Relation[T]":
        """Restrict universe and pairs to the items selected by ``keep``."""
        if callable(keep):
            selected = [x for x in self._items if keep(x)]
        else:
            keep_set = set(keep)
            selected = [x for x in self._items if x in keep_set]
        sel_set = set(selected)
        out: Relation[T] = Relation(selected)
        for a, b in self.pairs():
            if a in sel_set and b in sel_set:
                out.add(a, b)
        return out

    def transitive_closure(self) -> "Relation[T]":
        """The transitive closure ``R+`` of this relation.

        An item on a cycle relates to itself.
        """
        rows: list[int] = []
        for succs in self._succ:
            row = 0
            for ib in succs:
                row |= 1 << ib
            rows.append(row)
        return self._derived([_bit_indices(row) for row in close_masks(rows)])

    def compose(self, other: "Relation[T]") -> "Relation[T]":
        """Relational composition ``self ; other`` over the same universe."""
        out: Relation[T] = Relation(self._items)
        oidx = other._index
        for ia, succs in enumerate(self._succ):
            targets: set[int] = set()
            for ib in succs:
                mid = self._items[ib]
                j = oidx.get(mid)
                if j is not None:
                    for ic in other._succ[j]:
                        targets.add(self._index[other._items[ic]])
            out._succ[ia] |= targets
        return out

    # -- order-theoretic queries -----------------------------------------------------

    def find_cycle(self) -> list[T] | None:
        """Return one cycle as an item list, or ``None`` when acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * len(self._items)
        stack: list[int] = []

        def dfs(ia: int) -> list[int] | None:
            color[ia] = GRAY
            stack.append(ia)
            for ib in self._succ[ia]:
                if color[ib] == GRAY:
                    return stack[stack.index(ib):] + [ib]
                if color[ib] == WHITE:
                    found = dfs(ib)
                    if found is not None:
                        return found
            stack.pop()
            color[ia] = BLACK
            return None

        for ia in range(len(self._items)):
            if color[ia] == WHITE:
                found = dfs(ia)
                if found is not None:
                    return [self._items[i] for i in found]
        return None

    def is_acyclic(self) -> bool:
        """True when the relation, viewed as a digraph, has no cycle."""
        return self.find_cycle() is None

    def topological_sort(self) -> list[T]:
        """One linear extension (Kahn's algorithm, deterministic tie-break).

        Raises
        ------
        ValueError
            If the relation is cyclic.
        """
        indeg = [0] * len(self._items)
        for succs in self._succ:
            for ib in succs:
                indeg[ib] += 1
        ready = [ia for ia, d in enumerate(indeg) if d == 0]
        out: list[T] = []
        while ready:
            ia = ready.pop(0)
            out.append(self._items[ia])
            for ib in sorted(self._succ[ia]):
                indeg[ib] -= 1
                if indeg[ib] == 0:
                    ready.append(ib)
        if len(out) != len(self._items):
            raise ValueError("relation is cyclic; no topological sort exists")
        return out

    def all_topological_sorts(self) -> Iterator[list[T]]:
        """Generate every linear extension (use only on small universes)."""
        n = len(self._items)
        indeg = [0] * n
        for succs in self._succ:
            for ib in succs:
                indeg[ib] += 1
        chosen: list[int] = []
        used = [False] * n

        def backtrack() -> Iterator[list[T]]:
            if len(chosen) == n:
                yield [self._items[i] for i in chosen]
                return
            for ia in range(n):
                if not used[ia] and indeg[ia] == 0:
                    used[ia] = True
                    chosen.append(ia)
                    for ib in self._succ[ia]:
                        indeg[ib] -= 1
                    yield from backtrack()
                    for ib in self._succ[ia]:
                        indeg[ib] += 1
                    chosen.pop()
                    used[ia] = False

        yield from backtrack()

    def is_linear_extension(self, sequence: Iterable[T]) -> bool:
        """True when ``sequence`` orders the universe consistently with the relation."""
        pos = {x: i for i, x in enumerate(sequence)}
        if len(pos) != len(self._items) or set(pos) != set(self._items):
            return False
        return all(pos[a] < pos[b] for a, b in self.pairs())

    def __repr__(self) -> str:
        body = ", ".join(f"{a}<{b}" for a, b in self.pairs())
        return f"Relation({len(self._items)} items: {body})"


def _bit_indices(mask: int) -> set[int]:
    """The positions of the set bits of ``mask``."""
    out: set[int] = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out
