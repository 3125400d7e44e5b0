"""The kernel's mask gate, and the seam that instruments it.

The kernel's data plane is a set of *predecessor masks*: ``masks[j]`` bit
``i`` set means operation ``i`` must precede operation ``j`` (see
:mod:`repro.kernel.constraints`).  Every row of an ``n``-operation plane
is an ``n``-bit integer.  Three operations act on a plane: transitive
closure (:func:`close_masks`), acyclicity (:func:`masks_acyclic`, a Kahn
peeling test, or :func:`masks_acyclic_within` on a subset of the rows)
and the *gate* (:func:`gate_masks`), which rejects a cyclic candidate
plane and closes a surviving one in the same Kahn pass: each row is
closed when it is peeled, as the union of its predecessors' closed rows.

Every full gate of a mutual-consistency candidate goes through
``active_backend().gate_batch([masks], n)`` from one place,
``CompiledConstraints.assemble_base``.  :class:`MaskBackend` is the
interface behind that call and :class:`PythonBackend` its one
implementation.  :func:`use_backend` installs another instance for a
block: a subclass that delegates to the default and counts or times each
gate, as the benchmark's per-layer split does.  A subclass that computes
the same function leaves verdicts, witnesses and ``explored`` counts
unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "MaskBackend",
    "PythonBackend",
    "active_backend",
    "close_masks",
    "gate_masks",
    "masks_acyclic",
    "masks_acyclic_within",
    "use_backend",
]


def close_masks(masks: Sequence[int]) -> list[int]:
    """Transitive closure of predecessor masks (bitset Floyd–Warshall).

    Unlike :func:`gate_masks` it also closes a cyclic plane.
    """
    out = list(masks)
    n = len(out)
    for k in range(n):
        pk = out[k]
        if not pk:
            continue
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= pk
    return out


def masks_acyclic(masks: Sequence[int], n: int) -> bool:
    """True when the constraint graph the masks encode has no cycle."""
    return masks_acyclic_within(masks, (1 << n) - 1)


def masks_acyclic_within(masks: Sequence[int], bits: int) -> bool:
    """True when the rows in ``bits`` induce an acyclic graph.

    Edges from operations outside ``bits`` are ignored, so this equals
    :func:`masks_acyclic` of the masks re-indexed onto ``bits``
    (:func:`repro.kernel.constraints.restrict_masks`) without building
    them.
    """
    remaining = bits
    changed = True
    while remaining and changed:
        changed = False
        m = remaining
        while m:
            bit = m & -m
            m ^= bit
            if not masks[bit.bit_length() - 1] & remaining:
                remaining ^= bit
                changed = True
    return not remaining


def gate_masks(masks: Sequence[int], n: int) -> list[int] | None:
    """The closed masks of an acyclic plane, or ``None`` for a cyclic one.

    One Kahn pass: a row is peeled once all its predecessors are, and its
    closed row is the OR of its own row with their closed rows.  A
    predecessor is never its own ancestor in an acyclic plane, so
    clearing its bit after OR-ing its closed row ends the loop.  The
    result equals :func:`close_masks` whenever :func:`masks_acyclic`
    holds.
    """
    closed = list(masks)
    remaining = (1 << n) - 1
    while remaining:
        peeled = False
        m = remaining
        while m:
            bit = m & -m
            m ^= bit
            j = bit.bit_length() - 1
            row = masks[j]
            if row & remaining:
                continue
            # OR in the predecessors' closed rows, highest index first;
            # a predecessor already covered by one of them adds nothing.
            acc = row
            while row:
                i = row.bit_length() - 1
                c = closed[i]
                acc |= c
                row &= ~c
                row ^= 1 << i
            closed[j] = acc
            remaining ^= bit
            peeled = True
        if not peeled:
            return None
    return closed


class MaskBackend(ABC):
    """The mask-plane operations the search layer gates candidates with.

    Subclasses provide closure and acyclicity of one plane; :meth:`gate`
    and :meth:`gate_batch` are defined from them.
    """

    @abstractmethod
    def close(self, masks: Sequence[int], n: int) -> list[int]:
        """Transitive closure of one ``n``-row predecessor plane."""

    @abstractmethod
    def acyclic(self, masks: Sequence[int], n: int) -> bool:
        """Whether one ``n``-row predecessor plane is cycle-free."""

    def gate(self, masks: Sequence[int], n: int) -> list[int] | None:
        """Acyclicity gate + closure: ``None`` for a cyclic plane.

        A cyclic candidate is rejected without closing; a survivor is
        returned closed.
        """
        if not self.acyclic(masks, n):
            return None
        return self.close(masks, n)

    def gate_batch(
        self, batch: Sequence[Sequence[int]], n: int
    ) -> list[list[int] | None]:
        """:meth:`gate` each plane of ``batch``, in order.

        The search layer's entry point; it passes one plane per call.
        """
        return [self.gate(masks, n) for masks in batch]


class PythonBackend(MaskBackend):
    """The int-bitmask implementation: Python integers are the bit rows.

    Its gate is the one-pass :func:`gate_masks`, not the acyclicity test
    followed by a closure.
    """

    def close(self, masks: Sequence[int], n: int) -> list[int]:
        return close_masks(masks)

    def acyclic(self, masks: Sequence[int], n: int) -> bool:
        return masks_acyclic(masks, n)

    def gate(self, masks: Sequence[int], n: int) -> list[int] | None:
        return gate_masks(masks, n)


_ACTIVE: MaskBackend = PythonBackend()


def active_backend() -> MaskBackend:
    """The backend in effect: :class:`PythonBackend` unless one is installed."""
    return _ACTIVE


@contextmanager
def use_backend(backend: MaskBackend) -> Iterator[MaskBackend]:
    """Run a block under ``backend``, restoring the previous one after."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = backend
    try:
        yield backend
    finally:
        _ACTIVE = previous
