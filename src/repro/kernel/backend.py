"""The kernel's mask gate, and the seam that instruments it.

The kernel's data plane is a set of *predecessor masks*: ``masks[j]`` bit
``i`` set means operation ``i`` must precede operation ``j`` (see
:mod:`repro.kernel.constraints`).  Every row of an ``n``-operation plane
is an ``n``-bit integer.  Three operations act on a plane: transitive
closure (:func:`close_masks`, a bitset Floyd–Warshall), acyclicity
(:func:`masks_acyclic`, a Kahn peeling test) and the fused *gate*, which
rejects a cyclic candidate plane and closes a surviving one.

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
    "masks_acyclic",
    "use_backend",
]


def close_masks(masks: Sequence[int]) -> list[int]:
    """Transitive closure of predecessor masks (bitset Floyd–Warshall)."""
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
    remaining = (1 << n) - 1
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
    """The int-bitmask implementation: Python integers are the bit rows."""

    def close(self, masks: Sequence[int], n: int) -> list[int]:
        return close_masks(masks)

    def acyclic(self, masks: Sequence[int], n: int) -> bool:
        return masks_acyclic(masks, n)


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
