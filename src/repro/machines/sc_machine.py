"""Atomic shared-memory machine: the operational model behind SC.

One memory, one port: every operation executes instantly and atomically in
issue order.  Every trace of this machine is sequentially consistent (the
issue order itself is the common legal view), which the property tests
verify against ``check(h, "SC")`` (:func:`repro.checking.check`).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.operation import INITIAL_VALUE
from repro.machines.base import MemoryMachine

__all__ = ["SCMachine"]


class SCMachine(MemoryMachine):
    """Single-copy atomic memory; the strongest (and simplest) machine."""

    name = "SC-machine"

    def __init__(self, procs: Sequence[Any]) -> None:
        super().__init__(procs)
        self._memory: dict[str, int] = {}

    def _do_read(self, proc: Any, location: str, labeled: bool) -> int:
        return self._memory.get(location, INITIAL_VALUE)

    def _do_write(self, proc: Any, location: str, value: int, labeled: bool) -> None:
        self._memory[location] = value

    def _do_rmw(self, proc: Any, location: str, value: int, labeled: bool) -> int:
        old = self._memory.get(location, INITIAL_VALUE)
        self._memory[location] = value
        return old
