"""DASH-style processor-consistent machine (Section 3.3).

A software stand-in for the DASH cache hierarchy that motivated PC:

* every processor keeps a full replica and reads locally (so a read may
  bypass the processor's own earlier write to a different location — the
  writes are still propagating);
* a write is serialized *per location* by a global sequence counter (the
  directory's ownership order in DASH), applied locally at once, and
  shipped to every other replica on a FIFO channel;
* a replica applies incoming updates in channel (program) order, but an
  update older in its location's serial order than what the replica
  already holds is suppressed — last-writer-wins by location sequence,
  which is exactly coherence.

FIFO channels give the "previous accesses performed first" half of the
paper's two PC conditions; the per-location serial numbers give coherence.
The property suite checks every reachable trace of small programs against
``check(h, "PC")`` (:func:`repro.checking.check`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.core.errors import MachineError
from repro.core.operation import INITIAL_VALUE
from repro.machines.base import EventKey, MemoryMachine

__all__ = ["PCMachine"]


class PCMachine(MemoryMachine):
    """Replicated memory with per-location write serialization + FIFO updates."""

    name = "PC-machine"

    def __init__(self, procs: Sequence[Any]) -> None:
        super().__init__(procs)
        # Replica state: location -> (value, location-serial of that value).
        self._replicas: dict[Any, dict[str, tuple[int, int]]] = {
            p: {} for p in self.procs
        }
        self._loc_serial: dict[str, int] = {}
        self._latest: dict[str, int] = {}  # value of the max-serial write
        self._channels: dict[tuple[Any, Any], deque[tuple[str, int, int]]] = {
            (src, dst): deque()
            for src in self.procs
            for dst in self.procs
            if src != dst
        }

    # -- value semantics -----------------------------------------------------------

    def _do_read(self, proc: Any, location: str, labeled: bool) -> int:
        entry = self._replicas[proc].get(location)
        return entry[0] if entry is not None else INITIAL_VALUE

    def _do_write(self, proc: Any, location: str, value: int, labeled: bool) -> None:
        serial = self._loc_serial.get(location, 0) + 1
        self._loc_serial[location] = serial
        self._latest[location] = value
        self._apply(proc, location, value, serial)
        for dst in self.procs:
            if dst != proc:
                self._channels[(proc, dst)].append((location, value, serial))

    def _do_rmw(self, proc: Any, location: str, value: int, labeled: bool) -> int:
        # Atomic at the location's serialization point (the directory in
        # DASH): observe the newest serialized value, store right after it.
        old = self._latest.get(location, INITIAL_VALUE)
        self._do_write(proc, location, value, labeled)
        return old

    def _apply(self, proc: Any, location: str, value: int, serial: int) -> None:
        current = self._replicas[proc].get(location)
        if current is None or serial > current[1]:
            self._replicas[proc][location] = (value, serial)
        # Older serial: suppressed — the replica already holds a
        # coherence-newer value for this location.

    # -- internal events ----------------------------------------------------------

    def internal_events(self) -> list[EventKey]:
        return [
            ("deliver", src, dst)
            for (src, dst), chan in self._channels.items()
            if chan
        ]

    def fire(self, key: EventKey) -> None:
        match key:
            case ("deliver", src, dst) if self._channels.get((src, dst)):
                location, value, serial = self._channels[(src, dst)].popleft()
                self._apply(dst, location, value, serial)
            case _:
                raise MachineError(f"{self.name}: event {key!r} is not enabled")

    # -- introspection --------------------------------------------------------------

    def serial_of(self, location: str) -> int:
        """How many writes the location's serial order contains so far."""
        return self._loc_serial.get(location, 0)
