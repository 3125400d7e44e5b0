"""The shared-memory plane arena: zero-copy history transport for warm pools.

A cold :class:`~repro.engine.pool.CheckEngine` worker receives every job's
history as a pickled wire dict and recompiles its
:class:`~repro.kernel.constraints.HistoryPlane` from scratch.  A *warm*
engine instead writes each history once into a
:class:`multiprocessing.shared_memory` segment — the wire dict plus the
plane's compiled unique-attribution ordering masks, packed as raw
little-endian ``uint64`` words, one word per mask row — and ships jobs
as segment names.  Workers attach (a zero-copy mapping, no
pickle byte-stream per job), rebuild the history from the header, seed
the plane's mask cache from the packed words, and install the result into
the kernel's plane LRU, so repeated sweeps over the same corpus skip both
serialization and recompilation.

Ownership is strictly parent-side: the arena that :meth:`PlaneArena.put`
a segment is the only thing that ever unlinks it.  Workers attach and
close within :meth:`PlaneArena.load`; a worker killed mid-job therefore
cannot leak a segment — its mapping dies with the process and the parent
unlinks the name on eviction, :meth:`PlaneArena.close`, or garbage
collection (a ``weakref.finalize`` guard).  Crash/cleanup behavior is
pinned by ``tests/engine/test_arena.py``.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from repro.core.errors import EngineError
from repro.core.history import SystemHistory
from repro.core.serialization import history_from_dict, history_to_dict
from repro.kernel.constraints import HistoryPlane, history_plane
from repro.spec.parameters import CAUSAL, PO, PO_LOC, PO_SYNC, PPO, SEMI_CAUSAL

__all__ = ["PlaneArena", "encode_plane", "decode_plane", "plane_key"]

#: Ordering rules whose compiled mask rows travel through the arena,
#: resolved by name on the worker side (the rule objects are module
#: singletons, shared by every spec that uses them).
_RULES = {rule.name: rule for rule in (PO, PO_LOC, PO_SYNC, PPO, CAUSAL, SEMI_CAUSAL)}


def plane_key(history: SystemHistory) -> str:
    """A content key for ``history``: a hash of its canonical wire form.

    The warm engine keys arena segments with this rather than with job
    keys — job keys are *not* injective across sweep specs (``random``
    keys omit the history shape, ``space`` keys omit the location set),
    so two sweeps on one long-lived daemon could collide a key onto two
    different histories and make workers decode the stale one.  Hashing
    the wire dict makes collisions impossible in practice and dedupes
    value-equal histories across sweeps for free.
    """
    wire = json.dumps(history_to_dict(history), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(wire.encode()).hexdigest()


def encode_plane(history: SystemHistory, plane: HistoryPlane | None = None) -> bytes:
    """Pack ``history`` and its compiled plane masks into arena bytes.

    Layout: an 8-byte little-endian header length, a JSON header (the
    history wire dict plus a directory of mask sections), then the mask
    rows as raw little-endian ``uint64`` words, ``n`` words per section
    in directory order.  Only unique-attribution mask rows are packed
    (they are pure functions of the history); per-spec own-view
    restrictions are cheap to rebuild and stay out.
    """
    if plane is None:
        plane = history_plane(history)
    sections: list[dict[str, object]] = []
    rows: list[int] = []
    for key, value in plane.masks.items():
        if isinstance(key, tuple):
            continue  # own-view restrictions: derived on demand
        if key == "prop":
            src_idx, prop = value
            sections.append(
                {"kind": "prop", "src": [[ir, isrc] for ir, isrc in src_idx.items()]}
            )
            rows.extend(prop)
        elif key == "bracketing":
            sections.append({"kind": "bracketing"})
            rows.extend(value)
        else:
            name = getattr(key, "name", None)
            if name is None or _RULES.get(name) is not key:
                continue
            sections.append({"kind": "rule", "name": name})
            rows.extend(value)
    header = json.dumps(
        {
            "history": history_to_dict(history),
            "n": plane.n,
            "words": len(rows),
            "sections": sections,
        },
        separators=(",", ":"),
    ).encode()
    packed = np.asarray(rows, dtype="<u8").tobytes()
    return len(header).to_bytes(8, "little") + header + packed


def decode_plane(buf: memoryview | bytes) -> tuple[SystemHistory, HistoryPlane]:
    """Rebuild a history and a mask-seeded plane from arena bytes.

    The inverse of :func:`encode_plane`; the mask words are read through
    a zero-copy :func:`numpy.frombuffer` view of the segment and only the
    rows themselves are materialized as Python ints.  The seeded plane is
    value-identical to ``HistoryPlane(history)`` with its caches warm.
    """
    head_len = int.from_bytes(bytes(buf[:8]), "little")
    header = json.loads(bytes(buf[8 : 8 + head_len]))
    history = history_from_dict(header["history"])
    plane = HistoryPlane(history)
    n = int(header["n"])
    if n != plane.n:
        raise EngineError(
            f"arena payload universe mismatch: header says {n}, history has {plane.n}"
        )
    # The header records the exact word count: shared-memory segments may
    # be rounded up to a page (macOS always does), and frombuffer over the
    # whole remainder would demand a multiple-of-8 byte count.  An explicit
    # count ignores any trailing padding.
    total_words = int(header.get("words", n * len(header["sections"])))
    words = np.frombuffer(buf, dtype="<u8", offset=8 + head_len, count=total_words)
    for i, section in enumerate(header["sections"]):
        row: list[int] = words[i * n : (i + 1) * n].tolist()
        kind = section["kind"]
        if kind == "prop":
            src_idx = {int(ir): int(isrc) for ir, isrc in section["src"]}
            plane.masks["prop"] = (src_idx, row)
        elif kind == "bracketing":
            plane.masks["bracketing"] = row
        else:
            plane.masks[_RULES[section["name"]]] = row
    return history, plane


def _release_segments(segments: "OrderedDict[str, shared_memory.SharedMemory]") -> None:
    """Close and unlink every owned segment (idempotent)."""
    while segments:
        _, shm = segments.popitem(last=False)
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class PlaneArena:
    """A parent-owned, bounded, keyed LRU of shared-memory plane segments.

    ``put`` is idempotent per key (a repeat run of the same sweep writes
    nothing), eviction unlinks the oldest segment, and :meth:`close`
    releases everything — also triggered from a finalizer so an engine
    that is simply dropped cannot leak ``/dev/shm`` entries.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise EngineError(f"arena capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._segments: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, key: str) -> bool:
        return key in self._segments

    def put(
        self, key: str, history: SystemHistory, plane: HistoryPlane | None = None
    ) -> str:
        """Ensure ``key``'s payload is resident; returns its segment name.

        A repeat ``put`` trusts the existing payload, so a key must always
        denote the same history for the lifetime of the arena.  The warm
        engine guarantees this by keying with :func:`plane_key` (a content
        hash of the history), never with job keys, which collide across
        sweep specs.
        """
        shm = self._segments.get(key)
        if shm is not None:
            self._segments.move_to_end(key)
            return shm.name
        data = encode_plane(history, plane)
        shm = shared_memory.SharedMemory(create=True, size=len(data))
        shm.buf[: len(data)] = data
        self._segments[key] = shm
        while len(self._segments) > self.capacity:
            _, old = self._segments.popitem(last=False)
            old.close()
            old.unlink()
        return shm.name

    def reserve(self, count: int) -> None:
        """Grow capacity to at least ``count`` segments (never shrinks).

        The warm engine calls this with the sweep's job count before
        building payloads: every payload carries a segment *name*, so an
        eviction between ``put`` and the worker's attach would unlink a
        segment that is still queued and fail the attach with
        ``FileNotFoundError``.  Sizing the arena to the sweep up front
        makes mid-build eviction of this sweep's segments impossible —
        eviction can then only retire segments older than the sweep.
        """
        if count > self.capacity:
            self.capacity = count

    def release(self, key: str) -> None:
        """Unlink one key's segment (a no-op for unknown keys)."""
        shm = self._segments.pop(key, None)
        if shm is not None:
            shm.close()
            shm.unlink()

    def close(self) -> None:
        """Unlink every owned segment; the arena is reusable afterwards."""
        _release_segments(self._segments)

    def __enter__(self) -> "PlaneArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @staticmethod
    def load(name: str) -> tuple[SystemHistory, HistoryPlane]:
        """Attach, decode, and detach one segment (the worker side).

        The attachment is dropped before returning — decoded rows are
        plain Python ints, so nothing references the mapping.  Where the
        interpreter supports it (3.13+) the attach opts out of resource
        tracking entirely: the parent owns the segment.  On older
        interpreters the attach-side registration is tolerated — the
        engine's workers are forked, so they share the parent's tracker
        process and the duplicate registration is a set-add no-op that
        the parent's own unlink retires.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - Python < 3.13
            shm = shared_memory.SharedMemory(name=name)
        try:
            return decode_plane(shm.buf)
        finally:
            shm.close()
