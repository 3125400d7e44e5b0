"""The shared-memory plane arena: round-trips, ownership, crash cleanup.

The arena's contract has three parts:

* fidelity — a decoded segment yields a value-equal history and a plane
  whose seeded mask rows equal the originals bit for bit, so a warm
  worker computes exactly what a cold one would;
* ownership — the parent arena is the only unlinker: eviction, release,
  close, and garbage collection all retire segments, and a worker dying
  mid-job (even ``SIGKILL``) leaks nothing;
* the warm engine — a persistent :class:`~repro.engine.CheckEngine`
  produces byte-identical sweep results to a cold one, across runs,
  while shipping jobs through the arena.
"""

import json
import multiprocessing
import os
import signal
from multiprocessing import shared_memory

import pytest

from repro.checking.models import check
from repro.core.errors import EngineError
from repro.engine.arena import PlaneArena, decode_plane, encode_plane, plane_key
from repro.engine.jobs import SweepSpec
from repro.engine.pool import CheckEngine
from repro.kernel.constraints import HistoryPlane, history_plane
from repro.litmus import CATALOG, parse_history


def _segment_exists(name: str) -> bool:
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def _warm_history():
    """A catalog history with a mask-populated plane (checks ran on it)."""
    history = CATALOG["fig1-sb"].history
    plane = history_plane(history)
    for model in ("SC", "Causal", "PRAM", "RC_sc"):
        check(history, model)
    return history, plane


# -- encode / decode -----------------------------------------------------------


def test_round_trip_history_and_masks():
    history, plane = _warm_history()
    assert plane.masks, "fixture should have warmed the mask cache"
    decoded_history, decoded_plane = decode_plane(encode_plane(history, plane))
    assert decoded_history == history
    for key, value in plane.masks.items():
        if isinstance(key, tuple):
            continue  # own-view restrictions are rebuilt on demand
        assert decoded_plane.masks[key] == value
    # Rule keys decode to the module singletons, not value copies.
    for key in decoded_plane.masks:
        if not isinstance(key, str):
            assert key in plane.masks


def test_round_trip_cold_plane():
    history = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
    decoded_history, decoded_plane = decode_plane(encode_plane(history))
    assert decoded_history == history
    assert decoded_plane.n == len(history.operations)


def test_decode_tolerates_trailing_padding():
    """Platforms may round segments up to a page; padding must be ignored."""
    history, plane = _warm_history()
    data = encode_plane(history, plane)
    for pad in (1, 7, 13, 4096 - (len(data) % 4096)):
        decoded_history, decoded_plane = decode_plane(data + b"\x00" * pad)
        assert decoded_history == history
        for key, value in plane.masks.items():
            if isinstance(key, tuple):
                continue
            assert decoded_plane.masks[key] == value


def test_plane_key_is_content_keyed():
    a = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
    b = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
    c = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)1")
    assert a is not b
    assert plane_key(a) == plane_key(b)
    assert plane_key(a) != plane_key(c)


def test_decode_rejects_mismatched_universe():
    history, plane = _warm_history()
    data = bytearray(encode_plane(history, plane))
    head_len = int.from_bytes(bytes(data[:8]), "little")
    header = json.loads(bytes(data[8 : 8 + head_len]))
    header["n"] = header["n"] + 1
    new_header = json.dumps(header, separators=(",", ":")).encode()
    patched = (
        len(new_header).to_bytes(8, "little") + new_header + bytes(data[8 + head_len :])
    )
    with pytest.raises(EngineError, match="universe mismatch"):
        decode_plane(patched)


def test_decoded_plane_checks_identically():
    history, plane = _warm_history()
    _, decoded_plane = decode_plane(encode_plane(history, plane))
    assert isinstance(decoded_plane, HistoryPlane)
    # The seeded plane drives a real check to the same verdicts.
    from repro.kernel.constraints import install_plane

    fresh = CATALOG["fig1-sb"].history
    install_plane(fresh, decode_plane(encode_plane(history, plane))[1])
    for model in ("SC", "Causal", "PRAM"):
        assert check(fresh, model).allowed == check(history, model).allowed


# -- arena lifecycle -----------------------------------------------------------


def test_put_is_idempotent_per_key():
    history, plane = _warm_history()
    with PlaneArena() as arena:
        name = arena.put("k", history, plane)
        assert arena.put("k", history, plane) == name
        assert len(arena) == 1 and "k" in arena


def test_eviction_unlinks_oldest():
    histories = [t.history for t in CATALOG.values()][:3]
    with PlaneArena(capacity=2) as arena:
        first = arena.put("a", histories[0])
        arena.put("b", histories[1])
        arena.put("c", histories[2])
        assert "a" not in arena and len(arena) == 2
        assert not _segment_exists(first)


def test_release_and_close_unlink():
    history, plane = _warm_history()
    arena = PlaneArena()
    name_a = arena.put("a", history, plane)
    name_b = arena.put("b", history, plane)
    arena.release("a")
    arena.release("missing")  # no-op
    assert not _segment_exists(name_a)
    assert _segment_exists(name_b)
    arena.close()
    assert not _segment_exists(name_b)
    assert len(arena) == 0


def test_finalizer_unlinks_on_gc():
    history, plane = _warm_history()
    arena = PlaneArena()
    name = arena.put("k", history, plane)
    del arena
    import gc

    gc.collect()
    assert not _segment_exists(name)


def test_capacity_validated():
    with pytest.raises(EngineError):
        PlaneArena(capacity=0)


def test_reserve_grows_capacity_never_shrinks():
    with PlaneArena(capacity=2) as arena:
        arena.reserve(8)
        assert arena.capacity == 8
        arena.reserve(4)
        assert arena.capacity == 8


# -- crash cleanup -------------------------------------------------------------


def _attach_and_hang(name: str, ready) -> None:
    PlaneArena.load(name)
    ready.set()
    signal.pause()


def test_worker_sigkill_leaks_nothing():
    """A worker killed -9 mid-attach leaves the parent free to unlink."""
    history, plane = _warm_history()
    arena = PlaneArena()
    name = arena.put("k", history, plane)
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    proc = ctx.Process(target=_attach_and_hang, args=(name, ready))
    proc.start()
    assert ready.wait(timeout=10), "worker never attached"
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    assert proc.exitcode == -signal.SIGKILL
    # The segment is still owned and intact; decode works; close unlinks.
    assert _segment_exists(name)
    decoded_history, _ = PlaneArena.load(name)
    assert decoded_history == history
    arena.close()
    assert not _segment_exists(name)


# -- the warm engine -----------------------------------------------------------


def _stripped(results):
    return json.dumps(results, sort_keys=True)


def test_persistent_engine_matches_cold_engine():
    spec = SweepSpec(source="catalog", models=("SC", "Causal", "PRAM"))
    cold = CheckEngine(jobs=2).run(spec)
    with CheckEngine(jobs=2, persistent=True) as warm:
        first = warm.run(spec)
        arena = warm.arena
        assert arena is not None and len(arena) > 0
        segments = len(arena)
        second = warm.run(spec)
        assert len(arena) == segments, "re-runs must reuse segments"
    assert _stripped(first.results) == _stripped(cold.results)
    assert _stripped(second.results) == _stripped(cold.results)


def test_sweep_larger_than_arena_capacity():
    """Pre-building payloads must never evict a still-queued segment.

    The engine reserves the arena to the sweep's size before the put
    loop; without that, a sweep with more distinct histories than the
    arena's capacity unlinks segments whose names are still queued and
    every worker attach fails with ``FileNotFoundError``.
    """
    spec = SweepSpec(source="catalog", models=("SC",))
    cold = CheckEngine(jobs=2).run(spec)
    assert len(cold.results) > 2
    with CheckEngine(jobs=2, persistent=True) as warm:
        warm._arena = PlaneArena(capacity=1)  # far smaller than the sweep
        report = warm.run(spec)
        assert warm.arena is not None and warm.arena.capacity >= len(cold.results)
    assert _stripped(report.results) == _stripped(cold.results)


def test_cross_spec_sweeps_never_share_stale_segments():
    """Two shapes on one warm engine must each decode their own histories.

    Job keys used to collide across specs (``random:{seed}:{i}`` omitted
    the shape) and the arena trusted an existing key's payload, so the
    second sweep decoded the first sweep's stale segments.  Two layers
    now prevent this: job keys embed the full shape, and the arena keys
    segments by :func:`plane_key` content hash regardless.
    """
    base = dict(source="random", models=("SC", "Causal"), seed=7, count=4)
    first = SweepSpec(procs=2, ops_per_proc=2, **base)
    second = SweepSpec(procs=3, ops_per_proc=2, **base)
    first_keys = {j.key for j in first.jobs()}
    assert first_keys.isdisjoint(j.key for j in second.jobs())
    assert {plane_key(j.history) for j in first.jobs()}.isdisjoint(
        plane_key(j.history) for j in second.jobs()
    )
    cold = CheckEngine(jobs=2).run(second)
    with CheckEngine(jobs=2, persistent=True) as warm:
        warm.run(first)
        report = warm.run(second)
    assert _stripped(report.results) == _stripped(cold.results)


def test_persistent_engine_close_releases_segments():
    spec = SweepSpec(source="catalog", models=("SC",))
    engine = CheckEngine(jobs=2, persistent=True)
    engine.run(spec)
    arena = engine.arena
    assert arena is not None
    live = [shm.name for shm in arena._segments.values()]
    assert live
    engine.close()
    for name in live:
        assert not _segment_exists(name)
    # A closed engine still runs (cold start again).
    report = engine.run(spec)
    assert report.metrics.histories > 0
    engine.close()


def test_serial_persistent_engine_has_no_arena():
    engine = CheckEngine(jobs=1, persistent=True)
    assert engine.arena is None
    engine.close()
