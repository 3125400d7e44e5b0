"""The mask gate, the seam that instruments it, and the plane-cache LRU.

Three contracts:

* semantics — the gate's closure/acyclicity/gate answers equal a
  brute-force reachability reference on crafted planes (cycles,
  self-loops, empty universes, full chains) and at every width up to 64;
* the seam — ``use_backend`` scopes and restores an installed
  :class:`MaskBackend`, and an instrumenting subclass sees every gate of
  a check without changing its result;
* the plane cache — a bounded identity-keyed LRU with observable
  hit/miss/eviction counters, under which interleaved sessions no
  longer evict each other (the regression the single slot had).
"""

import pytest

from repro.checking.models import MODELS
from repro.core.errors import KernelError
from repro.core.serialization import check_result_to_dict
from repro.kernel.backend import (
    MaskBackend,
    PythonBackend,
    active_backend,
    close_masks,
    masks_acyclic,
    use_backend,
)
from repro.kernel.constraints import (
    configure_plane_cache,
    history_plane,
    install_plane,
    plane_cache_stats,
)
from repro.kernel.search import check_with_spec
from repro.litmus import parse_history
from repro.litmus.catalog import CATALOG
from repro.obs.sink import CountingSink, tracing


def reference_closure(masks, n):
    """Transitive closure by a reachability walk from every operation."""
    out = []
    for j in range(n):
        seen, todo = 0, [j]
        while todo:
            preds = masks[todo.pop()]
            for i in range(n):
                if preds >> i & 1 and not seen >> i & 1:
                    seen |= 1 << i
                    todo.append(i)
        out.append(seen)
    return out


def reference_acyclic(masks, n):
    """Acyclic iff no operation reaches itself."""
    return not any(row >> j & 1 for j, row in enumerate(reference_closure(masks, n)))


# -- semantics: the gate == brute-force reachability ----------------------------

#: Crafted planes: (masks, n) covering the shapes the search produces.
PLANES = [
    ([], 0),
    ([0], 1),
    ([1], 1),  # self-loop
    ([0, 1, 3], 3),  # chain, closed
    ([0, 1, 2], 3),  # chain needing closure (2 depends on 1 only)
    ([2, 4, 1], 3),  # 3-cycle
    ([0, 1, 0, 5], 4),  # diamond-ish
    ([0b0000, 0b0001, 0b0011, 0b0111], 4),  # total order
    ([8, 0, 2, 4], 4),  # 0<-3, 2<-1, 3<-2: chain through the middle
]


@pytest.mark.parametrize("masks,n", PLANES)
def test_close_matches_reference(masks, n):
    assert active_backend().close(masks, n) == reference_closure(masks, n)


@pytest.mark.parametrize("masks,n", PLANES)
def test_acyclic_matches_reference(masks, n):
    assert active_backend().acyclic(masks, n) == reference_acyclic(masks, n)


@pytest.mark.parametrize("masks,n", PLANES)
def test_gate_matches_reference(masks, n):
    want = reference_closure(masks, n) if reference_acyclic(masks, n) else None
    assert active_backend().gate(masks, n) == want


def test_gate_batch_mixed_verdicts():
    batch = [[0, 1, 2], [2, 4, 1], [0, 0, 0]]
    out = active_backend().gate_batch(batch, 3)
    assert out == [[0, 1, 3], None, [0, 0, 0]]  # the cycle is gated out


@pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 32, 33, 63, 64])
def test_widths_chain_plane(n):
    # A chain where each operation follows the previous one: closure is
    # the strict lower triangle, and acyclicity holds.
    chain = [1 << (i - 1) if i else 0 for i in range(n)]
    backend = active_backend()
    assert backend.close(chain, n) == [(1 << i) - 1 for i in range(n)]
    assert backend.acyclic(chain, n) is True
    # And an edge closing the chain into a cycle is rejected.
    cyclic = list(chain)
    cyclic[0] |= 1 << (n - 1)
    assert backend.acyclic(cyclic, n) is False


def test_empty_batch():
    assert active_backend().gate_batch([], 5) == []


# -- the seam: installing an instrumenting backend ------------------------------


class _CountingBackend(MaskBackend):
    """Delegates to the default and records every ``gate_batch`` call."""

    def __init__(self) -> None:
        self.inner = PythonBackend()
        self.batch_sizes: list[int] = []

    def close(self, masks, n):
        return self.inner.close(masks, n)

    def acyclic(self, masks, n):
        return self.inner.acyclic(masks, n)

    def gate_batch(self, batch, n):
        self.batch_sizes.append(len(batch))
        return self.inner.gate_batch(batch, n)


def test_use_backend_scopes_and_restores():
    before = active_backend()
    outer, inner = _CountingBackend(), _CountingBackend()
    with use_backend(outer) as installed:
        assert installed is outer and active_backend() is outer
        with use_backend(inner):
            assert active_backend() is inner
        assert active_backend() is outer
    assert active_backend() is before


def test_use_backend_restores_on_error():
    before = active_backend()
    with pytest.raises(RuntimeError):
        with use_backend(_CountingBackend()):
            raise RuntimeError("boom")
    assert active_backend() is before


@pytest.mark.parametrize("model", ["SC", "TSO", "PC", "RC_sc", "partition-2"])
def test_installed_backend_sees_one_gate_per_candidate(model):
    spec = MODELS[model].spec
    gated = 0
    for entry in CATALOG.values():
        want = check_result_to_dict(check_with_spec(spec, entry.history))
        counting, sink = _CountingBackend(), CountingSink()
        with use_backend(counting), tracing(sink):
            got = check_with_spec(spec, entry.history)
        assert check_result_to_dict(got) == want, entry.name
        assert counting.batch_sizes == [1] * sink.counts.get("candidate", 0)
        gated += len(counting.batch_sizes)
    assert gated >= len(CATALOG)


def test_custom_backend_inherits_batch_defaults():
    batch = [[0, 1, 2], [2, 4, 1]]
    tiny = _CountingBackend()
    assert tiny.gate_batch(batch, 3) == [close_masks(batch[0]), None]
    assert tiny.gate(batch[1], 3) is None
    assert masks_acyclic(batch[0], 3)


# -- the plane-cache LRU -------------------------------------------------------


@pytest.fixture
def small_plane_cache():
    configure_plane_cache(capacity=2)
    yield
    configure_plane_cache(capacity=64)


def _histories(k):
    return [parse_history(f"p: w(x){i + 1} | q: r(x){i + 1}") for i in range(k)]


def test_plane_cache_hit_and_miss_counters(small_plane_cache):
    (h,) = _histories(1)
    plane = history_plane(h)
    stats = plane_cache_stats()
    assert (stats["hits"], stats["misses"]) == (0, 1)
    assert history_plane(h) is plane
    stats = plane_cache_stats()
    assert (stats["hits"], stats["misses"]) == (1, 1)
    assert stats["size"] == 1 and stats["capacity"] == 2


def test_plane_cache_interleaved_histories_keep_entries(small_plane_cache):
    # The single-slot regression: two live histories checked in turn must
    # both stay resident (capacity permitting), not evict each other.
    h1, h2 = _histories(2)
    p1, p2 = history_plane(h1), history_plane(h2)
    for _ in range(3):
        assert history_plane(h1) is p1
        assert history_plane(h2) is p2
    stats = plane_cache_stats()
    assert stats["misses"] == 2 and stats["evictions"] == 0


def test_plane_cache_evicts_lru(small_plane_cache):
    h1, h2, h3 = _histories(3)
    p1 = history_plane(h1)
    history_plane(h2)
    history_plane(h1)  # touch h1 so h2 is the LRU entry
    history_plane(h3)  # evicts h2
    assert plane_cache_stats()["evictions"] == 1
    assert history_plane(h1) is p1  # still resident
    misses = plane_cache_stats()["misses"]
    history_plane(h2)  # rebuilt
    assert plane_cache_stats()["misses"] == misses + 1


def test_install_plane_overrides(small_plane_cache):
    h1, h2 = _histories(2)
    plane = history_plane(h1)
    install_plane(h2, plane)
    assert history_plane(h2) is plane


def test_configure_plane_cache_validates():
    with pytest.raises(KernelError):
        configure_plane_cache(capacity=0)
    configure_plane_cache(capacity=64)


def test_plane_cache_thread_safe(small_plane_cache):
    """Concurrent lookups under constant eviction must never raise.

    The serve layer checks on a thread-pool executor; without the cache
    lock, an eviction between one thread's ``get`` hit and its
    ``move_to_end`` raises ``KeyError``.  Capacity 2 with four live
    histories keeps the cache churning at the boundary.
    """
    from concurrent.futures import ThreadPoolExecutor

    histories = _histories(4)

    def hammer(_):
        for _ in range(300):
            for h in histories:
                assert history_plane(h).history is h
        return True

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(hammer, range(8)))
    stats = plane_cache_stats()
    assert stats["size"] <= stats["capacity"]
