"""E14 — the observability layer's no-op path is free.

``repro.obs`` promises that tracing is strictly opt-in: when no sink is
installed, ``check_with_spec`` runs the same search it ran before the
instrumentation landed.  Two properties keep that promise honest:

* the inner DFS is the one ``_dfs_find``, an explicit-stack loop over
  universe indices; untraced, its only added cost is an ``is None``
  test at each placement and each backtrack (a child state already
  memoized as failed counts as both);
* every other emission sits behind an ``if sink is not None`` guard, and
  the public entry point resolves the process-global sink exactly once.

This benchmark measures what is measurable: the gated public entry point
(``check_with_spec``, which reads the process-global sink) against the
ungated internal driver called with no sink, interleaved over the full
catalog × spec sweep.  The delta is the entire cost of having the
observability layer installed but disabled, and the acceptance bar is
that it stays under 3%.  The cost of an *enabled* no-op sink
(``NullSink``) is also reported, informationally.
"""

import statistics
import time

from repro.kernel.search import SearchBudget, _check_with_spec_impl, check_with_spec
from repro.litmus import CATALOG
from repro.obs import NullSink, tracing
from repro.spec import ALL_SPECS

# Hoist the histories once: the kernel's history-plane cache is
# identity-keyed, so rebuilding them would benchmark cache misses.
HISTORIES = [t.history for t in CATALOG.values()]
PAIRS = [(spec, h) for h in HISTORIES for spec in ALL_SPECS]
ROUNDS = 31
OVERHEAD_BAR = 0.03


def _sweep_gated():
    n = 0
    for spec, h in PAIRS:
        if check_with_spec(spec, h).allowed:
            n += 1
    return n


def _sweep_ungated():
    n = 0
    for spec, h in PAIRS:
        if _check_with_spec_impl(spec, h, SearchBudget(), None).allowed:
            n += 1
    return n


def _sweep_null_sink():
    n = 0
    sink = NullSink()
    with tracing(sink):
        for spec, h in PAIRS:
            if check_with_spec(spec, h).allowed:
                n += 1
    return n


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired_ratio(variant, baseline, rounds=ROUNDS):
    """Median of per-round ``variant/baseline`` time ratios.

    Each round times both functions back to back, so frequency scaling
    and background load shift both sides of a ratio together; the median
    over many paired rounds is far more stable on a shared machine than
    comparing two independent best-of-N figures.  A warm-up round first
    so neither side pays one-time cache fills.
    """
    variant()
    baseline()
    ratios = [_time(variant) / _time(baseline) for _ in range(rounds)]
    return statistics.median(ratios), statistics.median(map(_time, [baseline] * 3))


def test_disabled_tracing_overhead_under_3pct():
    """The tentpole's acceptance bar: disabled tracing costs <3%."""
    # Identical verdicts first — a fast wrong answer is not an overhead figure.
    assert _sweep_gated() == _sweep_ungated() == _sweep_null_sink()
    ratio, base = _paired_ratio(_sweep_gated, _sweep_ungated)
    overhead = ratio - 1.0
    print(
        f"\ncatalog x {len(ALL_SPECS)} specs: ungated {base * 1e3:.1f}ms/round, "
        f"gated overhead {overhead * 100:+.2f}% (median of {ROUNDS} paired rounds)"
    )
    assert overhead < OVERHEAD_BAR, (
        f"disabled-tracing overhead {overhead * 100:.2f}% "
        f"exceeds {OVERHEAD_BAR * 100:.0f}%"
    )


def test_null_sink_enabled_cost_reported():
    """Informational: what an installed-but-discarding sink costs."""
    ratio, base = _paired_ratio(_sweep_null_sink, _sweep_ungated, rounds=5)
    print(
        f"\nNullSink enabled: baseline {base * 1e3:.1f}ms/round, "
        f"with sink {(ratio - 1) * 100:+.1f}%"
    )
    # No hard bar: an enabled sink is opt-in and allowed to cost something,
    # but it should not blow up the sweep wholesale.
    assert ratio < 3.0
