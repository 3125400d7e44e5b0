"""E13 — the static pre-pass: DENY soundness at scale and coverage.

The pre-pass (``repro lint history``) is a battery of polynomial
necessary conditions; no check path runs it (E22).  Two claims, asserted
rather than just measured:

* **Soundness** — over the full litmus catalog and 200 seeded random
  histories, every pre-pass DENY is a kernel DENY.
* **Coverage** — the pre-pass alone decides at least 25% of the
  catalog's DENY checks.
"""

import numpy as np

from repro.analysis.random_histories import random_history
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.spec import ALL_SPECS
from repro.staticcheck import prepass_check

CATALOG_HISTORIES = [t.history for t in CATALOG.values()]
RANDOM_HISTORIES = [
    random_history(np.random.default_rng(seed), procs=3, ops_per_proc=4)
    for seed in range(200)
]


def test_prepass_denies_are_kernel_denies_on_catalog_and_random():
    """A pre-pass DENY is never a history the kernel admits."""
    denies = 0
    for history in CATALOG_HISTORIES + RANDOM_HISTORIES:
        for spec in ALL_SPECS:
            verdict = prepass_check(spec, history)
            if not verdict.decided:
                continue
            denies += 1
            assert not check_with_spec(spec, history).allowed, (
                f"{spec.name}: pre-pass DENY ({verdict.check}) but the "
                f"kernel admits {history}"
            )
    print(f"\npre-pass DENYs confirmed by the kernel: {denies}")
    assert denies > 0


def test_prepass_decides_a_quarter_of_catalog_denies():
    """≥ 25% of catalog DENY checks are decided without the search."""
    denies = decided = 0
    for history in CATALOG_HISTORIES:
        for spec in ALL_SPECS:
            if check_with_spec(spec, history).allowed:
                continue
            denies += 1
            if prepass_check(spec, history).decided:
                decided += 1
    fraction = decided / denies
    print(
        f"\ncatalog DENY checks: {denies}; decided by pre-pass alone: "
        f"{decided} ({fraction:.1%})"
    )
    assert fraction >= 0.25, (
        f"pre-pass coverage regressed: {fraction:.1%} of catalog DENY "
        "checks decided, need >= 25%"
    )


def test_report_fraction_decided_without_search():
    """The headline E13 number: checks denied across catalog + random."""
    total = decided = 0
    for history in CATALOG_HISTORIES + RANDOM_HISTORIES:
        for spec in ALL_SPECS:
            total += 1
            if prepass_check(spec, history).decided:
                decided += 1
    print(
        f"\n{decided}/{total} checks ({decided / total:.1%}) denied "
        "without search (catalog + 200 random histories x "
        f"{len(ALL_SPECS)} specs)"
    )
    assert decided > 0
