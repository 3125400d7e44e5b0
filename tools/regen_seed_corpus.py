"""Regenerate ``tests/diff/data/seed_corpus.jsonl``.

Run after an *intended* semantics change::

    PYTHONPATH=src python tools/regen_seed_corpus.py [--jobs N]

Harvests one minimal, verdict-locked separating witness per
:data:`repro.diff.fuzz.SEPARATOR_PATTERNS` entry from a deterministic
fuzz campaign over the full spec-backed panel, then falls back to the
speclint family probes for any pattern the random strata did not hit
(the partition-arity separations need four-location store buffering,
which random sampling produces rarely).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.checking.models import resolve_models
from repro.diff import DiscrepancyCorpus, FuzzConfig, harvest_fixtures
from repro.diff.fuzz import SEPARATOR_PATTERNS
from repro.diff.oracles import (
    agreed_verdicts,
    find_discrepancies,
    panel_verdicts,
)
from repro.diff.shrink import shrink_history
from repro.litmus import parse_history

CORPUS = Path(__file__).resolve().parent.parent / "tests/diff/data/seed_corpus.jsonl"

#: Hand-built fallback witnesses (the speclint family probes), tried for
#: any pattern the fuzz harvest missed.
_FALLBACK_PROBES: tuple[str, ...] = (
    "p: w(x)1 r(x)0",
    "p: w(x)1 w(x)2 | q: r(x)1 r(x)2 r(x)1",
    "p: w(x)1 w(y)1 | q: r(y)1 r(x)0 r(x)1",
    "p: r(x)2 w(x)2",
    "p: w(x)1 r(z)0 | q: w(z)1 r(x)0 | s: w(y)1",
    "p: w(u)1 r(z)0 | q: w(z)1 r(u)0 | s: w(x)1 | t: w(y)1",
    # Labeled probes: the RC disciplines only separate on labeled
    # operations, which the random strata never emit.
    "p: w*(x)1 r*(y)0 | q: w*(y)1 r*(x)0",
    "p: w(x)1 w*(s)1 | q: r*(s)1 r(x)0",
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    panel = resolve_models("spec")
    cfg = FuzzConfig(seed=args.seed, count=args.count, models=panel)
    engine = None
    if args.jobs > 1:
        from repro.engine import CheckEngine

        engine = CheckEngine(jobs=args.jobs)
    fixtures = harvest_fixtures(cfg, engine=engine)
    found = {key for key, _, _, _ in fixtures}

    missing = [
        (label, admit, deny)
        for label, admit, deny in SEPARATOR_PATTERNS
        if f"separator:{label}" not in found
    ]
    for label, admit, deny in missing:
        for text in _FALLBACK_PROBES:
            history = parse_history(text)
            verdicts = panel_verdicts(history, panel)
            if find_discrepancies(verdicts):
                continue
            agreed = agreed_verdicts(verdicts)
            if not (agreed[admit] and not agreed[deny]):
                continue

            def separates(candidate):
                p = panel_verdicts(candidate, panel)
                if find_discrepancies(p):
                    return None
                a = agreed_verdicts(p)
                return (a[admit] and not a[deny]) or None

            shrunk = shrink_history(history, separates)
            expected = agreed_verdicts(panel_verdicts(shrunk.history, panel))
            fixtures.append(
                (
                    f"separator:{label}",
                    shrunk.history,
                    expected,
                    "hand-built family probe (speclint); "
                    f"shrunk by {shrunk.steps} deletion(s)",
                )
            )
            break
        else:
            print(f"NO WITNESS for {label}")
            return 1

    CORPUS.unlink(missing_ok=True)
    with DiscrepancyCorpus(CORPUS) as corpus:
        corpus.append_run_header(
            {**cfg.describe(), "purpose": "seed regression corpus"}
        )
        for key, history, expected, origin in sorted(fixtures):
            corpus.append_litmus(key, history, expected, origin=origin)
    print(f"wrote {len(fixtures)} fixtures to {CORPUS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
