"""The kernel reproduces the pre-kernel generic solver's answers exactly.

The kernel refactor's acceptance bar was that on every catalog history ×
spec pair it reproduce the pre-kernel solver's verdict, exploration
count, reason string and witness views — not just the boolean.  That
solver is gone; its answers are recorded in ``data/legacy_lock.json``
(catalog × ``ALL_SPECS`` plus three histories with ambiguous reads-from
attributions) and the kernel is compared with the lock field for field.

A deliberate change to any of those fields (for instance a search
change that lowers ``explored``) regenerates the lock from the kernel::

    PYTHONPATH=src python -m tests.kernel.test_equivalence

and the change that does so reports the fields that moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG, parse_history
from repro.spec import ALL_SPECS

LOCK = Path(__file__).resolve().parent / "data" / "legacy_lock.json"

#: Duplicate write values force attribution enumeration.
AMBIGUOUS = (
    "p: w(x)1 | q: w(x)1 | r: r(x)1",
    "p: w(x)1 w(y)1 | q: r(y)1 r(x)1",
    "p: w(x)1 | q: w(x)1 r(x)1 | r: r(x)1 r(x)0",
)


def _record(label, spec, result) -> dict:
    views = sorted(result.views.items(), key=lambda kv: str(kv[0]))
    return {
        "history": label,
        "spec": spec.name,
        "allowed": result.allowed,
        "explored": result.explored,
        "reason": result.reason,
        "views": [[str(proc), [list(op.uid) for op in view]] for proc, view in views],
    }


def dump(rows: list[dict]) -> str:
    """The lock's text: one record per line, so a diff names the pair."""
    return "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"


def snapshot(check=check_with_spec) -> list[dict]:
    """One record per (input, spec) pair, catalog first, in lock order."""
    inputs = [(name, entry.history) for name, entry in CATALOG.items()]
    inputs += [(text, parse_history(text)) for text in AMBIGUOUS]
    return [
        _record(label, spec, check(spec, h))
        for label, h in inputs
        for spec in ALL_SPECS
    ]


@pytest.fixture(scope="module")
def lock() -> dict[tuple[str, str], dict]:
    rows = json.loads(LOCK.read_text(encoding="utf-8"))
    assert len(rows) == (len(CATALOG) + len(AMBIGUOUS)) * len(ALL_SPECS)
    return {(r["history"], r["spec"]): r for r in rows}


def _assert_matches(lock, label, h):
    for spec in ALL_SPECS:
        got = _record(label, spec, check_with_spec(spec, h))
        assert got == lock[(label, spec.name)], f"{label} × {spec.name}"


@pytest.mark.parametrize("name", list(CATALOG))
def test_kernel_matches_legacy_on_catalog(lock, name):
    _assert_matches(lock, name, CATALOG[name].history)


def test_kernel_matches_legacy_on_ambiguous_histories(lock):
    for text in AMBIGUOUS:
        _assert_matches(lock, text, parse_history(text))


if __name__ == "__main__":
    LOCK.write_text(dump(snapshot()), encoding="utf-8")
    sys.stdout.write(f"wrote {LOCK}\n")
