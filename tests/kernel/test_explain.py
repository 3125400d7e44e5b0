"""Counterexamples from ``explain_with_spec`` and ``repro explain``.

The lock pins every field of the counterexample the kernel builds for
each denied catalog history × spec-backed model pair: its kind, the
processor, how far the deepest partial view got, the blocked frontier,
the constraint cycle and the one-line detail.  The golden file holds the
full table; regenerate it after an intended change with::

    PYTHONPATH=src python -m tests.kernel.test_explain
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.checking.models import MODELS, resolve_models
from repro.cli import main
from repro.kernel.search import explain_with_spec
from repro.litmus.catalog import CATALOG

LOCK = Path(__file__).resolve().parent / "data" / "explain_lock.json"

SPEC_MODELS = resolve_models("spec")


def snapshot() -> list[dict]:
    """One record per denied (catalog entry, spec model) pair."""
    rows = []
    for name, entry in CATALOG.items():
        for model in SPEC_MODELS:
            result = explain_with_spec(MODELS[model].spec, entry.history)
            if result.allowed:
                continue
            cx = result.counterexample
            assert cx is not None, f"{name} under {model}: no counterexample"
            rows.append(
                {
                    "history": name,
                    "model": model,
                    "kind": cx.kind,
                    "proc": None if cx.proc is None else str(cx.proc),
                    "stuck_after": cx.stuck_after,
                    "blocked": [[str(op), why] for op, why in cx.blocked],
                    "cycle": [str(op) for op in cx.cycle],
                    "detail": cx.detail,
                }
            )
    return rows


def test_explain_lock():
    want = json.loads(LOCK.read_text(encoding="utf-8"))
    got = snapshot()
    assert len(got) == len(want) == 73
    for g, w in zip(got, want):
        assert g == w, f"{w['history']} under {w['model']}"


def test_cli_explain_denied(capsys):
    assert main(["explain", "fig1-sb", "SC"]) == 1
    out = capsys.readouterr().out
    assert out.endswith(
        "SC: NOT allowed\n"
        "SC: no legal view exists for the common view\n"
        "  view stuck after 0 placed operation(s); every remaining "
        "operation is blocked:\n"
        "    w_p(x)1: must follow r_q(x)0\n"
        "    r_p(y)0: must follow w_p(x)1\n"
        "    w_q(y)1: must follow r_p(y)0\n"
        "    r_q(x)0: must follow w_q(y)1\n"
    )


def test_cli_explain_allowed(capsys):
    assert main(["explain", "fig1-sb", "TSO"]) == 0
    out = capsys.readouterr().out
    assert "TSO: allowed (after 1 candidate serialization(s))" in out


if __name__ == "__main__":
    LOCK.parent.mkdir(exist_ok=True)
    LOCK.write_text(json.dumps(snapshot(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {LOCK}\n")
