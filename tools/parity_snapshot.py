"""Print SHA-256 digests of everything the checker decides, for parity checks.

A change that claims to leave the checker's answers byte-identical runs
this tool before and after and compares the output::

    PYTHONPATH=src python tools/parity_snapshot.py            # full inputs
    PYTHONPATH=src python tools/parity_snapshot.py --quick    # small inputs

or saves the parent's output to a file and checks the change against it::

    PYTHONPATH=src python tools/parity_snapshot.py > parent.txt         # on the parent
    PYTHONPATH=src python tools/parity_snapshot.py --against parent.txt  # on the change

``--against`` prints every (family, field) pair whose digest differs
from the file's and exits 1 if any does (pass ``--quick`` on both sides
or on neither).

The inputs are the litmus catalog, seeded random 3x3 and 3x4 histories,
seeded impossible-value histories (reads of values no write stores) and
seeded random 3x3 histories with about half their operations labeled
(so release consistency's labeled disciplines do work), each checked
under every registered model.  For every (history, model)
pair the tool records:

* the verdict, reason and ``explored`` count of ``check()`` (fast paths
  included) and of the kernel's ``check_with_spec``;
* the witness views of both, and the kernel's witness attribution and
  write order;
* the counterexample ``explain_with_spec`` attaches to a denial;
* the traced event stream of the kernel check.

One digest is printed per (input family, field), then one over all of
them.  Errors (a budget overrun, a model that refuses a history) are
recorded as text in every field, so they are part of the parity too.
"""

from __future__ import annotations

import argparse
import hashlib
from typing import Any, Callable, Iterable

import numpy as np

from repro.analysis.random_histories import random_history
from repro.checking.models import MODELS, check, model_names
from repro.core.history import ProcessorHistory, SystemHistory
from repro.kernel.search import check_with_spec, explain_with_spec
from repro.litmus.catalog import CATALOG
from repro.obs.events import event_to_dict
from repro.obs.sink import RecordingSink

FIELDS = (
    "verdicts",
    "reasons",
    "explored",
    "views",
    "witnesses",
    "counterexamples",
    "traces",
)


def _op(op: Any) -> str:
    return f"{op.proc}.{op.index}:{op}"


def _views(views: Any) -> str:
    return repr(
        [(str(p), [_op(o) for o in views[p]]) for p in sorted(views, key=str)]
    )


def _witness(result: Any) -> str:
    w = result.witness
    if w is None:
        return "-"
    rf = sorted(
        (_op(r), "init" if s is None else _op(s))
        for r, s in (w.reads_from or {}).items()
    )
    co = (
        None
        if w.coherence is None
        else [(loc, [_op(o) for o in chain]) for loc, chain in w.coherence.items()]
    )
    return repr((_views(w.views), rf, co))


def _counterexample(cx: Any) -> str:
    if cx is None:
        return "-"
    return repr(
        (
            cx.model,
            cx.kind,
            cx.detail,
            str(cx.proc),
            [_op(o) for o in cx.cycle],
            cx.stuck_after,
            [(_op(o), why) for o, why in cx.blocked],
        )
    )


def _guarded(fn: Callable[[], Any]) -> tuple[Any, str | None]:
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - an error is part of the answer
        return None, f"error {type(exc).__name__}: {exc}"


def _record(history: SystemHistory, name: str) -> dict[str, str]:
    """Every field's text for one (history, model) pair."""
    out: dict[str, list[str]] = {f: [] for f in FIELDS}
    fast, err = _guarded(lambda: check(history, name))
    results = [(fast, err)]
    spec = MODELS[name].spec
    if spec is not None:
        results.append(_guarded(lambda: check_with_spec(spec, history)))
    for result, error in results:
        if error is not None:
            for f in ("verdicts", "reasons", "explored", "views", "witnesses"):
                out[f].append(error)
            continue
        out["verdicts"].append(str(result.allowed))
        out["reasons"].append(result.reason)
        out["explored"].append(str(result.explored))
        out["views"].append(_views(result.views))
        out["witnesses"].append(_witness(result))
    if spec is not None:
        explained, error = _guarded(lambda: explain_with_spec(spec, history))
        out["counterexamples"].append(
            error or _counterexample(explained.counterexample)
        )
        sink = RecordingSink()
        _, error = _guarded(lambda: check_with_spec(spec, history, trace=sink))
        out["traces"].append(
            repr([event_to_dict(e) for e in sink.events]) + (error or "")
        )
    return {f: "\n".join(v) for f, v in out.items()}


def _half_labeled(rng: np.random.Generator, h: SystemHistory) -> SystemHistory:
    return SystemHistory(
        ProcessorHistory(
            p, [op.with_labeled(bool(rng.random() < 0.5)) for op in h.ops_of(p)]
        )
        for p in h.procs
    )


def families(quick: bool) -> dict[str, list[SystemHistory]]:
    """The input histories, by family; ``quick`` shrinks the random ones."""
    per = 10 if quick else 150
    rng = np.random.default_rng(20260417)
    return {
        "catalog": [t.history for t in CATALOG.values()],
        "random-3x3": [
            random_history(rng, procs=3, ops_per_proc=3, p_write=0.5)
            for _ in range(per)
        ],
        "random-3x4": [
            random_history(rng, procs=3, ops_per_proc=4, p_write=0.5)
            for _ in range(per // 2)
        ],
        "impossible-value": [
            random_history(rng, procs=3, ops_per_proc=3, values=(7, 8))
            for _ in range(per // 2)
        ],
        "labeled-3x3": [
            _half_labeled(rng, random_history(rng, procs=3, ops_per_proc=3))
            for _ in range(per // 2)
        ],
    }


def snapshot(
    inputs: dict[str, list[SystemHistory]], models: Iterable[str]
) -> dict[tuple[str, str], str]:
    """Digest per (family, field)."""
    models = tuple(models)
    digests: dict[tuple[str, str], str] = {}
    for family, histories in inputs.items():
        hashes = {f: hashlib.sha256() for f in FIELDS}
        for i, history in enumerate(histories):
            for name in models:
                record = _record(history, name)
                for f in FIELDS:
                    hashes[f].update(f"{i}|{name}|{record[f]}\n".encode())
        for f in FIELDS:
            digests[(family, f)] = hashes[f].hexdigest()
    return digests


def _lines(digests: dict[tuple[str, str], str], sizes: str) -> list[str]:
    """The printed report: one line per (family, field), then the total."""
    total = hashlib.sha256()
    lines = []
    for (family, f), digest in digests.items():
        lines.append(f"{family:<17s} {f:<16s} {digest}")
        total.update(digest.encode())
    lines.append(f"{'all':<17s} {'(' + sizes + ')':<16s} {total.hexdigest()}")
    return lines


def _parse(lines: Iterable[str]) -> dict[tuple[str, str], str]:
    """(family, field) -> digest from a saved report; other lines are skipped."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and len(parts[-1]) == 64:
            out[(parts[0], " ".join(parts[1:-1]))] = parts[-1]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer random histories (CI smoke)"
    )
    parser.add_argument(
        "--against",
        metavar="FILE",
        help="a saved report: print every differing digest, exit 1 on any",
    )
    args = parser.parse_args(argv)
    inputs = families(args.quick)
    digests = snapshot(inputs, model_names())
    sizes = ", ".join(f"{k}={len(v)}" for k, v in inputs.items())
    lines = _lines(digests, sizes)
    print("\n".join(lines))
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        want = _parse(fh)
    got = _parse(lines)
    differing = [
        key for key in dict.fromkeys([*want, *got]) if want.get(key) != got.get(key)
    ]
    for family, f in differing:
        print(f"DIFFERS {family} {f}: {want.get((family, f), '-')} -> "
              f"{got.get((family, f), '-')}")
    if differing:
        return 1
    print(f"parity: every digest equals {args.against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
