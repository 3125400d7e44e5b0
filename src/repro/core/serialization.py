"""Serialization of histories and views to/from JSON-compatible structures.

The benchmark harness and the lattice-enumeration cache persist histories to
disk; this module provides a stable, versioned wire format.  The compact
litmus *text* notation (``p: w(x)1 r(y)0 | q: ...``) lives in
:mod:`repro.litmus.dsl`; this module is the structured counterpart.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.errors import ParseError
from repro.core.history import ProcessorHistory, SystemHistory
from repro.core.operation import Operation, OpKind
from repro.core.view import View

__all__ = [
    "FORMAT_VERSION",
    "operation_to_dict",
    "operation_from_dict",
    "history_to_dict",
    "history_from_dict",
    "history_to_json",
    "history_from_json",
    "canonical_history_json",
    "view_to_dict",
    "view_from_dict",
    "check_result_to_dict",
    "check_result_from_dict",
]

#: Bumped on any incompatible change to the wire format.
FORMAT_VERSION = 1


def operation_to_dict(op: Operation) -> dict[str, Any]:
    """Encode one operation as a plain dictionary."""
    d: dict[str, Any] = {
        "proc": op.proc,
        "index": op.index,
        "kind": op.kind.value,
        "location": op.location,
        "value": op.value,
    }
    if op.read_value is not None:
        d["read_value"] = op.read_value
    if op.labeled:
        d["labeled"] = True
    return d


def operation_from_dict(d: dict[str, Any]) -> Operation:
    """Decode one operation from :func:`operation_to_dict` output."""
    try:
        return Operation(
            proc=d["proc"],
            index=d["index"],
            kind=OpKind(d["kind"]),
            location=d["location"],
            value=d["value"],
            read_value=d.get("read_value"),
            labeled=d.get("labeled", False),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed operation record {d!r}: {exc}") from exc


def history_to_dict(history: SystemHistory) -> dict[str, Any]:
    """Encode a system history as a versioned plain dictionary."""
    return {
        "version": FORMAT_VERSION,
        "processors": {
            str(proc): [operation_to_dict(op) for op in history[proc]]
            for proc in history.procs
        },
    }


def history_from_dict(d: dict[str, Any]) -> SystemHistory:
    """Decode a system history from :func:`history_to_dict` output."""
    version = d.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported history format version {version!r}")
    try:
        processors = d["processors"]
    except KeyError as exc:
        raise ParseError("history record lacks 'processors'") from exc
    return SystemHistory(
        ProcessorHistory(proc, [operation_from_dict(o) for o in ops])
        for proc, ops in processors.items()
    )


def history_to_json(history: SystemHistory, *, indent: int | None = None) -> str:
    """Encode a system history as a JSON string."""
    return json.dumps(history_to_dict(history), indent=indent, sort_keys=True)


def canonical_history_json(history: SystemHistory) -> str:
    """The canonical JSON of :func:`history_to_dict`: sorted keys, no spaces.

    Equal histories encode to equal strings, which is what content keys
    (the service's job keys) hash.
    """
    return json.dumps(
        history_to_dict(history), sort_keys=True, separators=(",", ":")
    )


def history_from_json(text: str) -> SystemHistory:
    """Decode a system history from :func:`history_to_json` output."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return history_from_dict(d)


def view_to_dict(view: View) -> dict[str, Any]:
    """Encode a view (owner + operation identity sequence)."""
    return {
        "version": FORMAT_VERSION,
        "proc": view.proc,
        "ops": [operation_to_dict(op) for op in view],
    }


def view_from_dict(d: dict[str, Any], history: SystemHistory | None = None) -> View:
    """Decode a view; validates against ``history`` when provided."""
    version = d.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported view format version {version!r}")
    return View(
        d["proc"], [operation_from_dict(o) for o in d["ops"]], history
    )


# -- check results (verdict + witness/counterexample) --------------------------


def _witness_to_dict(witness: Any) -> dict[str, Any]:
    d: dict[str, Any] = {
        "views": [
            view_to_dict(witness.views[proc])
            for proc in sorted(witness.views, key=str)
        ]
    }
    if witness.reads_from is not None:
        d["reads_from"] = [
            {
                "read": operation_to_dict(r),
                "source": None if src is None else operation_to_dict(src),
            }
            for r, src in witness.reads_from.items()
        ]
    if witness.coherence is not None:
        d["coherence"] = {
            loc: [operation_to_dict(w) for w in chain]
            for loc, chain in witness.coherence.items()
        }
    return d


def _witness_from_dict(d: dict[str, Any], history: SystemHistory | None):
    from repro.kernel.results import Witness

    views = {}
    for vd in d["views"]:
        view = view_from_dict(vd, history)
        views[view.proc] = view
    reads_from = None
    if "reads_from" in d:
        reads_from = {
            operation_from_dict(e["read"]): (
                None if e["source"] is None else operation_from_dict(e["source"])
            )
            for e in d["reads_from"]
        }
    coherence = None
    if "coherence" in d:
        coherence = {
            loc: tuple(operation_from_dict(o) for o in chain)
            for loc, chain in d["coherence"].items()
        }
    return Witness(views=views, reads_from=reads_from, coherence=coherence)


def _counterexample_to_dict(cx: Any) -> dict[str, Any]:
    d: dict[str, Any] = {"model": cx.model, "kind": cx.kind, "detail": cx.detail}
    if cx.proc is not None:
        d["proc"] = cx.proc
    if cx.cycle:
        d["cycle"] = [operation_to_dict(op) for op in cx.cycle]
    if cx.stuck_after:
        d["stuck_after"] = cx.stuck_after
    if cx.blocked:
        d["blocked"] = [
            {"op": operation_to_dict(op), "why": why} for op, why in cx.blocked
        ]
    return d


def _counterexample_from_dict(d: dict[str, Any]):
    from repro.kernel.results import Counterexample

    return Counterexample(
        model=d["model"],
        kind=d["kind"],
        detail=d["detail"],
        proc=d.get("proc"),
        cycle=tuple(operation_from_dict(o) for o in d.get("cycle", ())),
        stuck_after=d.get("stuck_after", 0),
        blocked=tuple(
            (operation_from_dict(e["op"]), e["why"]) for e in d.get("blocked", ())
        ),
    )


def check_result_to_dict(result: Any) -> dict[str, Any]:
    """Encode a :class:`~repro.kernel.results.CheckResult`, views included.

    The engine's result store uses this (under ``--store-views``) so that a
    positive verdict's witness survives the trip to disk instead of being
    reduced to a boolean.
    """
    d: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "model": result.model,
        "allowed": result.allowed,
        "reason": result.reason,
        "explored": result.explored,
        "views": [
            view_to_dict(result.views[proc])
            for proc in sorted(result.views, key=str)
        ],
    }
    if result.witness is not None:
        d["witness"] = _witness_to_dict(result.witness)
    if result.counterexample is not None:
        d["counterexample"] = _counterexample_to_dict(result.counterexample)
    return d


def check_result_from_dict(
    d: dict[str, Any], history: SystemHistory | None = None
):
    """Decode :func:`check_result_to_dict` output back to a ``CheckResult``.

    Views are re-validated against ``history`` when one is provided.  The
    decoded operations compare equal to (but are not identical with) the
    history's own objects, like every decoder in this module.
    """
    from repro.kernel.results import CheckResult

    version = d.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported check-result format version {version!r}")
    try:
        views = {}
        for vd in d["views"]:
            view = view_from_dict(vd, history)
            views[view.proc] = view
        return CheckResult(
            model=d["model"],
            allowed=d["allowed"],
            views=views,
            reason=d.get("reason", ""),
            explored=d.get("explored", 0),
            witness=(
                _witness_from_dict(d["witness"], history)
                if "witness" in d
                else None
            ),
            counterexample=(
                _counterexample_from_dict(d["counterexample"])
                if "counterexample" in d
                else None
            ),
        )
    except KeyError as exc:
        raise ParseError(f"malformed check-result record: missing {exc}") from exc
