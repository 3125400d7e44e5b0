"""Compact text notation for execution histories.

The paper writes histories as rows of operations per processor, e.g.
Figure 1::

    p: w(x)1 r(y)0
    q: w(y)1 r(x)0

This module parses exactly that notation (plus a one-line variant using
``|`` as the row separator) into :class:`~repro.core.history.SystemHistory`
values and renders histories back to it.

Grammar
-------
::

    history   := row (('\\n' | '|') row)*
    row       := proc ':' op*
    op        := kind label? '(' location ')' payload
    kind      := 'w' | 'r' | 'u'
    label     := '*'                      # labeled (synchronization) op
    payload   := int | int '->' int      # the latter only for kind 'u' (RMW)

Whitespace between tokens is insignificant; ``#`` starts a comment running
to end of line.  Values are (possibly negative) integers; locations are
identifiers (letters, digits, ``_``, ``[]`` for array cells).
"""

from __future__ import annotations

import re

from repro.core.errors import ParseError
from repro.core.history import HistoryBuilder, SystemHistory
from repro.core.operation import Operation, OpKind

__all__ = ["parse_history", "format_history", "parse_operations", "LOCATION_RE"]

#: A memory location name: an identifier that may carry array brackets.
LOCATION_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\[\]]*")

_OP_RE = re.compile(
    rf"""
    (?P<kind>[wru])
    (?P<label>\*)?
    \(\s*(?P<loc>{LOCATION_RE.pattern})\s*\)
    (?P<v1>-?\d+)
    (?:\s*->\s*(?P<v2>-?\d+))?
    """,
    re.VERBOSE,
)

_ROW_RE = re.compile(r"^\s*(?P<proc>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*(?P<body>.*)$")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_history(text: str) -> SystemHistory:
    """Parse litmus notation into a :class:`SystemHistory`.

    Rows may be separated by newlines or ``|``.  Processors may not repeat.

    Raises
    ------
    ParseError
        On any syntax error, with the offending fragment in the message.
    """
    rows: list[str] = []
    for line in text.splitlines():
        line = _strip_comment(line)
        rows.extend(part for part in line.split("|") if part.strip())
    if not rows:
        raise ParseError("empty history text")

    builder = HistoryBuilder()
    seen: set[str] = set()
    for row in rows:
        m = _ROW_RE.match(row)
        if m is None:
            raise ParseError(f"malformed row {row.strip()!r} (expected 'proc: ops')")
        proc = m.group("proc")
        if proc in seen:
            raise ParseError(f"duplicate row for processor {proc!r}")
        seen.add(proc)
        builder.proc(proc)
        _parse_ops_into(builder, m.group("body"), row)
    return builder.build()


def _parse_ops_into(builder: HistoryBuilder, body: str, context: str) -> None:
    pos = 0
    n = len(body)
    while pos < n:
        if body[pos].isspace():
            pos += 1
            continue
        m = _OP_RE.match(body, pos)
        if m is None:
            raise ParseError(
                f"cannot parse operation at {body[pos:pos + 20]!r} in row {context.strip()!r}"
            )
        kind, labeled = m.group("kind"), m.group("label") is not None
        loc, v1, v2 = m.group("loc"), int(m.group("v1")), m.group("v2")
        if kind == "w":
            if v2 is not None:
                raise ParseError(f"write {m.group(0)!r} must not use '->'")
            builder.write(loc, v1, labeled=labeled)
        elif kind == "r":
            if v2 is not None:
                raise ParseError(f"read {m.group(0)!r} must not use '->'")
            builder.read(loc, v1, labeled=labeled)
        else:  # RMW
            if v2 is None:
                raise ParseError(f"RMW {m.group(0)!r} requires 'old->new' payload")
            builder.rmw(loc, v1, int(v2), labeled=labeled)
        pos = m.end()


def parse_operations(proc: str, body: str) -> tuple[Operation, ...]:
    """Parse a bare operation sequence (no ``proc:`` prefix) for ``proc``."""
    builder = HistoryBuilder().proc(proc)
    _parse_ops_into(builder, _strip_comment(body), body)
    return builder.build().ops_of(proc)


def _format_op(op: Operation) -> str:
    star = "*" if op.labeled else ""
    if op.kind is OpKind.RMW:
        return f"u{star}({op.location}){op.read_value}->{op.value}"
    return f"{op.kind.value}{star}({op.location}){op.value}"


def format_history(history: SystemHistory, *, oneline: bool = False) -> str:
    """Render a history in the litmus notation accepted by :func:`parse_history`."""
    rows = (
        f"{proc}: " + " ".join(_format_op(op) for op in history[proc])
        for proc in history.procs
    )
    return " | ".join(rows) if oneline else "\n".join(rows)
