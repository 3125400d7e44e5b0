"""Self-documenting pipeline: generated doc blocks, CLI reference, link check.

The docs under ``docs/`` contain *generated blocks* — regions delimited
by ``<!-- generated:NAME start/end -->`` markers whose contents are
produced by this module from the live code:

* ``cli-reference`` (in ``docs/cli.md``) — the full ``python -m repro``
  command reference, walked out of the real argparse tree
  (:func:`cli_reference_markdown`), so the reference *cannot* drift from
  the parser: a CI check regenerates and compares.
* ``trace-example`` (in ``docs/obs.md``) — a worked check narration of
  the paper's Figure 1 history under TSO and SC (the kernel search
  admits one and denies the other), rendered by the same
  :func:`~repro.obs.render.render_trace` the ``trace`` verb uses.  The
  kernel is deterministic and events carry no timestamps, so the block
  is byte-stable.

``python -m repro.obs.docgen --check`` verifies every generated block is
current and every intra-repo markdown link resolves (the CI docs job);
``--write`` regenerates the blocks in place.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "cli_reference_markdown",
    "trace_example_markdown",
    "GENERATED_BLOCKS",
    "extract_block",
    "inject_block",
    "stale_blocks",
    "iter_markdown_links",
    "broken_links",
    "main",
]


# -- the CLI reference, from the argparse tree --------------------------------


def cli_reference_markdown() -> str:
    """The ``python -m repro`` reference, generated from the parser.

    One section per verb (recursing into sub-verbs like ``lint history``),
    with the verb's help line, usage, and an option table.  Produced from
    ``repro.cli.build_parser()`` at call time — the test suite compares
    this against the committed ``docs/cli.md`` block.
    """
    from repro.cli import build_parser

    parser = build_parser()
    out: list[str] = []
    _describe_parser(parser, "python -m repro", out, level=0)
    return "\n".join(out).rstrip() + "\n"


def _sub_actions(parser: argparse.ArgumentParser) -> argparse._SubParsersAction | None:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _describe_parser(
    parser: argparse.ArgumentParser, prog: str, out: list[str], *, level: int
) -> None:
    sub = _sub_actions(parser)
    if level == 0:
        out.append(f"Global options of `{prog}`:")
        out.append("")
        out.extend(_option_lines(parser, include_positionals=False))
        out.append("")
    if sub is None:
        return
    # argparse registers one parser object per alias; keep first names only.
    seen: set[int] = set()
    help_by_name = {a.dest: a.help for a in sub._choices_actions}
    for name, child in sub.choices.items():
        if id(child) in seen:
            continue
        seen.add(id(child))
        child_prog = f"{prog} {name}"
        heading = "#" * min(level + 3, 5)
        out.append(f"{heading} `{child_prog}`")
        out.append("")
        blurb = help_by_name.get(name) or child.description
        if blurb:
            out.append(str(blurb).rstrip("."). strip() + ".")
            out.append("")
        grand = _sub_actions(child)
        if grand is None:
            usage = child.format_usage().replace("usage: ", "").strip()
            usage = re.sub(r"\s+", " ", usage)
            out.append("```text")
            out.append(usage)
            out.append("```")
            out.append("")
        lines = _option_lines(child, include_positionals=True)
        if lines:
            out.extend(lines)
            out.append("")
        if grand is not None:
            _describe_parser(child, child_prog, out, level=level + 1)


def _option_lines(
    parser: argparse.ArgumentParser, *, include_positionals: bool
) -> list[str]:
    rows: list[tuple[str, str]] = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            continue
        if action.option_strings:
            name = ", ".join(f"`{s}`" for s in action.option_strings)
            if action.metavar:
                name += f" `{action.metavar}`"
            elif action.nargs != 0 and not isinstance(
                action,
                (
                    argparse._StoreTrueAction,
                    argparse._HelpAction,
                    argparse._VersionAction,
                ),
            ):
                name += f" `{action.dest.upper()}`"
        elif include_positionals:
            name = f"`{action.metavar or action.dest}`"
        else:
            continue
        help_text = (action.help or "").strip()
        if action.default not in (None, argparse.SUPPRESS, False, "==SUPPRESS=="):
            help_text += f" (default: `{action.default}`)"
        rows.append((name, help_text))
    if not rows:
        return []
    lines = ["| argument | meaning |", "|---|---|"]
    lines += [f"| {name} | {help_text} |" for name, help_text in rows]
    return lines


# -- the worked trace example -------------------------------------------------


def trace_example_markdown() -> str:
    """A worked Figure 1 narration: TSO admits, SC denies.

    Rendered by the live instrumentation — regenerating this block *is*
    the test that the trace layer still narrates correctly.
    """
    from repro.checking.models import MODELS
    from repro.kernel.search import check_with_spec
    from repro.litmus import CATALOG
    from repro.obs.render import render_trace
    from repro.obs.sink import RecordingSink, tracing

    entry = CATALOG["fig1-sb"]
    parts = [
        f"The paper's Figure 1 store-buffering history — `{entry.text}` — "
        "is the classic TSO/SC separator.  Traced under both models:",
        "",
    ]
    for model in ("TSO", "SC"):
        spec = MODELS[model].spec
        assert spec is not None
        with tracing(RecordingSink()) as sink:
            check_with_spec(spec, entry.history)
        parts.append(render_trace(sink.events, markdown=True, max_steps=60).rstrip())
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


# -- generated-block plumbing -------------------------------------------------

#: Relative doc path -> {block name -> producer}.
GENERATED_BLOCKS: dict[str, dict[str, Callable[[], str]]] = {
    "docs/cli.md": {"cli-reference": cli_reference_markdown},
    "docs/obs.md": {"trace-example": trace_example_markdown},
}

_BLOCK_RE = "<!-- generated:{name} start -->\n(.*?)<!-- generated:{name} end -->"


def extract_block(text: str, name: str) -> str | None:
    """The current contents of a generated block, or ``None`` if absent."""
    m = re.search(_BLOCK_RE.format(name=re.escape(name)), text, re.DOTALL)
    return None if m is None else m.group(1)


def inject_block(text: str, name: str, payload: str) -> str:
    """``text`` with the named block's contents replaced by ``payload``."""
    if extract_block(text, name) is None:
        raise ValueError(f"no generated block {name!r} in document")
    return re.sub(
        _BLOCK_RE.format(name=re.escape(name)),
        f"<!-- generated:{name} start -->\n{payload}<!-- generated:{name} end -->",
        text,
        flags=re.DOTALL,
    )


def stale_blocks(root: Path) -> list[str]:
    """Human-readable problems: missing docs, missing blocks, stale blocks."""
    problems: list[str] = []
    for rel, blocks in GENERATED_BLOCKS.items():
        path = root / rel
        if not path.exists():
            problems.append(f"{rel}: file missing")
            continue
        text = path.read_text(encoding="utf-8")
        for name, producer in blocks.items():
            current = extract_block(text, name)
            if current is None:
                problems.append(f"{rel}: generated block {name!r} missing")
            elif current != producer():
                problems.append(
                    f"{rel}: generated block {name!r} is stale "
                    "(run `python -m repro.obs.docgen --write`)"
                )
    return problems


def write_blocks(root: Path) -> list[str]:
    """Regenerate every block in place; returns the files rewritten."""
    changed: list[str] = []
    for rel, blocks in GENERATED_BLOCKS.items():
        path = root / rel
        text = path.read_text(encoding="utf-8")
        new = text
        for name, producer in blocks.items():
            new = inject_block(new, name, producer())
        if new != text:
            path.write_text(new, encoding="utf-8")
            changed.append(rel)
    return changed


# -- markdown link checking ---------------------------------------------------

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")


def iter_markdown_links(text: str) -> Iterator[str]:
    """Every inline link target in ``text`` (images excluded)."""
    inside_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside_fence = not inside_fence
            continue
        if inside_fence:
            continue
        for m in _LINK_RE.finditer(line):
            yield m.group(1)


def broken_links(root: Path, *, subdirs: tuple[str, ...] = ("",)) -> list[str]:
    """Intra-repo links that do not resolve, as ``file: target`` strings.

    External links (``http(s)://``, ``mailto:``) and pure in-page anchors
    are skipped; a ``path#anchor`` link is checked for the path only.
    """
    problems: list[str] = []
    for sub in subdirs:
        base = root / sub if sub else root
        for md in sorted(base.glob("*.md")):
            text = md.read_text(encoding="utf-8")
            for target in iter_markdown_links(text):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{md.relative_to(root)}: {target}")
    return problems


# -- entry point (the CI docs job) --------------------------------------------


def _default_root() -> Path:
    """The repo root: cwd if it holds the docs, else up from this file.

    The src layout puts this module at ``src/repro/obs/docgen.py``, so a
    source checkout's root is three parents up; an installed package has
    no docs tree, and the caller must pass ``--root`` explicitly.
    """
    cwd = Path.cwd().resolve()
    if (cwd / "docs").is_dir() and (cwd / "README.md").exists():
        return cwd
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "docs").is_dir():
        return candidate
    return cwd


def main(argv: list[str] | None = None) -> int:
    """``--check`` verifies blocks + links; ``--write`` regenerates blocks."""
    ap = argparse.ArgumentParser(prog="repro.obs.docgen")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="fail on stale docs")
    mode.add_argument("--write", action="store_true", help="regenerate blocks")
    ap.add_argument(
        "--root", default=None, help="repository root (default: auto-detect)"
    )
    args = ap.parse_args(argv)
    root = Path(args.root).resolve() if args.root else _default_root()
    if args.write:
        changed = write_blocks(root)
        print(
            "regenerated: " + ", ".join(changed) if changed else "all blocks current"
        )
        return 0
    problems = stale_blocks(root)
    problems += [f"broken link — {p}" for p in broken_links(root, subdirs=("", "docs"))]
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs OK: generated blocks current, all intra-repo links resolve")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
