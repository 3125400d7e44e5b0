"""ASCII rendering of histories, views, and the memory lattice.

The paper presents everything as small typeset figures; these helpers
render the same artifacts on a terminal — histories in the row-per-
processor layout of Figures 1-4, witness views in the ``S_{p+w}: …``
notation of Section 3, and the Figure 5 lattice as layered text.
Only :func:`render_lattice` needs networkx, and imports it when called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.core.history import SystemHistory
from repro.core.view import View
from repro.litmus.dsl import format_history

if TYPE_CHECKING:
    import networkx

__all__ = ["render_history", "render_views", "render_lattice", "render_verdicts"]


def render_history(history: SystemHistory, *, title: str = "") -> str:
    """The row-per-processor layout of the paper's figures."""
    body = format_history(history)
    return f"{title}\n{body}" if title else body


def render_views(views: Mapping, *, indent: str = "  ") -> str:
    """Witness views in the paper's ``S_{p}: op op op`` notation."""
    lines = []
    for proc in sorted(views, key=str):
        view: View = views[proc]
        ops = " ".join(str(op) for op in view)
        lines.append(f"{indent}S_{{{proc}+w}}: {ops}")
    return "\n".join(lines)


def render_lattice(g: networkx.DiGraph) -> str:
    """Layered rendering of a Hasse diagram (strongest models on top).

    Matches the paper's Figure 5 reading: a model is contained in (allows
    fewer histories than) everything connected below it.
    """
    import networkx as nx

    lines = ["strongest"]
    for layer in nx.topological_generations(g):
        names = "   ".join(sorted(layer))
        lines.append(f"   {names}")
        edges = sorted(
            (a, b) for a, b in g.edges() if a in layer
        )
        if edges:
            lines.append(
                "   " + "  ".join(f"{a}->{b}" for a, b in edges)
            )
    lines.append("weakest")
    return "\n".join(lines)


def render_verdicts(
    name: str,
    verdicts: Mapping[str, bool],
    expected: Mapping[str, bool] | None = None,
) -> str:
    """One-line verdict summary, flagging divergence from the paper."""
    cells = []
    for model in verdicts:
        mark = "Y" if verdicts[model] else "N"
        if expected is not None and model in expected and expected[model] != verdicts[model]:
            mark += "(!)"
        cells.append(f"{model}={mark}")
    return f"{name}: " + " ".join(cells)
