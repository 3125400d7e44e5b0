"""Graphviz DOT export of order relations and the memory lattice.

No Graphviz binding is required at run time — the functions emit DOT
source text that any external renderer accepts.  Used by the examples to
dump the Figure 5 diagram and the causal/semi-causal orders of witness
histories.  Only :func:`relation_to_dot` needs networkx (for the
transitive reduction), and imports it when called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.operation import Operation
from repro.orders.relation import Relation

if TYPE_CHECKING:
    import networkx

__all__ = ["relation_to_dot", "lattice_to_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def relation_to_dot(
    rel: Relation[Operation],
    *,
    name: str = "relation",
    transitive_reduce: bool = True,
) -> str:
    """DOT digraph of an operation order (optionally transitively reduced).

    Reduction makes closures readable: the paper draws ``->co`` and
    ``->sem`` as their generating edges, not their closures.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(str(op) for op in rel.items)
    g.add_edges_from((str(a), str(b)) for a, b in rel.pairs())
    if transitive_reduce and nx.is_directed_acyclic_graph(g):
        g = nx.transitive_reduction(g)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for node in sorted(g.nodes):
        lines.append(f"  {_quote(node)};")
    for a, b in sorted(g.edges):
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines)


def lattice_to_dot(g: networkx.DiGraph, *, name: str = "figure5") -> str:
    """DOT digraph of a memory-strength Hasse diagram (stronger → weaker)."""
    lines = [f"digraph {name} {{", "  rankdir=TB;", '  node [shape=box];']
    for node in sorted(g.nodes):
        lines.append(f"  {_quote(str(node))};")
    for a, b in sorted(g.edges):
        lines.append(f"  {_quote(str(a))} -> {_quote(str(b))};")
    lines.append("}")
    return "\n".join(lines)
