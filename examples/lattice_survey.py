#!/usr/bin/env python3
"""Reproduce Figure 5: classify a history space, draw the memory lattice.

Enumerates every canonical history of a small processors × operations
grid, runs all the paper's checkers over it, verifies the containments of
Figure 5, and prints the measured Hasse diagram (plus a Graphviz DOT dump
you can render with ``dot -Tpng``).

Run:  python examples/lattice_survey.py [procs] [ops_per_proc]

Defaults to the 2×2 grid (210 canonical histories, a couple of seconds).
The 2×3 grid takes minutes — pure-Python checking is the cost of full
generality, as DESIGN.md discusses.
"""

import sys

from repro.analysis import Timer, format_counts
from repro.lattice import (
    FIGURE5_EDGES,
    HistorySpace,
    canonical_histories,
    classify_histories,
    containment_violations,
    empirical_hasse,
    paper_hasse,
    separating_witnesses,
)
from repro.litmus import format_history
from repro.viz import lattice_to_dot, render_lattice

MODELS = ("SC", "TSO", "PC", "Causal", "PRAM", "Coherence")


def main() -> None:
    procs = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    ops = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    space = HistorySpace(procs=procs, ops_per_proc=ops)

    with Timer() as t_enum:
        histories = list(canonical_histories(space))
    print(
        f"{procs} procs x {ops} ops: {len(histories)} canonical histories "
        f"(enumerated in {t_enum.elapsed:.2f}s)"
    )

    with Timer() as t_classify:
        result = classify_histories(histories, MODELS)
    print(f"classified under {len(MODELS)} models in {t_classify.elapsed:.2f}s\n")

    print("allowed-history counts (the Venn-region sizes of Figure 5):")
    print(format_counts(result.counts(), len(histories)))

    violations = containment_violations(result, FIGURE5_EDGES)
    print(f"\nFigure 5 containment violations: {len(violations)} (expect 0)")

    print("\nmeasured lattice (strongest at top):")
    measured = empirical_hasse(result)
    print(render_lattice(measured))
    agrees = set(measured.edges()) >= set(paper_hasse().edges())
    print(f"\ncontains the paper's Figure 5 edges: {agrees}")

    print("\nseparating witnesses found inside the space:")
    for (a, b), w in separating_witnesses(result, FIGURE5_EDGES).items():
        shown = format_history(w, oneline=True) if w else "(none in this space)"
        print(f"  {a} < {b}: {shown}")

    print("\nGraphviz DOT of the measured lattice:\n")
    print(lattice_to_dot(measured))


if __name__ == "__main__":
    main()
