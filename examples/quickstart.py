#!/usr/bin/env python3
"""Quickstart: define a history, ask which memories allow it, inspect views.

This walks the paper's Figure 1 (the store-buffering history) through the
framework's three core operations:

1. write a history in litmus notation,
2. classify it under the paper's memory models,
3. inspect the witness views a positive verdict carries.

Run:  python examples/quickstart.py
"""

from repro import check, classify, parse_history
from repro.viz import render_history, render_views

# Figure 1 of the paper: each processor writes one location, then reads
# the other and sees the initial value 0.
FIG1 = """
p: w(x)1 r(y)0
q: w(y)1 r(x)0
"""


def main() -> None:
    history = parse_history(FIG1)
    print(render_history(history, title="Figure 1 (store buffering):"))

    # Which of the paper's memories allow this history?
    verdicts = classify(history)
    print("\nVerdicts:")
    for model, allowed in verdicts.items():
        print(f"  {model:8s} {'allowed' if allowed else 'NOT allowed'}")

    # SC rejects it: no single legal total order explains both reads.
    sc = check(history, "SC")
    print(f"\nSC says: {sc.reason}")

    # TSO allows it, and the checker exhibits the paper's witness views:
    # each processor sees its own read early, and all views agree on the
    # order of the two writes (mutual consistency).
    tso = check(history, "TSO")
    print("\nTSO witness views (one legal sequence per processor):")
    print(render_views(tso.views))

    shared = [op.uid for op in tso.views["p"].writes_only]
    print(f"\nShared write order in every view: {shared}")


if __name__ == "__main__":
    main()
