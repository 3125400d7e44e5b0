#!/usr/bin/env python3
"""Design a new memory from the paper's three parameters (Section 7).

The paper's concluding remark suggests building new memories by
recombining the characterization parameters — "a mutual consistency
condition that requires coherence can be added to causal memory".  This
script does exactly that with the declarative spec API, then situates the
new memory empirically: which catalog histories it allows, and where it
falls relative to the established models.

Run:  python examples/design_new_memory.py
"""

from repro.checking import check
from repro.kernel import check_with_spec
from repro.lattice import (
    HistorySpace,
    canonical_key,
    classify_histories,
    enumerate_histories,
)
from repro.litmus import CATALOG
from repro.spec import (
    CAUSAL,
    MemoryModelSpec,
    MutualConsistency,
    OperationSet,
)


def build_spec() -> MemoryModelSpec:
    """Causal memory + coherence, assembled from the three parameters."""
    return MemoryModelSpec(
        name="MyCoherentCausal",
        operation_set=OperationSet.REMOTE_WRITES,      # parameter 1: δ_p = w
        mutual_consistency=MutualConsistency.COHERENCE,  # parameter 2
        ordering=CAUSAL,                                # parameter 3: (po ∪ wb)+
        description="Example of Section 7's recipe, built by this script.",
    )


def main() -> None:
    spec = build_spec()
    print(f"new memory: {spec}\n")

    print("verdicts on the paper's figures (vs. plain causal memory):")
    for name in ("fig1-sb", "fig2-pc-not-tso", "fig3-pram-not-tso", "fig4-causal-not-tso", "mp", "corr"):
        h = CATALOG[name].history
        mine = check_with_spec(spec, h).allowed
        plain = check(h, "Causal").allowed
        marker = "  <- coherence bites" if mine != plain else ""
        print(f"  {name:22s} new={str(mine):5s} causal={str(plain):5s}{marker}")

    # Locate it in the lattice over the canonical 2x2 space.
    space = HistorySpace(procs=2, ops_per_proc=2)
    seen, histories = set(), []
    for h in enumerate_histories(space):
        k = canonical_key(h)
        if k not in seen:
            seen.add(k)
            histories.append(h)
    result = classify_histories(histories, ("SC", "TSO", "Causal", "Coherence", "PRAM"))
    mine_allowed = {
        i for i, h in enumerate(histories) if check_with_spec(spec, h).allowed
    }
    print(f"\nover {len(histories)} canonical histories it allows {len(mine_allowed)}:")
    for other in result.models:
        below = mine_allowed <= result.allowed[other]
        above = result.allowed[other] <= mine_allowed
        relation = {
            (True, True): "equivalent to",
            (True, False): "strictly stronger than" if mine_allowed != result.allowed[other] else "within",
            (False, True): "strictly weaker than",
            (False, False): "incomparable with",
        }[(below, above)]
        print(f"  {relation:24s} {other}")


if __name__ == "__main__":
    main()
