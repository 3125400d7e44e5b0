"""Catalog of litmus histories: the paper's figures plus the classics.

Each entry is a named history with the expected verdict per model, so the
test suite and the figure benchmarks can iterate the catalog.  ``None`` in
``expected`` means the paper takes no stance for that model (we still
record our measured verdict in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.core.history import SystemHistory
from repro.litmus.dsl import parse_history

__all__ = ["LitmusTest", "CATALOG", "get_test", "paper_figures", "catalog_names"]


@dataclass(frozen=True)
class LitmusTest:
    """A named litmus history with per-model expected verdicts."""

    name: str
    text: str
    expected: Mapping[str, bool]
    source: str = ""

    @cached_property
    def history(self) -> SystemHistory:
        """The parsed history, parsed on first access and then shared.

        A :class:`SystemHistory` is immutable, so every caller can hold
        the same instance.
        """
        return parse_history(self.text)


def _t(name: str, text: str, expected: dict[str, bool], source: str = "") -> LitmusTest:
    return LitmusTest(name=name, text=text, expected=expected, source=source)


CATALOG: dict[str, LitmusTest] = {
    t.name: t
    for t in (
        # ---- the paper's own figures -------------------------------------------
        _t(
            "fig1-sb",
            "p: w(x)1 r(y)0 | q: w(y)1 r(x)0",
            {
                "SC": False,
                "TSO": True,
                "PC": True,
                "Causal": True,
                "PRAM": True,
                "Coherence": True,
            },
            source="Paper Figure 1: TSO execution history (store-buffering shape)",
        ),
        _t(
            "fig2-pc-not-tso",
            "p: w(x)1 | q: r(x)1 w(y)1 | r: r(y)1 r(x)0",
            {
                "SC": False,
                "TSO": False,
                "PC": True,
                "PRAM": True,
                "Coherence": True,
            },
            source="Paper Figure 2: a PC execution history that is not TSO",
        ),
        _t(
            "fig3-pram-not-tso",
            "p: w(x)1 r(x)1 r(x)2 | q: w(x)2 r(x)2 r(x)1",
            {
                "SC": False,
                "TSO": False,
                "PC": False,
                "Causal": True,  # no mutual consistency: per-location disagreement is fine
                "PRAM": True,
                "Coherence": False,
                "TSO-axiomatic": False,
            },
            source="Paper Figure 3: PRAM history that is not allowed by TSO "
            "(each processor sees its own write first)",
        ),
        _t(
            "fig4-causal-not-tso",
            "p: w(x)1 w(y)1 | q: r(y)1 w(z)1 r(x)2 | r: w(x)2 r(x)1 r(z)1 r(y)1",
            {
                "SC": False,
                "TSO": False,
                "Causal": True,
                "PRAM": True,
            },
            source="Paper Figure 4: causal history that is not allowed by TSO",
        ),
        # ---- classic shapes used by the lattice experiment ----------------------
        _t(
            "mp",  # message passing
            "p: w(x)1 w(y)1 | q: r(y)1 r(x)0",
            {
                "SC": False,
                "TSO": False,
                "PC": False,
                "Causal": False,
                "PRAM": False,
                "Coherence": True,
            },
            source="Message-passing: stale data after observing the flag; "
            "forbidden by everything that preserves write order, allowed by "
            "plain coherence",
        ),
        _t(
            "mp-ok",
            "p: w(x)1 w(y)1 | q: r(y)1 r(x)1",
            {
                "SC": True,
                "TSO": True,
                "PC": True,
                "Causal": True,
                "PRAM": True,
            },
            source="Message-passing, consistent outcome: allowed everywhere",
        ),
        _t(
            "iriw",
            "p: w(x)1 | q: w(y)1 | r: r(x)1 r(y)0 | s: r(y)1 r(x)0",
            {
                "SC": False,
                "TSO": False,
                "PC": True,
                "Causal": True,
                "PRAM": True,
            },
            source="Independent reads of independent writes: readers disagree "
            "on the order of two unrelated writes",
        ),
        _t(
            "wrc",
            "p: w(x)1 | q: r(x)1 w(y)1 | r: r(y)1 r(x)0",
            {
                "SC": False,
                "TSO": False,
                "Causal": False,
                "PRAM": True,
            },
            source="Write-to-read causality: transitive visibility violation "
            "(PRAM-only; the causal order forbids it)",
        ),
        _t(
            "corr",
            "p: w(x)1 w(x)2 | q: r(x)2 r(x)1",
            {
                "SC": False,
                "TSO": False,
                "PC": False,
                "Causal": False,
                "PRAM": False,
                "Coherence": False,
            },
            source="Coherence of read-read: observing one processor's writes "
            "out of program order is forbidden even by PRAM",
        ),
        _t(
            "sb-fwd",
            "p: w(x)1 r(x)1 r(y)0 | q: w(y)1 r(y)1 r(x)0",
            {
                "SC": False,
                "TSO": False,  # the paper's ppo forbids reading own write early
                "PC": True,
                "PRAM": True,
                "TSO-axiomatic": True,  # hardware store-forwarding allows it
            },
            source="Store-buffering with own-write reads: separates the "
            "paper's TSO characterization from hardware (axiomatic) TSO",
        ),
        _t(
            "2+2w-observed",
            "p: w(x)1 w(y)2 | q: w(y)1 w(x)2 | r: r(x)1 r(y)1 | s: r(y)2 r(x)2",
            {
                "SC": True,  # interleaving w(y)1 w(x)1 [r] w(y)2 w(x)2 [s]
                "TSO": True,
                "PRAM": True,
            },
            source="2+2W with observers: both observations are serializable, "
            "a sanity entry guarding against over-strict checkers",
        ),
        _t(
            "coww-cross",
            "p: w(x)1 w(y)2 | q: w(y)1 w(x)2 | r: r(x)2 r(x)1 | s: r(y)2 r(y)1",
            {
                "SC": False,  # r sees x2 before x1; forces w(x)2 < w(x)1, so
                # q finished before p wrote x; but s sees y2 before y1, the
                # mirror-image constraint — unsatisfiable in one total order
                "TSO": False,
                "Coherence": True,  # coherence drops the cross-location po edges
                "PRAM": True,
                "Causal": True,
            },
            source="Crossed write-order observation: each observer sees one "
            "location's writes in the order opposite to program-order needs",
        ),
        _t(
            "lb",  # load buffering
            "p: r(x)1 w(y)2 | q: r(y)2 w(x)1",
            {
                "SC": False,
                "TSO": False,  # reads cannot be satisfied by later writes
                "PC": True,  # semi-causality tolerates the mutual-future loop
                "Causal": False,  # wb ∪ po is cyclic
                "PRAM": True,
                "Coherence": True,
                "Slow": True,
            },
            source="Load buffering: each processor reads the value the "
            "other writes afterwards; separates the causality-aware models "
            "(SC/TSO/causal reject) from the rest",
        ),
        _t(
            "r-shape",
            "p: w(x)1 w(y)2 | q: w(y)3 r(x)0",
            {
                "SC": True,  # serialize q entirely before p
                "TSO": True,
                "PRAM": True,
                "Causal": True,
            },
            source="The R shape resolves: q can run entirely before p, so "
            "every model allows it (sanity entry)",
        ),
        _t(
            "pcg-not-pcd",
            "p: r(y)5 w(x)2 w(x)3 | q: r(x)3 w(y)5",
            {
                "SC": False,
                "PC-G": True,
                "PC": False,
                "PRAM": True,
                "Coherence": True,
                "Causal": False,
            },
            source="Separates Goodman PC from DASH PC (paper Section 3.3 "
            "citing Ahamad et al. [2]): a mutual-future-read loop that "
            "PRAM+coherence tolerates but semi-causality rejects",
        ),
        _t(
            "pcd-not-pcg",
            "p: w(y)1 r(x)0 w(y)3 | q: w(x)4 w(y)5 r(y)1",
            {
                "SC": False,
                "PC-G": False,
                "PC": True,
                "TSO": True,  # so TSO ⊄ PC-G: ppo drops p's w(y)1 -> r(x)0
                "PRAM": True,
                "Coherence": True,
                "Causal": True,
            },
            source="The other direction of Section 3.3's incomparability: "
            "with coherence order y5 < y1, q can read y=1 after its own "
            "y=5; serializing p's view then needs its r(x)0 to bypass its "
            "earlier w(y)1 — allowed by DASH PC's ppo, forbidden by "
            "PC-G's full program order",
        ),
        _t(
            "dekker-ok",
            "p: w(x)1 r(y)1 | q: w(y)1 r(x)1",
            {
                "SC": True,
                "TSO": True,
                "PRAM": True,
            },
            source="Store-buffering, consistent outcome: allowed everywhere",
        ),
    )
}


def get_test(name: str) -> LitmusTest:
    """Look a litmus test up by name.

    Raises
    ------
    KeyError
        If no test of that name exists.
    """
    return CATALOG[name]


def paper_figures() -> tuple[LitmusTest, ...]:
    """The tests corresponding to the paper's Figures 1-4."""
    return tuple(CATALOG[n] for n in ("fig1-sb", "fig2-pc-not-tso", "fig3-pram-not-tso", "fig4-causal-not-tso"))


def catalog_names() -> tuple[str, ...]:
    """All catalog entry names."""
    return tuple(CATALOG)
