"""The checked-in seed corpus, replayed as tier-1 regression fixtures.

Every ``litmus`` record of ``data/seed_corpus.jsonl`` is a fuzz-found,
shrunk-to-minimal history whose agreed verdict vector was locked when it
was harvested (``repro.diff.fuzz.harvest_fixtures``).  Replaying them pins
the whole oracle panel: any drift — a fast path diverging from the kernel,
the definitional oracle diverging from either, an invalid kernel
witness, a prepass soundness break, a Figure 5 lattice violation —
fails here before a fuzz campaign ever runs.

Regenerate after an *intended* semantics change with
``tools/regen_seed_corpus.py`` (which fuzz-harvests a witness per lattice
edge over the full spec-backed panel and falls back to the speclint
family probes for the patterns random sampling rarely hits).
"""

from pathlib import Path

import pytest

from repro.diff import (
    CORPUS_VERSION,
    SEPARATOR_PATTERNS,
    DiscrepancyCorpus,
    agreed_verdicts,
    find_discrepancies,
    panel_verdicts,
)
CORPUS_PATH = Path(__file__).parent / "data" / "seed_corpus.jsonl"


@pytest.fixture(scope="module")
def corpus():
    assert CORPUS_PATH.exists(), "seed corpus missing from the repository"
    return DiscrepancyCorpus(CORPUS_PATH)


class TestSeedCorpus:
    def test_header_matches_current_format(self, corpus):
        headers = [r for r in corpus.records() if r.get("type") == "run"]
        assert headers and headers[0]["corpus_version"] == CORPUS_VERSION

    def test_covers_every_separator_pattern(self, corpus):
        keys = {key for key, _, _ in corpus.litmus_entries()}
        assert keys == {f"separator:{label}" for label, _, _ in SEPARATOR_PATTERNS}

    def test_fixtures_replay_clean_with_locked_verdicts(self, corpus):
        # Each entry replays under the panel its verdicts were locked
        # over (the keys of ``expected``), so fixtures harvested over the
        # full registry pin every model they consulted, not just the
        # paper's five.
        entries = corpus.litmus_entries()
        assert entries
        for key, history, expected in entries:
            panel = panel_verdicts(history, tuple(expected))
            assert find_discrepancies(panel) == [], key
            assert agreed_verdicts(panel) == expected, key

    def test_fixtures_witness_their_separation(self, corpus):
        # Each separator fixture must actually separate its two models.
        by_label = {label: (admit, deny) for label, admit, deny in SEPARATOR_PATTERNS}
        for key, _, expected in corpus.litmus_entries():
            admit, deny = by_label[key.removeprefix("separator:")]
            assert expected[admit] is True, key
            assert expected[deny] is False, key
