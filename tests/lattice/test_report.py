"""Tests for the markdown lattice report."""

from repro.lattice import (
    HistorySpace,
    canonical_histories,
    classify_histories,
    lattice_report,
)


def small_result():
    hs = canonical_histories(HistorySpace(procs=2, ops_per_proc=2))
    return classify_histories(hs, ("SC", "TSO", "PC", "Causal", "PRAM"))


class TestLatticeReport:
    def test_sections_present(self):
        report = lattice_report(small_result())
        for heading in (
            "# Memory-model lattice survey",
            "## Allowed-history counts",
            "## Claimed containments",
            "## Pairwise containment matrix",
            "## Measured Hasse diagram",
        ):
            assert heading in report

    def test_counts_rendered(self):
        report = lattice_report(small_result())
        assert "| SC | 140 | 66.7% |" in report

    def test_all_claims_hold(self):
        report = lattice_report(small_result())
        assert "**NO**" not in report
        assert report.count("| yes |") >= 5

    def test_witnesses_inlined(self):
        report = lattice_report(small_result())
        assert "yes — `" in report  # at least one inline witness

    def test_matrix_diagonal(self):
        report = lattice_report(small_result())
        assert "·" in report and "✓" in report and "✗" in report

    def test_custom_title(self):
        report = lattice_report(small_result(), title="My survey")
        assert report.startswith("# My survey")

    def test_cli_report_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        rc = main(["lattice", "--report", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# Memory-model lattice survey")
