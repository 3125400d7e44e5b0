"""Tests for the differential-fuzzing campaign driver."""

import pytest

from repro.core.errors import DiffError
from repro.diff import DiscrepancyCorpus, FuzzConfig, run_fuzz
from repro.diff import fuzz as fuzz_module
from repro.diff.oracles import panel_verdicts


class TestFuzzConfig:
    def test_zero_count_rejected(self):
        with pytest.raises(DiffError, match="count"):
            FuzzConfig(count=0)

    def test_unknown_model_rejected(self):
        with pytest.raises(DiffError, match="unknown model"):
            FuzzConfig(models=("SC", "Bogus"))
        with pytest.raises(DiffError, match="did you mean read-your-writes"):
            FuzzConfig(models=("ryw",))

    def test_unknown_shape_rejected(self):
        with pytest.raises(DiffError, match="unknown shape"):
            FuzzConfig(shapes=("nonsense",))

    def test_describe_resolves_shapes(self):
        desc = FuzzConfig(shapes=("tiny", "deep")).describe()
        assert desc["shapes"] == ["tiny", "deep"]


class TestCleanCampaign:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(FuzzConfig(seed=0, count=20, shapes=("tiny", "small")))
        assert report.clean
        assert report.checked == 20
        assert report.per_shape == {"tiny": 10, "small": 10}
        assert "no discrepancies" in report.render()

    def test_deterministic(self):
        config = FuzzConfig(seed=3, count=10, shapes=("tiny",))
        a, b = run_fuzz(config), run_fuzz(config)
        assert a.checked == b.checked and a.findings == b.findings

    def test_quota_remainder_goes_to_earlier_shapes(self):
        report = run_fuzz(FuzzConfig(seed=0, count=5, shapes=("tiny", "small")))
        assert report.per_shape == {"tiny": 3, "small": 2}


class TestResume:
    def test_resume_skips_checked_samples(self, tmp_path):
        config = FuzzConfig(seed=0, count=12, shapes=("tiny", "small"))
        path = tmp_path / "c.jsonl"
        with DiscrepancyCorpus(path) as corpus:
            first = run_fuzz(config, corpus=corpus)
        assert first.checked == 12
        with DiscrepancyCorpus(path) as corpus:
            second = run_fuzz(config, corpus=corpus, resume=True)
        assert second.checked == 0
        assert second.skipped == 12

    def test_resume_without_corpus_rejected(self):
        with pytest.raises(DiffError, match="corpus"):
            run_fuzz(FuzzConfig(count=1), resume=True)


class TestInjectedDiscrepancy:
    """End-to-end on a *forced* bug: the real panel is clean, so the
    finding/shrinking/recording path is exercised by lying about the
    legacy solver's verdict on SC."""

    @pytest.fixture
    def lying_panel(self, monkeypatch):
        def _panel(history, models):
            panel = panel_verdicts(history, models)
            row = panel.get("SC")
            if row is not None and "legacy" in row:
                row["legacy"] = not row["kernel"]
            return panel

        monkeypatch.setattr(fuzz_module, "panel_verdicts", _panel)

    def test_finding_shrunk_and_recorded(self, lying_panel, tmp_path):
        path = tmp_path / "c.jsonl"
        config = FuzzConfig(seed=0, count=3, shapes=("tiny",), models=("SC",))
        with DiscrepancyCorpus(path) as corpus:
            report = run_fuzz(config, corpus=corpus)
        assert not report.clean
        assert len(report.findings) == 3
        for finding in report.findings:
            assert finding.discrepancy.kind == "oracle-disagreement"
            assert finding.discrepancy.models == ("SC",)
            # The lie survives any deletion, so the witness is 1-minimal.
            assert len(finding.minimal_history.operations) == 1
            assert finding.trace  # kernel trace attached
        records = DiscrepancyCorpus(path).discrepancies()
        assert len(records) == 3
        assert all(r["kind"] == "oracle-disagreement" for r in records)
        assert all("shrunk" in r for r in records)
        assert "DISCREPANCY" in report.render()

    def test_no_shrink_keeps_original(self, lying_panel):
        config = FuzzConfig(
            seed=0, count=2, shapes=("tiny",), models=("SC",), shrink=False
        )
        report = run_fuzz(config)
        for finding in report.findings:
            assert finding.shrunk is None
            assert finding.minimal_history == finding.history


class TestHarvestFixtures:
    def test_fixtures_validate_on_replay(self):
        from repro.diff import harvest_fixtures
        from repro.diff.oracles import agreed_verdicts, find_discrepancies

        config = FuzzConfig(seed=0, count=60, shapes=("tiny", "small"))
        fixtures = harvest_fixtures(config)
        assert fixtures  # tiny/small strata separate at least one edge
        for key, history, expected, origin in fixtures:
            assert key.startswith("separator:")
            assert "fuzz(seed=0" in origin
            panel = panel_verdicts(history, config.models)
            assert find_discrepancies(panel) == []
            assert agreed_verdicts(panel) == expected
