"""Tests for the command-line interface (invoked in-process)."""

import pytest

from repro.cli import main


class TestCheck:
    def test_allowed_exits_zero(self, capsys):
        rc = main(["check", "p: w(x)1 r(y)0 | q: w(y)1 r(x)0", "--model", "TSO"])
        assert rc == 0
        assert "TSO: allowed" in capsys.readouterr().out

    def test_rejected_exits_one(self, capsys):
        rc = main(["check", "p: w(x)1 r(y)0 | q: w(y)1 r(x)0", "--model", "SC"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "NOT allowed" in out and "reason:" in out

    def test_views_flag(self, capsys):
        rc = main(["check", "p: w(x)1 | q: r(x)1", "--model", "PRAM", "--views"])
        assert rc == 0
        assert "S_{" in capsys.readouterr().out

    def test_parse_error_exits_two(self, capsys):
        rc = main(["check", "garbage input"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_model_exits_two(self, capsys):
        rc = main(["check", "p: w(x)1", "--model", "Nonsense"])
        assert rc == 2

    def test_unknown_model_suggests_near_miss(self, capsys):
        rc = main(["check", "p: w(x)1", "--model", "ryw"])
        assert rc == 2
        assert "did you mean read-your-writes" in capsys.readouterr().err


class TestCheckStream:
    def _feed(self, monkeypatch, text):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_streams_to_deny(self, capsys, monkeypatch):
        self._feed(monkeypatch, "p: w(x)1\nq: r(x)1\nq: r(x)0\n")
        rc = main(["check", "--stream", "--model", "SC,PRAM"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[1] w_p(x)1  SC=admit  PRAM=admit" in out
        assert "[3] r_q(x)0  SC=DENY  PRAM=DENY" in out
        assert "final: SC=DENY  PRAM=DENY" in out
        assert "-- reuse:" in out

    def test_all_admit_exits_zero(self, capsys, monkeypatch):
        self._feed(monkeypatch, "# comment\np: w(x)1\n\nq: r(x)1\n")
        rc = main(["check", "--stream", "--model", "SC"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[2] r_q(x)1  SC=admit" in out
        assert "final: SC=admit" in out

    def test_seed_history_argument(self, capsys, monkeypatch):
        self._feed(monkeypatch, "p: r(y)7\n")
        rc = main(
            ["check", "--stream", "p: w(x)1 w(x)2 | q: r(x)2 r(x)1"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "seed history: 4 op(s)" in out
        assert "SC=DENY" in out

    def test_bad_line_exits_two(self, capsys, monkeypatch):
        self._feed(monkeypatch, "p: w(x)1\ngarbage\n")
        rc = main(["check", "--stream", "--model", "SC"])
        assert rc == 2
        assert "bad op line" in capsys.readouterr().err

    def test_without_stream_history_required(self, capsys):
        rc = main(["check"])
        assert rc == 2
        assert "required" in capsys.readouterr().err


class TestClassify:
    def test_lists_every_model(self, capsys):
        rc = main(["classify", "p: w(x)1 r(y)0 | q: w(y)1 r(x)0"])
        assert rc == 0
        out = capsys.readouterr().out
        for model in ("SC", "TSO", "PC", "PRAM", "Causal", "Hybrid"):
            assert model in out


class TestCatalog:
    def test_sweep(self, capsys):
        rc = main(["catalog"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig1-sb" in out and "fig4-causal-not-tso" in out

    def test_single_entry_shows_verdicts(self, capsys):
        rc = main(["catalog", "--name", "fig1-sb"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "DIVERGES" not in out

    def test_unknown_entry(self, capsys):
        rc = main(["catalog", "--name", "nope"])
        assert rc == 2


class TestLattice:
    def test_default_run_covers_the_whole_registry(self, capsys):
        rc = main(["lattice"])
        assert rc == 0
        out = capsys.readouterr().out
        # The default panel is registry-derived: every claimed edge of
        # the extended lattice is measured, not just Figure 5's five.
        assert "lattice violations (31 claimed edges): 0" in out
        assert "strongest" in out

    def test_paper_flag_restricts_to_figure5(self, capsys):
        rc = main(["lattice", "--paper"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lattice violations (5 claimed edges): 0" in out

    def test_explicit_model_list(self, capsys):
        rc = main(["lattice", "--models", "SC,TSO,PRAM"])
        assert rc == 0
        assert "claimed edges): 0" in capsys.readouterr().out

    def test_unknown_model_exits_two(self, capsys):
        rc = main(["lattice", "--models", "SC,Bogus"])
        assert rc == 2
        assert "Bogus" in capsys.readouterr().err

    def test_dot_output(self, capsys):
        rc = main(["lattice", "--dot"])
        assert rc == 0
        assert "digraph" in capsys.readouterr().out

    def test_jobs_flag_same_counts(self, capsys):
        rc = main(["lattice", "--jobs", "2", "--paper"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "210 canonical histories" in out
        assert "lattice violations (5 claimed edges): 0" in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestSweep:
    def test_catalog_sweep(self, capsys):
        rc = main(["sweep", "--source", "catalog", "--models", "SC,TSO,PC"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "histories: 17 checked" in out
        assert "cache hit rate" not in out
        assert "allowed counts" in out

    def test_sweep_writes_store(self, capsys, tmp_path):
        out_file = tmp_path / "results.jsonl"
        rc = main(
            ["sweep", "--models", "SC", "--jobs", "2", "--out", str(out_file)]
        )
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert any('"type":"result"' in line for line in lines)
        assert any('"type":"summary"' in line for line in lines)

    def test_sweep_resume_skips(self, capsys, tmp_path):
        out_file = tmp_path / "results.jsonl"
        assert main(["sweep", "--models", "SC", "--out", str(out_file)]) == 0
        capsys.readouterr()
        rc = main(
            ["sweep", "--models", "SC", "--out", str(out_file), "--resume"]
        )
        assert rc == 0
        assert "17 skipped" in capsys.readouterr().out

    def test_resume_without_out_rejected(self, capsys):
        rc = main(["sweep", "--resume"])
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    def test_random_source(self, capsys):
        rc = main(
            ["sweep", "--source", "random", "--models", "SC", "--count", "5",
             "--seed", "1"]
        )
        assert rc == 0
        assert "histories: 5 checked" in capsys.readouterr().out

    def test_unknown_model_exits_two(self, capsys):
        rc = main(["sweep", "--models", "SC,Bogus"])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bad_p_write_exits_two(self, capsys):
        rc = main(["sweep", "--source", "random", "--p-write", "2.0"])
        assert rc == 2
        assert "p_write" in capsys.readouterr().err


class TestFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        rc = main(["fuzz", "--seed", "0", "--count", "20", "--shapes", "tiny,small"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzzed 20 histories" in out
        assert "no discrepancies" in out

    def test_corpus_written_and_resumable(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        args = ["fuzz", "--seed", "0", "--count", "10", "--shapes", "tiny",
                "--corpus", str(corpus)]
        assert main(args) == 0
        assert '"type":"progress"' in corpus.read_text()
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "10 already-checked samples skipped" in capsys.readouterr().out

    def test_resume_without_corpus_rejected(self, capsys):
        rc = main(["fuzz", "--resume"])
        assert rc == 2
        assert "--corpus" in capsys.readouterr().err

    def test_unknown_shape_exits_two(self, capsys):
        rc = main(["fuzz", "--shapes", "nonsense"])
        assert rc == 2
        assert "unknown shape" in capsys.readouterr().err

    def test_jobs_flag_same_verdicts(self, capsys):
        rc = main(["fuzz", "--seed", "2", "--count", "12", "--shapes", "tiny",
                   "--jobs", "2"])
        assert rc == 0
        assert "fuzzed 12 histories" in capsys.readouterr().out


class TestBakery:
    def test_rc_sc_random_runs_clean(self, capsys):
        rc = main(["bakery", "--machine", "rc_sc", "--runs", "10"])
        assert rc == 0
        assert "0/10" in capsys.readouterr().out

    def test_rc_pc_adversarial_violates(self, capsys):
        rc = main(["bakery", "--machine", "rc_pc", "--adversarial"])
        assert rc == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_sc_adversarial_holds(self, capsys):
        rc = main(["bakery", "--machine", "sc", "--adversarial"])
        assert rc == 0
        assert "held" in capsys.readouterr().out


class TestSpectrum:
    def test_frontier_reported(self, capsys):
        rc = main(["spectrum", "p: w(x)1 r(y)0 | q: w(y)1 r(x)0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strength frontier" in out and "TSO" in out

    def test_unsatisfiable_history(self, capsys):
        rc = main(["spectrum", "p: r(x)9"])
        assert rc == 1
        assert "no model allows" in capsys.readouterr().out


class TestModels:
    def test_lists_models(self, capsys):
        rc = main(["models"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SC" in out and "TSO-axiomatic" in out

    def test_descriptions_are_whole_and_aligned(self, capsys):
        from repro.checking import model_names

        assert main(["models"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(model_names())
        tso = next(line for line in lines if line.startswith("TSO "))
        assert "1991)" in tso  # not cut at "et al. "
        # Every description starts in the column after the longest name.
        column = max(map(len, model_names())) + 1
        for line, name in zip(lines, model_names()):
            assert line[:column].rstrip() == name
            assert line[column - 1] == " " and line[column] != " "


class TestLintHistory:
    def test_denied_catalog_entry_exits_one(self, capsys):
        rc = main(["lint", "history", "fig1-sb", "--model", "SC"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DENY" in out and "view-cycle" in out

    def test_undecided_exits_zero(self, capsys):
        # Ambiguous attribution (two candidate sources): no rule decides.
        rc = main(
            ["lint", "history", "p: w(x)1 | q: w(x)1 | r: r(x)1", "--model", "SC"]
        )
        assert rc == 0
        assert "unknown" in capsys.readouterr().out

    def test_admitted_exits_zero(self, capsys):
        # An admitted history has no contradiction; the battery cannot
        # admit, so it reports unknown (the search decides).
        rc = main(["lint", "history", "p: w(x)1 | q: r(x)1", "--model", "SC"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unknown" in out and "DENY" not in out

    def test_all_models_sweep(self, capsys):
        rc = main(["lint", "history", "fig1-sb"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SC" in out and "Causal" in out

    def test_spec_less_model_rejected(self, capsys):
        rc = main(["lint", "history", "fig1-sb", "--model", "TSO-axiomatic"])
        assert rc == 2


class TestLintSpec:
    def test_registry_is_clean(self, capsys):
        rc = main(["lint", "spec"])
        assert rc == 0

    def test_broken_fixtures_exit_one(self, capsys):
        rc = main(["lint", "spec", "--broken-fixtures"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SL001" in out and "BrokenOrdering" in out

    def test_single_spec(self, capsys):
        rc = main(["lint", "spec", "--name", "SC"])
        assert rc == 0
        assert "SC" in capsys.readouterr().out

    def test_unknown_spec_exits_two(self, capsys):
        rc = main(["lint", "spec", "--name", "Nonsense"])
        assert rc == 2


class TestLintProgram:
    def test_clean_program_exits_zero(self, capsys):
        rc = main(["lint", "program", "figure6"])
        assert rc == 0
        assert "properly labeled" in capsys.readouterr().out

    def test_racy_program_exits_one(self, capsys):
        rc = main(["lint", "program", "mislabeled-bakery"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RACE" in out and "choosing" in out

    def test_unknown_program_exits_two(self, capsys):
        rc = main(["lint", "program", "nonsense"])
        assert rc == 2

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "prog.txt"
        path.write_text("x := 1\ny := read x\n")
        rc = main(
            ["lint", "program", "--file", str(path), "--shared", "x"]
        )
        assert rc == 1
        assert "RACE" in capsys.readouterr().out


class TestNoPrepassFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["trace", "fig1-sb", "SC"],
            ["profile"],
            ["serve"],
        ],
        ids=["sweep", "trace", "profile", "serve"],
    )
    def test_removed_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-prepass"])
        assert exc.value.code == 2
        assert "--no-prepass" in capsys.readouterr().err


class TestTrace:
    def test_acceptance_prefix_and_witness_agreement(self, capsys):
        """`trace fig1 TSO` narrates; verdict + views match check_with_spec."""
        from repro.checking import MODELS
        from repro.kernel import check_with_spec
        from repro.litmus import CATALOG

        rc = main(["trace", "fig1", "TSO"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "history (fig1-sb):" in out          # prefix resolved
        assert "Tracing TSO" in out and "Verdict: TSO allowed" in out
        result = check_with_spec(MODELS["TSO"].spec, CATALOG["fig1-sb"].history)
        assert result.allowed
        assert "witness views:" in out
        for view in result.views.values():
            # render_views annotates δ_p (S_{p+w}); compare the sequences.
            assert " ".join(str(op) for op in view) in out

    def test_denied_history_exits_one(self, capsys):
        rc = main(["trace", "fig1-sb", "SC"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "Verdict: SC NOT allowed" in out
        assert "witness views:" not in out

    def test_no_prepass_narrates_the_search_instead(self, capsys):
        rc = main(["trace", "fig1-sb", "SC"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "Static pre-pass" not in out
        assert "common view stuck" in out

    def test_markdown_mode(self, capsys):
        rc = main(["trace", "fig1", "TSO", "--markdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Tracing TSO" in out and "```text" in out

    def test_litmus_text_still_accepted(self, capsys):
        rc = main(["trace", "p: w(x)1 | q: r(x)1", "PRAM"])
        assert rc == 0
        assert "history:" in capsys.readouterr().out

    def test_spec_less_model_exits_two(self, capsys):
        rc = main(["trace", "fig1-sb", "TSO-axiomatic"])
        assert rc == 2
        assert "spec-less" in capsys.readouterr().err

    def test_ambiguous_prefix_is_parsed_as_litmus_and_fails(self, capsys):
        rc = main(["trace", "fig", "SC"])  # several catalog names start with fig
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestProfile:
    def test_two_models_over_the_catalog(self, capsys):
        from repro.litmus import CATALOG

        rc = main(["profile", "--models", "SC,TSO"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"profiled {2 * len(CATALOG)} check(s)" in out
        assert "compile" in out and "search" in out and "total" in out
        assert "prepass" not in out

    def test_counters_and_markdown(self, capsys):
        rc = main(["profile", "--models", "SC", "--counters", "--markdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| model" in out and "node" in out

    def test_repeat_multiplies_checks(self, capsys):
        from repro.litmus import CATALOG

        rc = main(["profile", "--models", "SC", "--repeat", "2"])
        assert rc == 0
        assert f"profiled {2 * len(CATALOG)} check(s)" in capsys.readouterr().out

    def test_unknown_model_exits_two(self, capsys):
        rc = main(["profile", "--models", "Nonsense"])
        assert rc == 2

    def test_bad_repeat_exits_two(self, capsys):
        rc = main(["profile", "--models", "SC", "--repeat", "0"])
        assert rc == 2


class TestCatalogNameResolution:
    def test_check_accepts_catalog_names(self, capsys):
        rc = main(["check", "fig1-sb", "--model", "TSO"])
        assert rc == 0
        assert "TSO: allowed" in capsys.readouterr().out

    def test_classify_accepts_prefixes(self, capsys):
        rc = main(["classify", "iriw"])
        assert rc == 0
        assert "SC" in capsys.readouterr().out
