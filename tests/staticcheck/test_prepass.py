"""Tests for the polynomial history pre-pass (the DENY battery).

The load-bearing property is soundness: whenever the pre-pass denies, the
kernel denies too.  It is exercised here over the full litmus catalog and
a seeded random sample for every registered spec (the 200-history sweep
lives in ``benchmarks/bench_staticcheck.py``).
"""

import numpy as np
import pytest

from repro.analysis.random_histories import random_history
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG, parse_history
from repro.spec import ALL_SPECS
from repro.staticcheck import compile_prepass, prepass_check

SPECS = {spec.name: spec for spec in ALL_SPECS}


class TestSoundness:
    def test_catalog_decided_matches_kernel(self):
        for test in CATALOG.values():
            for spec in ALL_SPECS:
                verdict = prepass_check(spec, test.history)
                if verdict.decided:
                    assert not check_with_spec(spec, test.history).allowed, (
                        f"{test.name} x {spec.name}: pre-pass DENY "
                        f"({verdict.check}) but the kernel admits"
                    )

    def test_random_histories_decided_matches_kernel(self):
        for seed in range(40):
            h = random_history(
                np.random.default_rng(seed), procs=3, ops_per_proc=4
            )
            for spec in ALL_SPECS:
                verdict = prepass_check(spec, h)
                if verdict.decided:
                    assert not check_with_spec(spec, h).allowed, (
                        f"seed {seed} x {spec.name}: unsound pre-pass DENY "
                        f"({verdict.check}: {verdict.reason})"
                    )


class TestSpecificDenies:
    def test_store_buffering_denied_under_sc(self):
        verdict = prepass_check(SPECS["SC"], CATALOG["fig1-sb"].history)
        assert verdict.decided
        assert verdict.check == "view-cycle"
        assert verdict.counterexample is not None
        assert verdict.counterexample.kind == "cyclic-constraints"

    def test_message_passing_denied_under_sc(self):
        verdict = prepass_check(SPECS["SC"], CATALOG["mp"].history)
        assert verdict.decided
        assert verdict.check == "view-cycle"

    def test_coherence_read_reordering_denied(self):
        # corr needs the from-read edges: reads of x=2 then x=1 against
        # the forced write order w(x)1 -> w(x)2.
        verdict = prepass_check(SPECS["Coherence"], CATALOG["corr"].history)
        assert verdict.decided
        assert verdict.counterexample.proc == "q"

    def test_impossible_value_denied_for_every_spec(self):
        h = parse_history("p: w(x)1 | q: r(x)7")
        for spec in ALL_SPECS:
            verdict = prepass_check(spec, h)
            assert verdict.decided
            assert verdict.check == "rf-sanity"
            assert "never written" in verdict.reason


class TestUnknown:
    def test_ambiguous_attribution_is_unknown(self):
        # Two writers of the same value: the rf attribution is ambiguous,
        # so every check past rf-sanity is skipped.
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        verdict = prepass_check(SPECS["SC"], h)
        assert not verdict.decided
        assert verdict.checks_run == ("rf-sanity",)

    def test_labeled_history_abstains_under_rc(self):
        # Labeled serializations are the NP-hard part: a labeled history
        # under a labeled-discipline spec must fall through to the search.
        h = parse_history("p: w*(x)1 | q: r*(x)1")
        verdict = prepass_check(SPECS["RC_sc"], h)
        assert not verdict.decided

    def test_unknown_to_result_raises(self):
        # Ambiguous attribution keeps the verdict undecided; to_result()
        # on an undecided verdict has nothing to report.
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        verdict = prepass_check(SPECS["SC"], h)
        assert not verdict.decided
        with pytest.raises(ValueError):
            verdict.to_result()

    def test_decided_to_result_is_a_deny(self):
        verdict = prepass_check(SPECS["SC"], CATALOG["fig1-sb"].history)
        result = verdict.to_result()
        assert not result.allowed
        assert result.explored == 0
        assert result.counterexample is not None


class TestCompilation:
    def test_compile_is_cached_per_spec(self):
        spec = SPECS["Causal"]
        assert compile_prepass(spec) is compile_prepass(spec)

    def test_checks_listed_per_spec(self):
        # Coherence-class specs get the write-order cycle check; PRAM
        # (no write agreement) does not.
        assert compile_prepass(SPECS["Coherence"]).checks == (
            "rf-sanity",
            "write-order-cycle",
            "view-cycle",
        )
        assert compile_prepass(SPECS["PRAM"]).checks == ("rf-sanity", "view-cycle")
