"""Tests for the checker registry and the classify entry point."""

import pytest

from repro.checking import (
    MODELS,
    PAPER_MODELS,
    check,
    classify,
    get_model,
    model_names,
    resolve_models,
)
from repro.core import CheckerError
from repro.litmus import parse_history
from repro.spec import spec_names


class TestRegistry:
    def test_paper_models_registered(self):
        for name in PAPER_MODELS:
            assert name in MODELS

    def test_model_names_complete(self):
        names = model_names()
        for expected in (
            "SC", "TSO", "PC", "PRAM", "Causal", "Coherence",
            "RC_sc", "RC_pc", "PC-G", "CoherentCausal", "TSO-axiomatic",
        ):
            assert expected in names

    def test_unknown_model_raises(self):
        h = parse_history("p: w(x)1")
        with pytest.raises(CheckerError):
            check(h, "bogus")

    def test_axiomatic_tso_has_no_spec(self):
        m = MODELS["TSO-axiomatic"]
        assert m.spec is None
        with pytest.raises(CheckerError):
            m.check_generic(parse_history("p: w(x)1"))

    def test_allows_shortcut(self, fig1):
        assert MODELS["TSO"].allows(fig1)
        assert not MODELS["SC"].allows(fig1)

    def test_models_are_the_specs(self):
        assert {n for n, m in MODELS.items() if m.spec} == set(spec_names())
        for n, m in MODELS.items():
            if m.spec is not None:
                assert m.spec.name == n

    def test_model_names_order_is_pinned(self):
        # Sweep specs, `repro classify` and the docs depend on this order.
        assert model_names() == (
            "SC", "TSO", "PC", "PRAM", "Causal", "Coherence", "RC_sc",
            "RC_pc", "PC-G", "CoherentCausal", "Hybrid", "Slow",
            "TSO-axiomatic", "read-your-writes", "monotonic-reads",
            "monotonic-writes", "writes-follow-reads", "session-causal",
            "partition-2", "partition-3",
        )

    def test_fast_paths_only_where_they_pay(self):
        fast = {n for n, m in MODELS.items() if m.fast is not None}
        assert fast == {"TSO", "TSO-axiomatic"}


class TestLookup:
    def test_get_model_exact_name(self):
        assert get_model("PC-G") is MODELS["PC-G"]

    def test_unknown_name_suggests_near_misses(self):
        with pytest.raises(CheckerError, match="did you mean read-your-writes"):
            get_model("ryw")
        with pytest.raises(CheckerError, match="did you mean SC"):
            check(parse_history("p: w(x)1"), "sc")

    def test_spec_only_rejects_the_axiomatic_reference(self):
        with pytest.raises(CheckerError, match="spec-less"):
            get_model("TSO-axiomatic", spec_only=True)
        with pytest.raises(CheckerError, match="spec-less"):
            resolve_models("SC,TSO-axiomatic", spec_only=True)

    def test_aliases(self):
        assert resolve_models(None) == resolve_models("paper") == PAPER_MODELS
        assert resolve_models("all") == model_names()
        assert resolve_models("spec") == spec_names()
        assert resolve_models("all", spec_only=True) == spec_names()

    def test_comma_lists_and_sequences(self):
        assert resolve_models("SC, TSO,") == ("SC", "TSO")
        assert resolve_models(["PC-G"]) == ("PC-G",)

    def test_bad_selections(self):
        with pytest.raises(CheckerError, match="at least one model"):
            resolve_models("")
        with pytest.raises(CheckerError, match="bad model set"):
            resolve_models(7)
        with pytest.raises(CheckerError, match="unknown model 'Bogus'"):
            resolve_models("SC,Bogus")


class TestClassify:
    def test_default_models(self, fig1):
        verdicts = classify(fig1)
        assert set(verdicts) == set(PAPER_MODELS)
        assert verdicts == {
            "SC": False, "TSO": True, "PC": True, "Causal": True, "PRAM": True,
        }

    def test_custom_model_list(self, fig3):
        verdicts = classify(fig3, ("PRAM", "Coherence"))
        assert verdicts == {"PRAM": True, "Coherence": False}
