"""Tests for the oracle panel and its discrepancy rules."""

import dataclasses

import pytest

from repro.core import View
from repro.core.errors import DiffError
from repro.diff import (
    Discrepancy,
    agreed_verdicts,
    find_discrepancies,
    panel_verdicts,
)
from repro.litmus import parse_history

SB = parse_history("p: w(x)1 r(y)0 | q: w(y)2 r(x)0")  # store-buffer: TSO, not SC
TRIVIAL = parse_history("p: w(x)1 | q: r(x)1")


def _row(fast, kernel=None, definitional=None, prepass_deny=False):
    """A synthetic spec-backed panel row (kernel/definitional default to fast)."""
    return {
        "fast": fast,
        "kernel": fast if kernel is None else kernel,
        "definitional": fast if definitional is None else definitional,
        "prepass_deny": prepass_deny,
    }


class TestPanelVerdicts:
    def test_all_oracles_agree_on_store_buffer(self):
        panel = panel_verdicts(SB, ("SC", "TSO", "PC", "Causal", "PRAM"))
        for name, verdicts in panel.items():
            assert verdicts["fast"] == verdicts["kernel"] == verdicts["definitional"]
        agreed = agreed_verdicts(panel)
        assert agreed == {
            "SC": False, "TSO": True, "PC": True, "Causal": True, "PRAM": True
        }

    def test_spec_less_model_gets_only_fast(self):
        panel = panel_verdicts(TRIVIAL, ("TSO-axiomatic",))
        assert set(panel["TSO-axiomatic"]) == {"fast"}

    def test_prepass_deny_only_on_denied_histories(self):
        # prepass is sound for DENY: it may only fire when the kernel denies.
        panel = panel_verdicts(SB, ("SC",))
        assert panel["SC"]["prepass_deny"] in (True, False)
        if panel["SC"]["prepass_deny"]:
            assert not panel["SC"]["kernel"]

    def test_unknown_model_rejected(self):
        with pytest.raises(DiffError, match="unknown model"):
            panel_verdicts(TRIVIAL, ("Nonsense",))

    def test_definitional_absent_above_the_cap(self):
        from repro.checking.definitional import DEFINITIONAL_MAX_OPS

        big = parse_history(
            "p: " + " ".join(f"w(x){i}" for i in range(1, DEFINITIONAL_MAX_OPS + 1))
            + " | q: r(x)1"
        )
        assert "definitional" in panel_verdicts(SB, ("TSO",))["TSO"]
        assert "definitional" not in panel_verdicts(big, ("TSO",))["TSO"]

    def test_witness_checked_on_unambiguous_admits_only(self):
        panel = panel_verdicts(SB, ("SC", "TSO"))
        assert "witness_ok" not in panel["SC"]  # a DENY has no witness
        assert panel["TSO"]["witness_ok"] is True
        ambiguous = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        assert "witness_ok" not in panel_verdicts(ambiguous, ("TSO",))["TSO"]

    def test_incremental_oracle_matches_kernel(self):
        panel = panel_verdicts(SB, ("SC", "TSO"))
        for name, verdicts in panel.items():
            assert verdicts["incremental"] == verdicts["kernel"], name
            assert verdicts["incremental_prefix_ok"] is True, name


class TestAgreedVerdicts:
    def test_kernel_wins(self):
        panel = {"SC": _row(fast=True, kernel=False)}
        assert agreed_verdicts(panel) == {"SC": False}

    def test_fast_fallback_for_spec_less(self):
        panel = {"TSO-axiomatic": {"fast": True}}
        assert agreed_verdicts(panel) == {"TSO-axiomatic": True}


class TestFindDiscrepancies:
    def test_clean_panel_yields_nothing(self):
        assert find_discrepancies(panel_verdicts(SB, ("SC", "TSO", "PRAM"))) == []

    def test_oracle_disagreement(self):
        panel = {"SC": _row(fast=True, definitional=False)}
        (d,) = find_discrepancies(panel)
        assert d.kind == "oracle-disagreement"
        assert d.models == ("SC",)
        assert "definitional=DENY" in d.detail and "fast=ADMIT" in d.detail

    def test_invalid_witness(self, monkeypatch):
        # A kernel whose witness swaps q's two writes: still legal, still
        # an ADMIT, but the views no longer agree on the write order.
        from repro.diff import oracles

        real = oracles.check_with_spec

        def bad_witness(spec, history):
            result = real(spec, history)
            if history is not SB:  # leave the incremental replay alone
                return result
            views = dict(result.views)
            q = list(views["q"])
            views["q"] = View("q", [op for op in q if not op.is_write]
                              + [op for op in q if op.is_write][::-1], validate=False)
            return dataclasses.replace(result, views=views)

        monkeypatch.setattr(oracles, "check_with_spec", bad_witness)
        panel = panel_verdicts(SB, ("TSO",))
        assert panel["TSO"]["kernel"] and panel["TSO"]["witness_ok"] is False
        (d,) = find_discrepancies(panel)
        assert d.kind == "invalid-witness"
        assert d.models == ("TSO",)

    def test_prepass_unsound(self):
        panel = {"SC": _row(fast=True, prepass_deny=True)}
        (d,) = find_discrepancies(panel)
        assert d.kind == "prepass-unsound"

    def test_prepass_deny_on_denied_history_is_fine(self):
        panel = {"SC": _row(fast=False, prepass_deny=True)}
        assert find_discrepancies(panel) == []

    def test_incremental_disagreement(self):
        panel = {"SC": dict(_row(fast=True), incremental=False)}
        (d,) = find_discrepancies(panel)
        assert d.kind == "oracle-disagreement"
        assert "incremental=DENY" in d.detail

    def test_incremental_divergence(self):
        # Final verdicts agree, but some streamed prefix diverged from a
        # fresh check of the same prefix.
        panel = {
            "SC": dict(
                _row(fast=False), incremental=False, incremental_prefix_ok=False
            )
        }
        (d,) = find_discrepancies(panel)
        assert d.kind == "incremental-divergence"
        assert d.models == ("SC",)

    def test_lattice_violation(self):
        # SC-admitted but TSO-denied contradicts SC ⊆ TSO (Figure 5).
        panel = {"SC": _row(fast=True), "TSO": _row(fast=False)}
        (d,) = find_discrepancies(panel)
        assert d.kind == "lattice-violation"
        assert d.models == ("SC", "TSO")

    def test_lattice_direction_matters(self):
        # TSO-admitted, SC-denied is the *expected* strictness, not a bug.
        panel = {"SC": _row(fast=False), "TSO": _row(fast=True)}
        assert find_discrepancies(panel) == []

    def test_edge_skipped_when_model_absent(self):
        panel = {"SC": _row(fast=True)}  # TSO not consulted
        assert find_discrepancies(panel) == []

    def test_machine_unsound(self):
        panel = {"SC": _row(fast=False)}
        (d,) = find_discrepancies(panel, machine_model="SC")
        assert d.kind == "machine-unsound"
        assert d.models == ("SC",)

    def test_machine_model_admitting_is_fine(self):
        panel = {"SC": _row(fast=True)}
        assert find_discrepancies(panel, machine_model="SC") == []

    def test_machine_model_missing_from_panel_rejected(self):
        with pytest.raises(DiffError, match="missing from the panel"):
            find_discrepancies({"SC": _row(fast=True)}, machine_model="PC")


class TestDiscrepancy:
    def test_key_is_kind_and_models(self):
        d = Discrepancy("oracle-disagreement", ("SC",), "detail")
        assert d.key == ("oracle-disagreement", ("SC",))

    def test_render_names_kind_and_models(self):
        d = Discrepancy("lattice-violation", ("SC", "TSO"), "broken edge")
        assert d.render() == "[lattice-violation] SC/TSO: broken edge"
