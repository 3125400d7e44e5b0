"""Tests for the generic solver's machinery: budgets, ambiguity, results."""

import pytest

from repro.kernel import SearchBudget, check_with_spec
from repro.core import CheckerError
from repro.litmus import parse_history
from repro.spec import CAUSAL_SPEC, PRAM_SPEC, SC_SPEC, TSO_SPEC, get_spec


class TestResults:
    def test_result_truthiness(self):
        h = parse_history("p: w(x)1")
        res = check_with_spec(SC_SPEC, h)
        assert res and res.allowed and res.model == "SC"

    def test_negative_result_has_reason(self, fig1):
        res = check_with_spec(SC_SPEC, fig1)
        assert not res and res.reason

    def test_str_rendering(self):
        h = parse_history("p: w(x)1")
        out = str(check_with_spec(PRAM_SPEC, h))
        assert "PRAM: allowed" in out and "S_" in out

    def test_unwritten_value_short_circuits(self):
        h = parse_history("p: r(x)9")
        res = check_with_spec(TSO_SPEC, h)
        assert not res.allowed and "never written" in res.reason
        assert res.explored == 0


class TestAmbiguity:
    def test_duplicate_values_still_decided(self):
        # Two writes of the same value: the solver enumerates attributions.
        h = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        assert check_with_spec(SC_SPEC, h).allowed

    def test_initial_zero_ambiguity_decided(self):
        h = parse_history("p: w(x)0 | q: r(x)0")
        assert check_with_spec(CAUSAL_SPEC, h).allowed

    def test_reads_from_budget_enforced(self):
        # Unsatisfiable (q sees 1 then 0, but w(x)0 precedes w(x)1 in po)
        # with three ambiguous 0-reads: 8 attributions, all failing, so the
        # solver exhausts past the budget of 4 and must raise.
        h = parse_history("p: w(x)0 w(x)1 | q: r(x)1 r(x)0 r(x)0 r(x)0")
        with pytest.raises(CheckerError):
            check_with_spec(SC_SPEC, h, SearchBudget(max_reads_from=4))

    def test_ambiguous_attribution_choice_found(self):
        # Legal only when the read is attributed to the write (value 0
        # written after a 1): the enumeration must find that choice.
        h = parse_history("p: w(x)1 w(x)0 | q: r(x)1 r(x)0")
        assert check_with_spec(SC_SPEC, h).allowed


class TestBudget:
    def test_serialization_budget_enforced(self):
        # TSO-unsatisfiable MP core plus independent writers that blow up
        # the write-order enumeration: every serialization fails, so the
        # cap of 3 must trip before the search exhausts them all.
        h = parse_history(
            "p: w(x)1 w(y)2 | q: r(y)2 r(x)0 | r: w(u)4 | s: w(v)5 | t: w(z)6"
        )
        with pytest.raises(CheckerError):
            check_with_spec(TSO_SPEC, h, SearchBudget(max_serializations=3))

    def test_default_budget_handles_catalog(self, fig2):
        assert check_with_spec(get_spec("PC"), fig2).allowed

    def test_explored_counter_reported(self, fig1):
        res = check_with_spec(TSO_SPEC, fig1)
        assert res.allowed and res.explored >= 1
