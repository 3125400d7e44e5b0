"""Tests for independent witness validation."""

import pytest

from repro.checking import MODELS
from repro.checking.witness import validate_witness
from repro.core import CheckerError, View
from repro.lattice import HistorySpace, canonical_histories
from repro.litmus import CATALOG, parse_history

VALIDATABLE = (
    "SC", "TSO", "PC", "PRAM", "Causal", "Coherence", "RC_sc", "RC_pc",
    "partition-2", "partition-3",
)


class TestAcceptsGoodWitnesses:
    @pytest.mark.parametrize("name", ["fig1-sb", "fig2-pc-not-tso", "fig3-pram-not-tso", "fig4-causal-not-tso"])
    def test_figure_witnesses_validate(self, name):
        h = CATALOG[name].history
        for model in VALIDATABLE:
            m = MODELS[model]
            result = m.check(h)
            if result.allowed and m.spec is not None:
                assert validate_witness(m.spec, h, result.views) == [], (
                    f"{model} witness invalid on {name}"
                )

    def test_sweep_2x2_space(self):
        for h in canonical_histories(HistorySpace(procs=2, ops_per_proc=2)):
            for model in ("SC", "TSO", "PRAM", "Causal", "Coherence"):
                m = MODELS[model]
                result = m.check(h)
                if result.allowed:
                    problems = validate_witness(m.spec, h, result.views)
                    assert problems == [], f"{model} on:\n{h}\n{problems}"

    def test_rc_witness_on_bakery_history(self, bakery_violation):
        m = MODELS["RC_pc"]
        result = m.check(bakery_violation)
        assert result.allowed
        # The Bakery history has ambiguous 0-reads, so validation refuses.
        with pytest.raises(CheckerError):
            validate_witness(m.spec, bakery_violation, result.views)

    def test_rc_witness_on_clean_history(self):
        h = parse_history("p: w(x)1 w*(s)1 | q: r*(s)1 r(x)1")
        for model in ("RC_sc", "RC_pc"):
            m = MODELS[model]
            result = m.check(h)
            assert result.allowed
            assert validate_witness(m.spec, h, result.views) == []


class TestLabeledAgreement:
    def test_hybrid_witness_validates(self):
        h = parse_history("p: w*(x)1 w(d)2 | q: r*(x)1 r(d)2")
        m = MODELS["Hybrid"]
        result = m.check(h)
        assert result.allowed
        assert validate_witness(m.spec, h, result.views) == []

    def test_rc_pc_views_may_disagree_on_labeled_order(self):
        # Labeled store buffering: RC_pc admits it with views that order
        # the two labeled writes oppositely, which its labeled PC
        # discipline allows; only RC_sc demands one labeled order.
        h = parse_history("p: w*(x)1 r*(y)0 | q: w*(y)1 r*(x)0")
        m = MODELS["RC_pc"]
        result = m.check(h)
        assert result.allowed and not MODELS["RC_sc"].check(h).allowed
        assert validate_witness(m.spec, h, result.views) == []

    def test_rc_pc_labeled_sem_violation_rejected(self):
        h = parse_history("p: w*(x)1 w*(y)2 | q: r*(y)2 r*(x)1")
        m = MODELS["RC_pc"]
        result = m.check(h)
        assert result.allowed
        views = dict(result.views)
        w_x, w_y = h.op("p", 0), h.op("p", 1)
        r_y, r_x = h.op("q", 0), h.op("q", 1)
        # Legal, coherent, ppo-respecting for q, but p's writes reversed.
        views["q"] = View("q", [w_y, r_y, w_x, r_x], validate=False)
        problems = validate_witness(m.spec, h, views)
        assert any("violates labeled sem" in p_ for p_ in problems), problems

    def test_disagreeing_labeled_orders_rejected(self):
        h = parse_history("p: w*(x)1 | q: w*(y)2 | r: r(x)1 r(y)2")
        m = MODELS["Hybrid"]
        result = m.check(h)
        assert result.allowed
        views = dict(result.views)
        # Force p and q to order the two labeled writes oppositely.
        w_x, w_y = h.op("p", 0), h.op("q", 0)
        views["p"] = View("p", [w_x, w_y], validate=False)
        views["q"] = View("q", [w_y, w_x], validate=False)
        problems = validate_witness(m.spec, h, views)
        assert any("disagree on labeled order" in p_ for p_ in problems)


class TestRejectsBadWitnesses:
    def test_missing_view(self, fig1):
        m = MODELS["TSO"]
        result = m.check(fig1)
        views = dict(result.views)
        del views["q"]
        problems = validate_witness(m.spec, fig1, views)
        assert any("missing view" in p for p in problems)

    def test_wrong_contents(self, fig1):
        m = MODELS["TSO"]
        result = m.check(fig1)
        views = dict(result.views)
        # Drop the remote write from p's view.
        trimmed = [op for op in views["p"] if op.proc == "p"]
        views["p"] = View("p", trimmed, validate=False)
        problems = validate_witness(m.spec, fig1, views)
        assert any("wrong contents" in p for p in problems)

    def test_illegal_view(self):
        h = parse_history("p: w(x)1 | q: r(x)1")
        m = MODELS["PRAM"]
        result = m.check(h)
        views = dict(result.views)
        # Reverse q's view: the read now precedes the write it observed.
        views["q"] = View("q", list(reversed(list(views["q"]))), validate=False)
        problems = validate_witness(m.spec, h, views)
        assert any("illegal" in p for p in problems)

    def test_broken_mutual_consistency(self, fig1):
        m = MODELS["TSO"]
        result = m.check(fig1)
        views = dict(result.views)
        # Give q a view with the writes swapped (still legal: reads first).
        q_ops = list(views["q"])
        writes = [op for op in q_ops if op.is_write]
        reads = [op for op in q_ops if not op.is_write]
        views["q"] = View("q", reads + list(reversed(writes)), validate=False)
        problems = validate_witness(m.spec, fig1, views)
        assert any("write orders disagree" in p for p in problems)

    @pytest.mark.parametrize(
        "model, complaint",
        [
            ("partition-2", "write order of block 0 disagrees"),
            ("partition-3", "write order of block 0 disagrees"),
            ("Coherence", "coherence order for 'x' disagrees"),
            ("TSO", "write orders disagree"),
        ],
    )
    def test_opposite_write_orders_rejected(self, model, complaint):
        # r and s see x's two writes in opposite orders: each view is
        # legal, but no model that agrees on x's write order admits it.
        h = parse_history("p: w(x)1 | q: w(x)2 | r: r(x)1 r(x)2 | s: r(x)2 r(x)1")
        m = MODELS[model]
        assert not m.check(h).allowed
        w1, w2 = h.op("p", 0), h.op("q", 0)
        views = {
            "p": View("p", [w1, w2], validate=False),
            "q": View("q", [w1, w2], validate=False),
            "r": View("r", [w1, h.op("r", 0), w2, h.op("r", 1)], validate=False),
            "s": View("s", [w2, h.op("s", 0), w1, h.op("s", 1)], validate=False),
        }
        problems = validate_witness(m.spec, h, views)
        assert any(complaint in p_ for p_ in problems), problems

    def test_broken_ordering(self):
        # PRAM: violate program order of the remote writer in q's view.
        h = parse_history("p: w(x)1 w(y)2 | q: r(y)2 r(x)1")
        m = MODELS["PRAM"]
        result = m.check(h)
        assert result.allowed
        views = dict(result.views)
        w_x, w_y = h.op("p", 0), h.op("p", 1)
        r_y, r_x = h.op("q", 0), h.op("q", 1)
        # Legal but po-violating arrangement: w(y) r(y) w(x) r(x).
        views["q"] = View("q", [w_y, r_y, w_x, r_x], validate=False)
        problems = validate_witness(m.spec, h, views)
        assert any("violates po" in p for p in problems)

    def test_ambiguous_history_refused(self):
        h = parse_history("p: w(x)0 | q: r(x)0")
        m = MODELS["PRAM"]
        result = m.check(h)
        with pytest.raises(CheckerError):
            validate_witness(m.spec, h, result.views)
