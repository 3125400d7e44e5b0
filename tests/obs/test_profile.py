"""Profiles: per-check timing records and their per-model aggregation."""

import json

from repro.checking.models import MODELS
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG, parse_history
from repro.obs import CheckProfile, ProfileAggregate, profile_check


class TestProfileCheck:
    def test_verdict_matches_unprofiled_call(self):
        spec = MODELS["TSO"].spec
        history = CATALOG["fig1-sb"].history
        plain = check_with_spec(spec, history)
        result, profile = profile_check(spec, history)
        assert result.allowed == plain.allowed == profile.allowed
        assert result.explored == plain.explored == profile.explored
        assert profile.model == spec.name

    def test_phases_and_counters_recorded(self):
        history = parse_history("p: w(x)1 | q: w(x)1 | r: r(x)1")
        _, profile = profile_check(MODELS["TSO"].spec, history)
        assert set(profile.phase_seconds) == {"compile", "search"}
        assert all(s >= 0 for s in profile.phase_seconds.values())
        assert profile.counters["check-started"] == 1
        assert profile.counters["node"] > 0
        assert profile.total_seconds == sum(profile.phase_seconds.values())

    def test_no_prepass_profiles_the_raw_kernel(self):
        # SC denies fig1-sb by search: no static phase, no rule events.
        _, profile = profile_check(MODELS["SC"].spec, CATALOG["fig1-sb"].history)
        assert not profile.allowed
        assert "prepass" not in profile.phase_seconds
        assert "search" in profile.phase_seconds
        assert "prepass-rule" not in profile.counters

    def test_to_dict_is_json_compatible(self):
        _, profile = profile_check(MODELS["TSO"].spec, CATALOG["fig1-sb"].history)
        d = profile.to_dict()
        assert json.loads(json.dumps(d)) == d


class TestAggregate:
    def _aggregate(self):
        agg = ProfileAggregate()
        for model in ("SC", "TSO"):
            for entry in ("fig1-sb", "mp"):
                _, p = profile_check(MODELS[model].spec, CATALOG[entry].history)
                agg.add(p)
        return agg

    def test_folds_per_model(self):
        agg = self._aggregate()
        assert agg.checks == {"SC": 2, "TSO": 2}
        assert set(agg.models()) == {"SC", "TSO"}

    def test_render_tables(self):
        agg = self._aggregate()
        text = agg.render()
        assert "model" in text and "total" in text and "SC" in text
        md = agg.render(markdown=True)
        assert md.startswith("| model")
        counters = agg.render_counters()
        assert "node" in counters

    def test_empty_aggregate_renders_placeholders(self):
        agg = ProfileAggregate()
        assert agg.render() == "(no checks profiled)"
        assert agg.render_counters() == "(no counters recorded)"

    def test_synthetic_profiles_sum_exactly(self):
        agg = ProfileAggregate()
        agg.add(
            CheckProfile(
                model="M",
                allowed=True,
                explored=2,
                phase_seconds={"search": 0.25},
                counters={"node": 3},
            )
        )
        agg.add(
            CheckProfile(
                model="M", explored=1, phase_seconds={"search": 0.5}, counters={"node": 1}
            )
        )
        assert agg.allowed == {"M": 1}
        assert agg.explored == {"M": 3}
        assert agg.phase_seconds == {"M": {"search": 0.75}}
        assert agg.counters == {"M": {"node": 4}}
