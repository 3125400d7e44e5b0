"""Tests for the engine's counters and timers."""

from repro.engine import EngineMetrics


class TestDerived:
    def test_hit_rate(self):
        # The raw counters stay; no hit rate is derived from them, since
        # the engine has no relation cache to report on.
        m = EngineMetrics(cache_hits=3, cache_misses=1)
        assert m.cache_lookups == 4
        assert not hasattr(m, "cache_hit_rate")

    def test_hit_rate_empty(self):
        m = EngineMetrics()
        assert m.cache_lookups == 0
        assert "cache_hit_rate" not in m.to_dict()
        assert "cache hit rate" not in m.render()

    def test_histories_per_second(self):
        m = EngineMetrics(histories=10, wall_seconds=2.0)
        assert m.histories_per_second == 5.0
        assert EngineMetrics(histories=10).histories_per_second == 0.0


class TestAccumulation:
    def test_add_model_time(self):
        m = EngineMetrics()
        m.add_model_time("SC", 0.5)
        m.add_model_time("SC", 0.25)
        assert m.model_seconds == {"SC": 0.75}

    def test_merge_dict(self):
        m = EngineMetrics(histories=1, cache_hits=2)
        m.merge(
            {
                "histories": 3,
                "cache_hits": 4,
                "cache_misses": 1,
                "model_seconds": {"SC": 0.5},
            }
        )
        assert m.histories == 4
        assert m.cache_hits == 6 and m.cache_misses == 1
        assert m.model_seconds == {"SC": 0.5}

    def test_merge_instance(self):
        m = EngineMetrics()
        m.merge(EngineMetrics(checks=7, skipped=2))
        assert m.checks == 7 and m.skipped == 2

    def test_merge_empty_partial_is_a_no_op(self):
        m = EngineMetrics(histories=2, checks=5, cache_hits=1)
        m.add_model_time("SC", 0.5)
        m.add_phase_time("check", 0.25)
        before = m.to_dict()
        m.merge({})
        m.merge(EngineMetrics())
        after = m.to_dict()
        # wall_seconds/workers are driver-owned, never merged from partials;
        # everything else must be exactly what it was.
        assert after == before

    def test_merge_dict_and_instance_agree(self):
        partial = EngineMetrics(histories=3, checks=9, prepass_decided=4)
        partial.add_model_time("TSO", 0.125)
        partial.add_phase_time("prepass", 0.0625)
        via_instance, via_dict = EngineMetrics(), EngineMetrics()
        via_instance.merge(partial)
        via_dict.merge(partial.to_dict())
        assert via_instance.to_dict() == via_dict.to_dict()

    def test_add_phase_time_accumulates(self):
        m = EngineMetrics()
        m.add_phase_time("check", 0.5)
        m.add_phase_time("check", 0.25)
        m.add_phase_time("prepass", 0.125)
        assert m.phase_seconds == {"check": 0.75, "prepass": 0.125}

    def test_merge_phase_seconds_from_partials(self):
        m = EngineMetrics()
        m.merge({"phase_seconds": {"check": 0.5, "prepass": 0.25}})
        m.merge({"phase_seconds": {"check": 0.5}})
        assert m.phase_seconds == {"check": 1.0, "prepass": 0.25}


class TestPresentation:
    def test_to_dict_json_compatible(self):
        import json

        m = EngineMetrics(histories=2, checks=26, cache_hits=20, cache_misses=8)
        m.add_model_time("SC", 0.001)
        d = m.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert (d["cache_hits"], d["cache_misses"]) == (20, 8)

    def test_render_mentions_the_headline_figures(self):
        m = EngineMetrics(
            histories=17, checks=221, cache_hits=9, cache_misses=1, wall_seconds=0.5
        )
        m.add_model_time("SC", 0.2)
        text = m.render()
        assert "histories: 17 checked" in text
        assert "0.500s" in text
        assert "SC" in text

    def test_render_includes_phase_split_only_when_present(self):
        m = EngineMetrics(histories=1, checks=1)
        assert "per-phase time" not in m.render()
        m.add_phase_time("prepass", 0.002)
        m.add_phase_time("check", 0.001)
        assert "per-phase time: check=0.001s, prepass=0.002s" in m.render()

    def test_to_dict_includes_phase_seconds(self):
        import json

        m = EngineMetrics()
        m.add_phase_time("check", 0.1234567)
        d = m.to_dict()
        assert d["phase_seconds"] == {"check": 0.123457}
        assert json.loads(json.dumps(d)) == d
