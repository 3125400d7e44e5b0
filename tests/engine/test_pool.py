"""Tests for the executor: determinism across worker counts, resume, caching.

The determinism property here is the engine's core contract: the result
records — and therefore the bytes written to the store — are identical for
any ``jobs`` value.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.errors import EngineError
from repro.engine import CheckEngine, ResultStore, SweepSpec
from repro.litmus import CATALOG, parse_history

SPEC = SweepSpec(source="catalog", models=("all",))
SMALL = SweepSpec(source="catalog", models=("SC", "TSO", "PRAM"))


class TestConstruction:
    def test_bad_jobs(self):
        with pytest.raises(EngineError, match="jobs"):
            CheckEngine(jobs=0)

    def test_bad_chunk_size(self):
        with pytest.raises(EngineError, match="chunk_size"):
            CheckEngine(chunk_size=0)


class TestClassify:
    def test_matches_direct_check(self):
        from repro.checking import check

        h = parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0")
        verdicts = CheckEngine().classify(h)
        for model, allowed in verdicts.items():
            assert allowed == check(h, model).allowed

    def test_cache_warm_after_classify(self):
        engine = CheckEngine()
        engine.classify(parse_history("p: w(x)1 | q: r(x)1"))
        assert engine.cache.hit_rate > 0

    def test_map_classify_order(self):
        hs = [t.history for t in CATALOG.values()]
        rows = CheckEngine().map_classify(hs, ("SC",))
        direct = CheckEngine(jobs=2).map_classify(hs, ("SC",))
        assert rows == direct


class TestDeterminism:
    """Satellite (c): ``--jobs 1`` and ``--jobs 4`` byte-identical."""

    def test_results_identical_across_worker_counts(self):
        serial = CheckEngine(jobs=1).run(SPEC)
        parallel = CheckEngine(jobs=4).run(SPEC)
        assert serial.results == parallel.results

    def test_store_result_lines_byte_identical(self, tmp_path):
        paths = []
        for jobs in (1, 4):
            path = tmp_path / f"jobs{jobs}.jsonl"
            with ResultStore(path) as store:
                CheckEngine(jobs=jobs).run(SPEC, store=store)
            paths.append(path)

        def result_lines(path):
            return [
                line
                for line in path.read_bytes().splitlines()
                if b'"type":"result"' in line
            ]

        assert result_lines(paths[0]) == result_lines(paths[1])


class TestRun:
    def test_counts_and_metrics(self):
        report = CheckEngine().run(SMALL)
        assert report.metrics.histories == len(CATALOG)
        assert report.metrics.checks == len(CATALOG) * 3
        assert report.metrics.cache_hit_rate > 0
        assert report.metrics.wall_seconds > 0
        assert set(report.counts) == {"SC", "TSO", "PRAM"}

    def test_render_smoke(self):
        report = CheckEngine().run(SMALL)
        assert "cache hit rate" in report.render()

    def test_store_gets_header_results_summary(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            CheckEngine().run(SMALL, store=store)
        types = [r["type"] for r in ResultStore(path).records()]
        assert types[0] == "run" and types[-1] == "summary"
        assert types.count("result") == len(CATALOG)


class TestResume:
    """Satellite (c): a truncated store resumes by skipping completed keys."""

    def test_resume_skips_completed(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            CheckEngine().run(SMALL, store=store)
        with ResultStore(path) as store:
            report = CheckEngine().run(SMALL, store=store, resume=True)
        assert report.metrics.histories == 0
        assert report.metrics.skipped == len(CATALOG)

    def test_resume_after_truncation_completes_the_rest(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            full = CheckEngine().run(SMALL, store=store)
        # Kill the run retroactively: cut the file mid-way through a record.
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        kept, cut = lines[:6], lines[6]
        path.write_text("".join(kept) + cut[: len(cut) // 2])
        done_before = ResultStore(path).completed_keys()
        assert 0 < len(done_before) < len(CATALOG)

        with ResultStore(path) as store:
            report = CheckEngine().run(SMALL, store=store, resume=True)
        assert report.metrics.skipped == len(done_before)
        assert report.metrics.histories == len(CATALOG) - len(done_before)
        # The store now holds every key, and the re-checked records match
        # the original run's verdicts exactly.
        store = ResultStore(path)
        assert store.completed_keys() == {f"catalog:{n}" for n in CATALOG}
        by_key = {r["key"]: r["models"] for r in store.results()}
        for record in full.results:
            assert by_key[record["key"]] == record["models"]

    def test_without_resume_reruns_everything(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with ResultStore(path) as store:
            CheckEngine().run(SMALL, store=store)
            report = CheckEngine().run(SMALL, store=store, resume=False)
        assert report.metrics.histories == len(CATALOG)


class TestChunking:
    def test_explicit_chunk_size(self):
        engine = CheckEngine(chunk_size=3)
        chunks = engine._chunks([("k", {}, ("SC",))] * 7)
        assert [len(c) for c in chunks] == [3, 3, 1]

    def test_empty_payloads(self):
        report = CheckEngine().run(
            SweepSpec(source="random", models=("SC",), count=1, seed=0)
        )
        assert report.metrics.histories == 1


# A parent whose SIGTERM handler does nothing, as under ``repro serve``'s
# event loop: forked workers inherit it, and the pool's teardown sends
# them SIGTERM.
_IGNORING_PARENT = """
import signal
from repro.engine import CheckEngine, SweepSpec

signal.signal(signal.SIGTERM, lambda *_: None)
spec = SweepSpec(source="catalog", models=("SC",))
print(CheckEngine(jobs=2).run(spec).counts["SC"])
"""


def test_pool_teardown_ends_workers_of_a_sigterm_ignoring_parent():
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _IGNORING_PARENT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(proc.stdout) == CheckEngine().run(SMALL).counts["SC"]
