"""Unit tests for the service core: keys, resolution, caching, drain."""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro

from repro.checking.models import MODELS, PAPER_MODELS, model_names
from repro.core.errors import EngineError
from repro.core.serialization import history_to_dict
from repro.engine import SqliteResultStore
from repro.litmus import CATALOG, format_history
from repro.serve import CheckService, ServeConfig, job_key
from repro.serve.service import (
    ServeError,
    resolve_history,
    resolve_models,
    sweep_key,
)


class TestJobKey:
    def test_content_addressed_across_submission_forms(self):
        """Catalog name, litmus text, and wire dict land on the same key."""
        name = "fig1-sb"
        history = CATALOG[name].history
        forms = [name, format_history(history), history_to_dict(history)]
        keys = {
            job_key(resolve_history(form), ("SC", "TSO")) for form in forms
        }
        assert len(keys) == 1
        key = keys.pop()
        assert key.startswith("chk:") and len(key) == 4 + 32

    def test_model_order_does_not_matter(self):
        history = CATALOG["fig1-sb"].history
        assert job_key(history, ("SC", "TSO")) == job_key(history, ("TSO", "SC"))

    def test_distinct_inputs_distinct_keys(self):
        a = CATALOG["fig1-sb"].history
        b = CATALOG["mp"].history
        assert job_key(a, ("SC",)) != job_key(b, ("SC",))
        assert job_key(a, ("SC",)) != job_key(a, ("TSO",))

    def test_sweep_key_shape(self):
        from repro.engine import SweepSpec

        key = sweep_key(SweepSpec(source="catalog", models=("SC",)))
        assert key.startswith("swp:") and len(key) == 4 + 32


class TestResolveHistory:
    def test_prefix_match(self):
        assert resolve_history("fig1") is CATALOG["fig1-sb"].history
        assert job_key(resolve_history("fig1"), ("SC",)) == job_key(
            CATALOG["fig1-sb"].history, ("SC",)
        )

    def test_ambiguous_prefix_falls_through_to_parse_error(self):
        with pytest.raises(ServeError, match="litmus"):
            resolve_history("fig")

    def test_bad_dict(self):
        with pytest.raises(ServeError, match="history dict"):
            resolve_history({"version": 99})

    def test_bad_type(self):
        with pytest.raises(ServeError, match="history must be"):
            resolve_history(42)


class TestResolveModels:
    def test_default_is_paper_set(self):
        assert resolve_models(None) == PAPER_MODELS
        assert resolve_models("paper") == PAPER_MODELS

    def test_all_and_spec_aliases(self):
        assert resolve_models("all") == model_names()
        spec = resolve_models("spec")
        assert all(MODELS[m].spec is not None for m in spec)
        assert "TSO-axiomatic" not in spec

    def test_comma_string_and_list(self):
        assert resolve_models("SC,TSO") == ("SC", "TSO")
        assert resolve_models(["SC", "TSO"]) == ("SC", "TSO")

    def test_unknown_model(self):
        with pytest.raises(ServeError, match="unknown model"):
            resolve_models("SC,Bogus")

    def test_empty_and_bad_types(self):
        with pytest.raises(ServeError, match="empty"):
            resolve_models("")
        with pytest.raises(ServeError, match="bad model set"):
            resolve_models(7)


class TestServiceCaching:
    def test_store_survives_service_restart(self, tmp_path):
        url = f"sqlite:{tmp_path}/serve.db"
        first = CheckService(ServeConfig(store_url=url, workers=1))
        try:
            key, outcome = first.submit_check("fig1-sb", "SC,TSO")
            response = json.loads(outcome.result(timeout=60))
            assert response["models"] == {"SC": False, "TSO": True}
        finally:
            first.drain()

        second = CheckService(ServeConfig(store_url=url, workers=1))
        try:
            hit = second.cached_response(key)
            assert hit is not None
            assert hit["cached"] is True
            assert hit["models"] == {"SC": False, "TSO": True}
            assert second.stats()["counters"]["store_hits"] == 1
            # And a resubmission resolves without touching the pool.
            key2, outcome2 = second.submit_check("fig1-sb", "SC,TSO")
            assert key2 == key
            assert not isinstance(outcome2, Future)
            assert outcome2 == hit
        finally:
            second.drain()

    def test_memory_cache_hit(self):
        service = CheckService(ServeConfig(workers=1))
        try:
            key, outcome = service.submit_check("fig1-sb", "SC")
            outcome.result(timeout=60)
            key2, hit = service.submit_check("fig1-sb", "SC")
            assert key2 == key
            assert not isinstance(hit, Future)  # answered without the pool
            assert json.loads(hit)["cached"] is True
            assert service.stats()["counters"]["cache_hits"] == 1
        finally:
            service.drain()

    def test_result_cache_evicts_the_oldest_bodies(self):
        service = CheckService(ServeConfig(workers=1, result_cache=2))
        try:
            for name in ("fig1-sb", "mp", "iriw"):
                _, outcome = service.submit_check(name, "SC")
                outcome.result(timeout=60)
            for name in ("iriw", "mp"):
                _, hit = service.submit_check(name, "SC")
                assert isinstance(hit, bytes), name
            _, evicted = service.submit_check("fig1-sb", "SC")
            assert isinstance(evicted, Future)  # checked again
            evicted.result(timeout=60)
            assert service.stats()["counters"] == {
                "checks": 4,
                "cache_hits": 2,
                "store_hits": 0,
                "sweeps": 0,
            }
        finally:
            service.drain()


def _block_pool(service: CheckService) -> threading.Event:
    """Occupy a one-worker pool until the returned event is set."""
    release = threading.Event()
    started = threading.Event()

    def hold() -> None:
        started.set()
        release.wait(60)

    service._executor.submit(hold)
    assert started.wait(60)
    return release


class TestCoalescing:
    MODELS = "SC,TSO,PC"

    def test_identical_submissions_share_one_check(self, tmp_path):
        url = f"sqlite:{tmp_path}/serve.db"
        service = CheckService(ServeConfig(store_url=url, workers=1))
        release = _block_pool(service)
        try:
            key, first = service.submit_check("iriw", self.MODELS)
            key2, second = service.submit_check("iriw", self.MODELS)
            assert key2 == key
            assert isinstance(first, Future) and second is first
            release.set()
            body = first.result(timeout=60)
            assert json.loads(body)["cached"] is False
            assert service.stats()["counters"]["checks"] == 3
            _, hit = service.submit_check("iriw", self.MODELS)
            assert isinstance(hit, bytes)
        finally:
            release.set()
            service.drain()
        store = SqliteResultStore(tmp_path / "serve.db")
        results = [r for r in store.records() if r["type"] == "result"]
        assert [r["key"] for r in results] == [key]

    def test_a_failed_check_is_not_shared_afterwards(self, monkeypatch):
        service = CheckService(ServeConfig(workers=1))
        real = service._run_check
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(service, "_run_check", flaky)
        try:
            _, failed = service.submit_check("mp", "SC")
            # Callbacks run in registration order: once this one has
            # run, the service has dropped the failed future.
            settled = threading.Event()
            failed.add_done_callback(lambda _: settled.set())
            assert settled.wait(60)
            assert isinstance(failed.exception(), RuntimeError)
            _, retried = service.submit_check("mp", "SC")
            assert isinstance(retried, Future) and retried is not failed
            assert json.loads(retried.result(timeout=60))["models"] == {"SC": False}
            assert len(calls) == 2
        finally:
            service.drain()

    def test_concurrent_submitters_run_the_check_once(self):
        """Stress: many threads, a tiny switch interval, one key."""
        service = CheckService(ServeConfig(workers=2))
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        outcomes: list = [None] * threads_n

        def submit(i: int) -> None:
            barrier.wait(60)
            outcomes[i] = service.submit_check("wrc", self.MODELS)[1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            # Each submitter joined the one check or, if it came late,
            # got the cached body.
            futures = [o for o in outcomes if isinstance(o, Future)]
            assert futures and all(f is futures[0] for f in futures)
            assert all(isinstance(o, (Future, bytes)) for o in outcomes)
            futures[0].result(timeout=60)
            assert service.stats()["counters"]["checks"] == 3
        finally:
            service.drain()


class TestDrain:
    def test_drain_rejects_new_work_and_is_idempotent(self, tmp_path):
        url = f"sqlite:{tmp_path}/serve.db"
        service = CheckService(ServeConfig(store_url=url, workers=1))
        key, outcome = service.submit_check("fig1-sb", "SC")
        service.drain()
        assert outcome.done()
        with pytest.raises(EngineError, match="draining"):
            service.submit_check("fig1-sb", "TSO")
        service.drain()  # second call is a no-op

        # The store got its end-of-run summary and holds the result.
        store = SqliteResultStore(tmp_path / "serve.db")
        records = list(store.records())
        assert records[0]["type"] == "run"
        assert records[-1]["type"] == "summary"
        assert key in store.completed_keys()


# Runs the 2x2 space sweep (210 histories) under a 256-descriptor limit at
# one and two sweep worker processes, printing each job's outcome.
_LOW_FD_SWEEP = """
import json, resource
from repro.serve import CheckService, ServeConfig

_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
out = {}
for jobs in (1, 2):
    service = CheckService(ServeConfig(sweep_jobs=jobs, log_requests=False))
    job = service.submit_sweep({"source": "space", "models": "SC"})
    service.drain()
    out[jobs] = {"status": job.status, "error": job.error, "result": job.result}
print(json.dumps(out))
"""


class TestSweepJobs:
    def test_pooled_sweep_matches_serial_under_low_fd_limit(self):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _LOW_FD_SWEEP],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        out = json.loads(proc.stdout)
        serial, pooled = out["1"], out["2"]
        assert serial["status"] == "done", serial["error"]
        assert pooled["status"] == "done", pooled["error"]
        assert serial["result"]["counts"] == {"SC": 140}
        assert pooled["result"]["counts"] == serial["result"]["counts"]
        assert pooled["result"]["metrics"]["workers"] == 2
