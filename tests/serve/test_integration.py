"""End-to-end tests: the full server stack over real HTTP connections.

The acceptance contract for the serve subsystem lives here:
``POST /check`` must return the *same* verdict + witness JSON as calling
the model's :meth:`~repro.checking.models.MemoryModel.check` in process,
for every catalog entry under every registered model.
"""

import http.client
import json
import time

import pytest

from repro.checking.models import MODELS, check, model_names, resolve_models
from repro.core.serialization import check_result_to_dict
from repro.engine import EngineSession, SqliteResultStore
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG
from repro.serve import ServeConfig, ServerThread


def _request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload, headers=headers or {})
    response = conn.getresponse()
    data = json.loads(response.read().decode("utf-8"))
    conn.close()
    return response.status, data


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    config = ServeConfig(
        port=0,
        workers=2,
        store_url=f"sqlite:{tmp}/serve.db",
        log_requests=False,
    )
    with ServerThread(config) as srv:
        yield srv


class TestAcceptance:
    def test_check_matches_check_with_spec_for_every_catalog_model_pair(
        self, server
    ):
        """The ISSUE acceptance criterion, asserted pair by pair."""
        for name, entry in CATALOG.items():
            status, response = _request(
                server.port, "POST", "/check",
                {"history": name, "models": "all"},
            )
            assert status == 200, (name, response)
            for model_name in model_names():
                expected = MODELS[model_name].check(entry.history)
                # Normalize through JSON: the response crossed the wire.
                expected_dict = json.loads(
                    json.dumps(check_result_to_dict(expected))
                )
                got = response["results"][model_name]
                assert got == expected_dict, (name, model_name)
                assert response["models"][model_name] == expected.allowed


class TestModelNames:
    def test_every_surface_reports_the_registry_name(self, server):
        """One name per model: check, the kernel, sessions and /check."""
        h = CATALOG["fig1-sb"].history
        status, response = _request(
            server.port, "POST", "/check", {"history": "fig1-sb", "models": "spec"}
        )
        assert status == 200
        for n in resolve_models("spec"):
            assert check(h, n).model == n
            assert check_with_spec(MODELS[n].spec, h).model == n
            assert EngineSession([n], history=h).last_results[n].model == n
            assert response["results"][n]["model"] == n

    def test_unknown_model_is_a_400_with_a_hint(self, server):
        status, body = _request(
            server.port, "POST", "/check", {"history": "fig1-sb", "models": "ryw"}
        )
        assert status == 400
        assert "did you mean read-your-writes" in body["error"]


class TestEndpoints:
    def test_healthz_and_models(self, server):
        status, body = _request(server.port, "GET", "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, body = _request(server.port, "GET", "/models")
        assert status == 200
        assert body["models"] == list(model_names())
        # The endpoint tracks the registry: the session-guarantee and
        # partition families must be served without serve-layer changes.
        for name in ("read-your-writes", "session-causal", "partition-3"):
            assert name in body["models"]

    def test_resubmission_is_a_cache_hit(self, server):
        request = {"history": "fig2-pc-not-tso", "models": "SC,PC,TSO"}
        status, first = _request(server.port, "POST", "/check", request)
        assert status == 200
        status, second = _request(server.port, "POST", "/check", request)
        assert status == 200
        assert second["cached"] is True
        assert second["key"] == first["key"]
        assert second["models"] == first["models"] == {
            "SC": False, "PC": True, "TSO": False,
        }

    def test_result_and_witness_endpoints(self, server):
        status, response = _request(
            server.port, "POST", "/check",
            {"history": "fig1-sb", "models": "SC,TSO"},
        )
        key = response["key"]
        status, result = _request(server.port, "GET", f"/result/{key}")
        assert status == 200
        assert result["models"] == {"SC": False, "TSO": True}
        status, witness = _request(server.port, "GET", f"/witness/{key}")
        assert status == 200
        assert witness["key"] == key
        assert witness["views"]["TSO"]  # the admit verdict carries views
        assert "SC" not in witness["views"]  # denials have no witness

    def test_async_check_queues_then_resolves(self, server):
        status, queued = _request(
            server.port, "POST", "/check",
            {"history": "fig3-pram-not-tso", "models": "PRAM", "async": True},
        )
        assert status in (200, 202)  # 200 if an earlier test warmed the key
        key = queued["key"]
        deadline = time.time() + 60
        while time.time() < deadline:
            status, body = _request(server.port, "GET", f"/result/{key}")
            if status == 200:
                assert body["models"] == {"PRAM": True}
                return
            time.sleep(0.05)
        pytest.fail("async check never resolved")

    def test_sweep_job_flow(self, server):
        params = {"source": "catalog", "models": "SC,TSO"}
        status, job = _request(server.port, "POST", "/sweep", params)
        assert status == 202
        assert job["job"].startswith("swp:")
        deadline = time.time() + 120
        while time.time() < deadline:
            status, body = _request(server.port, "GET", job["poll"])
            assert status == 200
            if body["status"] == "done":
                break
            time.sleep(0.05)
        assert body["status"] == "done"
        assert body["report"]["counts"]["SC"] >= 1
        # Resubmitting the same sweep returns the finished job.
        status, again = _request(server.port, "POST", "/sweep", params)
        assert status == 200
        assert again["job"] == job["job"]
        assert again["status"] == "done"

    def test_stats_reflects_traffic(self, server):
        status, stats = _request(server.port, "GET", "/stats")
        assert status == 200
        assert stats["counters"]["checks"] > 0
        assert stats["counters"]["cache_hits"] >= 1
        assert stats["jobs"].get("done", 0) >= 1
        assert "SC" in stats["verdicts"]
        assert stats["store"]["results"] > 0
        assert stats["store"]["url"].startswith("sqlite:")


class TestErrorPaths:
    def test_bad_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/check", body=b"{not json")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "JSON" in body["error"]

    def test_missing_history_is_400(self, server):
        status, body = _request(server.port, "POST", "/check", {})
        assert status == 400 and "history" in body["error"]

    def test_unknown_model_is_400(self, server):
        status, body = _request(
            server.port, "POST", "/check",
            {"history": "fig1-sb", "models": "Bogus"},
        )
        assert status == 400 and "unknown model" in body["error"]

    def test_unknown_route_is_404(self, server):
        status, body = _request(server.port, "GET", "/nope")
        assert status == 404

    def test_unknown_result_key_is_404(self, server):
        status, body = _request(server.port, "GET", "/result/chk:missing")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, body = _request(server.port, "GET", "/check")
        assert status == 405

    def test_oversize_body_is_413_before_the_body_is_read(self, server):
        # The refusal arrives off the Content-Length alone, so send just
        # the headers (a library client would get a broken pipe mid-body).
        import socket

        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            sock.sendall(
                b"POST /check HTTP/1.1\r\n"
                b"Content-Length: 2097152\r\n\r\n"
            )
            status_line = sock.makefile("rb").readline()
        assert b"413" in status_line

    def test_bad_sweep_parameter_is_400(self, server):
        status, body = _request(
            server.port, "POST", "/sweep", {"source": "catalog", "nope": 1}
        )
        assert status == 400 and "nope" in body["error"]


class TestGracefulShutdown:
    def test_inflight_work_lands_in_store_before_exit(self, tmp_path):
        """SIGTERM semantics: queued jobs finish and persist, then close."""
        url = f"sqlite:{tmp_path}/drain.db"
        srv = ServerThread(
            ServeConfig(port=0, workers=1, store_url=url, log_requests=False)
        ).start()
        status, queued = _request(
            srv.port, "POST", "/check",
            {"history": "fig4-causal-not-tso", "models": "paper", "async": True},
        )
        assert status == 202
        status, job = _request(
            srv.port, "POST", "/sweep", {"source": "catalog", "models": "SC"}
        )
        assert status == 202
        srv.shutdown()  # drains the queued check AND the running sweep

        service = srv.service
        assert service.job(job["job"]).status == "done"
        store = SqliteResultStore(tmp_path / "drain.db")
        records = list(store.records())
        assert records[-1]["type"] == "summary"  # end-of-run summary landed
        assert queued["key"] in store.completed_keys()
        assert len(store.completed_keys()) >= 1 + len(CATALOG)

        # And the drained server refuses fresh work.
        import pytest as _pytest
        from repro.core.errors import EngineError

        with _pytest.raises(EngineError):
            service.submit_check("fig1-sb", "SC")
