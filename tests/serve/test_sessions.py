"""Incremental sessions over the wire: the live round-trip acceptance.

The ISSUE's serve criterion: a session created over a real socket,
streamed op by op to a DENY, must report per-op admit/deny verdicts that
are byte-parity with in-process one-shot checks, expose the denial
reasons and witness views on ``GET /session/<id>``, and feed the
per-session counters of ``GET /stats``.
"""

import http.client
import json

import pytest

from repro.checking.models import MODELS
from repro.core.serialization import check_result_to_dict
from repro.kernel.search import check_with_spec
from repro.litmus import parse_history
from repro.serve import ServeConfig, ServerThread
from repro.serve.service import CheckService


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload)
    response = conn.getresponse()
    data = json.loads(response.read().decode("utf-8"))
    conn.close()
    return response.status, data


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(port=0, workers=2, log_requests=False)
    with ServerThread(config) as srv:
        yield srv


class TestLiveRoundTrip:
    def test_create_stream_to_deny_and_fetch_witness(self, server):
        status, created = _request(
            server.port,
            "POST",
            "/session",
            {"models": ["SC", "PRAM", "Coherence"]},
        )
        assert status == 201, created
        sid = created["session"]
        assert created["operations"] == 0
        assert created["denying"] == []

        # Stream to an all-admit prefix, then push it over into DENY.
        status, r1 = _request(
            server.port, "POST", f"/session/{sid}/append", {"op": "p: w(x)1"}
        )
        assert status == 200 and r1["admitted"], r1
        status, r2 = _request(
            server.port,
            "POST",
            f"/session/{sid}/append",
            {"ops": ["q: r(x)1", "q: r(x)0"]},
        )
        assert status == 200, r2
        assert [s["op"] for s in r2["steps"]] == ["r_q(x)1", "r_q(x)0"]
        assert r2["steps"][0]["denying"] == []
        assert set(r2["steps"][1]["denying"]) == {"SC", "PRAM", "Coherence"}
        assert not r2["admitted"]

        # The snapshot carries reasons for the DENY and the op log —
        # and the per-model results are byte-parity with in-process
        # checks of the same history (normalized through JSON: the
        # response crossed the wire).
        status, snap = _request(server.port, "GET", f"/session/{sid}")
        assert status == 200
        assert snap["operations"] == 3
        assert set(snap["denying"]) == {"SC", "PRAM", "Coherence"}
        assert [s["op"] for s in snap["log"]] == [
            "w_p(x)1",
            "r_q(x)1",
            "r_q(x)0",
        ]
        history = parse_history(snap["history"])
        for name in ("SC", "PRAM", "Coherence"):
            expected = json.loads(
                json.dumps(
                    check_result_to_dict(
                        check_with_spec(MODELS[name].spec, history)
                    )
                )
            )
            assert snap["results"][name] == expected, name
            assert snap["reasons"][name] == expected["reason"]

        # Stats sourced from the kernel's session events.
        status, stats = _request(server.port, "GET", "/stats")
        assert status == 200
        sessions = stats["sessions"]
        assert sessions["created"] >= 1
        assert sessions["active"] >= 1
        # 3 ops × 3 models' checks reacted to an append.
        assert sessions["appends"] >= 9
        assert sessions["planes_grown"] >= 1

        status, closed = _request(server.port, "DELETE", f"/session/{sid}")
        assert status == 200 and closed["closed"]
        status, _ = _request(server.port, "GET", f"/session/{sid}")
        assert status == 404

    def test_witness_views_on_an_admitting_session(self, server):
        _, created = _request(
            server.port, "POST", "/session", {"models": ["SC"]}
        )
        sid = created["session"]
        _, r = _request(
            server.port,
            "POST",
            f"/session/{sid}/append",
            {"ops": ["p: w(x)1", "q: r(x)1"]},
        )
        assert r["admitted"]
        _, snap = _request(server.port, "GET", f"/session/{sid}")
        assert snap["views"]["SC"], "admitting model should carry a witness"
        assert snap["reasons"] == {}
        _request(server.port, "DELETE", f"/session/{sid}")

    def test_seeded_session(self, server):
        _, created = _request(
            server.port,
            "POST",
            "/session",
            {"models": ["SC"], "history": "p: w(x)1 w(x)2 | q: r(x)2 r(x)1"},
        )
        assert created["operations"] == 4
        assert created["denying"] == ["SC"]
        _request(server.port, "DELETE", f"/session/{created['session']}")

    def test_bad_requests(self, server):
        status, err = _request(
            server.port, "POST", "/session", {"models": ["NOPE"]}
        )
        assert status == 400 and "unknown model" in err["error"]
        status, err = _request(
            server.port, "POST", "/session", {"frobnicate": 1}
        )
        assert status == 400 and "unknown session parameter" in err["error"]
        status, err = _request(
            server.port, "POST", "/session", {"models": ["SC"], "prepass": True}
        )
        assert status == 400 and "prepass" in err["error"]
        status, err = _request(
            server.port, "POST", "/session/ses:missing/append", {"op": "p: w(x)1"}
        )
        assert status == 404
        _, created = _request(
            server.port, "POST", "/session", {"models": ["SC"]}
        )
        sid = created["session"]
        status, err = _request(
            server.port, "POST", f"/session/{sid}/append", {"op": "garbage"}
        )
        assert status == 400 and "bad op line" in err["error"]
        status, err = _request(
            server.port, "POST", f"/session/{sid}/append", {}
        )
        assert status == 400
        status, err = _request(server.port, "PUT", f"/session/{sid}")
        assert status == 405
        _request(server.port, "DELETE", f"/session/{sid}")


class TestServiceUnits:
    def test_session_table_evicts_lru(self):
        service = CheckService(
            ServeConfig(workers=1, log_requests=False, max_sessions=2)
        )
        try:
            ids = [
                service.create_session({"models": ["SC"]}).result()["session"]
                for _ in range(3)
            ]
            # The oldest session fell off the LRU.
            assert service.session_state(ids[0]) is None
            assert service.session_state(ids[1]) is not None
            assert service.session_state(ids[2]) is not None
            stats = service.stats()["sessions"]
            assert stats["created"] == 3
            assert stats["evicted"] == 1
            assert stats["active"] == 2
        finally:
            service.drain()

    def test_session_counters_outlive_closed_and_evicted_sessions(self):
        service = CheckService(
            ServeConfig(workers=1, log_requests=False, max_sessions=1)
        )
        try:
            first = service.create_session({"models": ["SC", "TSO"]}).result()
            service.append_session(
                first["session"], {"ops": ["p: w(x)1", "q: r(x)1"]}
            ).result()
            totals = service.stats()["sessions"]
            assert totals["appends"] == 2 * 2
            # A second session evicts the first, then is closed itself.
            second = service.create_session({"models": ["SC"]}).result()
            service.append_session(second["session"], {"op": "p: w(y)1"}).result()
            service.close_session(second["session"])
            after = service.stats()["sessions"]
            assert (after["active"], after["evicted"], after["closed"]) == (0, 1, 1)
            assert after["appends"] == 2 * 2 + 1
            for name in ("planes_grown", "reuse_hits", "reuse_misses", "fallbacks"):
                assert after[name] >= totals[name]
        finally:
            service.drain()

    def test_appends_survive_a_partial_line_error(self):
        service = CheckService(ServeConfig(workers=1, log_requests=False))
        try:
            sid = service.create_session({"models": ["SC"]}).result()[
                "session"
            ]
            future = service.append_session(
                sid, {"ops": ["p: w(x)1", "garbage", "q: r(x)1"]}
            )
            with pytest.raises(Exception, match="1 op"):
                future.result()
            snap = service.session_state(sid)
            # The op before the bad line landed; the one after did not.
            assert snap["operations"] == 1
            assert [s["op"] for s in snap["log"]] == ["w_p(x)1"]
        finally:
            service.drain()

    def test_drain_refuses_new_sessions(self):
        service = CheckService(ServeConfig(workers=1, log_requests=False))
        service.drain()
        from repro.core.errors import EngineError

        with pytest.raises(EngineError, match="draining"):
            service.create_session({"models": ["SC"]})
