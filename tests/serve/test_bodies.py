"""Response bodies over real HTTP, byte for byte.

The result cache holds each completed check's encoded body, so these
tests pin the bytes themselves: a cold ``POST /check`` body is the
sorted-key JSON of the response the models give in process, a repeat is
the same bytes with ``"cached": true``, and ``/result``, ``/witness``
and store hits keep their JSON.
"""

import http.client
import json

import pytest

from repro.checking.models import MODELS, PAPER_MODELS
from repro.core.serialization import check_result_to_dict
from repro.litmus import CATALOG, format_history
from repro.serve import ServeConfig, ServerThread, job_key


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request(method, path, body=json.dumps(body) if body else None)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return response.status, raw


def _check(port, name):
    return _request(port, "POST", "/check", {"history": name, "models": "paper"})


def _expected(name: str) -> dict:
    """The cold ``/check`` response, computed in process."""
    history = CATALOG[name].history
    results = {
        m: json.loads(json.dumps(check_result_to_dict(MODELS[m].check(history))))
        for m in PAPER_MODELS
    }
    return {
        "key": job_key(history, PAPER_MODELS),
        "history": format_history(history),
        "models": {m: r["allowed"] for m, r in results.items()},
        "explored": {m: r["explored"] for m, r in results.items()},
        "views": {
            m: r["views"] for m, r in results.items() if r["allowed"] and r["views"]
        },
        "results": results,
        "cached": False,
    }


def _as_hit(cold: bytes) -> bytes:
    return cold.replace(b'"cached": false', b'"cached": true', 1)


def _one_name_per_history() -> list[str]:
    # ``wrc`` is ``fig2-pc-not-tso``'s history under another name: it has
    # the same key, so its first POST would already be a hit.
    names: dict[str, str] = {}
    for name, entry in CATALOG.items():
        names.setdefault(entry.text, name)
    return list(names.values())


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(port=0, workers=2, log_requests=False)) as srv:
        yield srv


@pytest.mark.parametrize("name", _one_name_per_history())
def test_cold_hit_result_and_witness_bodies(server, name):
    expected = _expected(name)
    key = expected["key"]
    status, cold = _check(server.port, name)
    assert status == 200
    assert cold == _encode(expected)
    status, hit = _check(server.port, name)
    assert status == 200
    assert hit == _as_hit(cold) == _encode({**expected, "cached": True})
    assert _request(server.port, "GET", f"/result/{key}") == (200, hit)
    witness = _encode(
        {"key": key, "models": expected["models"], "views": expected["views"]}
    )
    assert _request(server.port, "GET", f"/witness/{key}") == (200, witness)


def test_evicted_body_is_checked_again_to_the_same_bytes():
    config = ServeConfig(port=0, workers=1, result_cache=2, log_requests=False)
    with ServerThread(config) as srv:
        first = {name: _check(srv.port, name)[1] for name in ("fig1-sb", "mp", "iriw")}
        assert _check(srv.port, "iriw")[1] == _as_hit(first["iriw"])
        assert _check(srv.port, "fig1-sb")[1] == first["fig1-sb"]  # cold again
        counters = srv.service.stats()["counters"]
        assert (counters["checks"], counters["cache_hits"]) == (4 * 5, 1)


def test_store_hit_after_restart_keeps_its_json(tmp_path):
    config = ServeConfig(
        port=0, workers=1, store_url=f"sqlite:{tmp_path}/s.db", log_requests=False
    )
    expected = _expected("fig1-sb")
    key = expected["key"]
    with ServerThread(config) as srv:
        assert _check(srv.port, "fig1-sb") == (200, _encode(expected))
    stored = _encode(
        {
            "key": key,
            "models": expected["models"],
            "explored": expected["explored"],
            "views": expected["views"],
            "cached": True,
        }
    )
    witness = _encode(
        {"key": key, "models": expected["models"], "views": expected["views"]}
    )
    with ServerThread(config) as srv:
        assert _check(srv.port, "fig1-sb") == (200, stored)
        assert _request(srv.port, "GET", f"/result/{key}") == (200, stored)
        assert _request(srv.port, "GET", f"/witness/{key}") == (200, witness)
        assert srv.service.stats()["counters"]["store_hits"] == 3
