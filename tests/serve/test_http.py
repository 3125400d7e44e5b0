"""Protocol-level tests for the asyncio HTTP layer (no service behind it)."""

import asyncio
import json

import pytest

from repro.serve.http import (
    HttpError,
    HttpRequest,
    HttpServer,
    json_body,
    read_request,
    response_bytes,
)


def _run(coro):
    return asyncio.run(coro)


async def _roundtrip(raw: bytes, *, max_body_bytes: int = 1 << 20):
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return await read_request(reader, max_body_bytes=max_body_bytes)


class TestReadRequest:
    def test_parses_post_with_body(self):
        body = b'{"history": "fig1-sb"}'
        raw = (
            b"POST /check?x=1&y HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        request = _run(_roundtrip(raw))
        assert request.method == "POST"
        assert request.path == "/check"
        assert request.query == {"x": "1", "y": ""}
        assert request.json() == {"history": "fig1-sb"}

    def test_clean_eof_returns_none(self):
        assert _run(_roundtrip(b"")) is None

    def test_torn_request_is_400(self):
        with pytest.raises(HttpError) as exc:
            _run(_roundtrip(b"GET /x HTTP/1.1\r\nHost"))
        assert exc.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc:
            _run(_roundtrip(b"NONSENSE\r\n\r\n"))
        assert exc.value.status == 400

    def test_post_without_length_is_411(self):
        with pytest.raises(HttpError) as exc:
            _run(_roundtrip(b"POST /check HTTP/1.1\r\n\r\n"))
        assert exc.value.status == 411

    def test_oversize_body_refused_before_read(self):
        raw = b"POST /check HTTP/1.1\r\nContent-Length: 999\r\n\r\n"
        with pytest.raises(HttpError) as exc:
            _run(_roundtrip(raw, max_body_bytes=100))
        assert exc.value.status == 413

    def test_non_object_json_body_is_400(self):
        request = HttpRequest(method="POST", path="/check", body=b"[1,2]")
        with pytest.raises(HttpError) as exc:
            request.json()
        assert exc.value.status == 400

    def test_response_bytes_shape(self):
        raw = response_bytes(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: %d" % len(body) in head
        assert json.loads(body) == {"ok": True}
        # An encoded body is written as it is.
        assert body == json_body({"ok": True})
        assert response_bytes(200, body) == raw


async def _request_line(port: int, raw: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    status_line = await reader.readline()
    writer.close()
    return status_line


class TestServerDispatch:
    def test_slow_handler_times_out_to_503(self):
        async def scenario():
            async def slow(request):
                await asyncio.sleep(5)
                return 200, {}

            server = HttpServer(slow, request_timeout=0.05, log_requests=False)
            await server.start()
            try:
                line = await _request_line(
                    server.port, b"GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                assert b"503" in line
            finally:
                await server.shutdown(drain_seconds=1)

        _run(scenario())

    def test_handler_exception_becomes_500(self):
        async def scenario():
            async def boom(request):
                raise RuntimeError("kaboom")

            server = HttpServer(boom, log_requests=False)
            await server.start()
            try:
                line = await _request_line(
                    server.port, b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                assert b"500" in line
            finally:
                await server.shutdown(drain_seconds=1)

        _run(scenario())

    def test_shutdown_drains_in_flight_request(self):
        async def scenario():
            release = asyncio.Event()
            entered = asyncio.Event()

            async def gated(request):
                entered.set()
                await release.wait()
                return 200, {"drained": True}

            server = HttpServer(gated, log_requests=False)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            await writer.drain()
            await entered.wait()
            shutdown = asyncio.ensure_future(server.shutdown(drain_seconds=10))
            await asyncio.sleep(0.05)
            assert not shutdown.done()  # waiting on the in-flight request
            release.set()
            await shutdown
            line = await reader.readline()
            assert b"200" in line  # the response still arrived
            writer.close()

        _run(scenario())
