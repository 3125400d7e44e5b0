"""A minimal asyncio HTTP/1.1 layer — stdlib only, service-shaped.

Not a web framework: exactly the transport the check service needs and
nothing more.  Requests are parsed off an :mod:`asyncio` stream with a
bounded header block and a ``Content-Length``-bounded body (oversize
bodies are refused with 413 *before* being read), handlers run under a
per-request timeout, responses are JSON, connections keep-alive until
either side closes, and every request becomes one structured JSON log
line.  Graceful shutdown stops the listener first, then waits for
open connections to finish their in-flight request.

The handler contract is a coroutine ``(HttpRequest) -> (status,
payload)``, where the payload is a dict to encode or a body already
encoded by :func:`json_body`; routing lives in :mod:`repro.serve.app`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

__all__ = ["HttpError", "HttpRequest", "HttpServer", "STATUS_PHRASES", "json_body"]

log = logging.getLogger("repro.serve")

#: The status lines this server emits.
STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on the request line + headers block.
_MAX_HEADER_BYTES = 16 << 10


class HttpError(Exception):
    """An HTTP-level refusal raised during parsing (carries the status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, decoded body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object; :class:`HttpError` 400 otherwise."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


def _parse_query(raw: str) -> dict[str, str]:
    query: dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        name, _, value = part.partition("=")
        query[name] = value
    return query


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Malformed or oversized requests raise :class:`HttpError`; the
    connection loop answers with that status and closes.
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial.strip():
            return None  # clean close between requests
        raise HttpError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request headers too large")
    if len(header_block) > _MAX_HEADER_BYTES:
        raise HttpError(413, "request headers too large")
    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    path, _, raw_query = target.partition("?")
    body = b""
    if method in ("POST", "PUT"):
        if "content-length" not in headers:
            raise HttpError(411, "POST requires Content-Length")
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length)
    return HttpRequest(
        method=method,
        path=path,
        query=_parse_query(raw_query),
        headers=headers,
        body=body,
    )


def json_body(payload: dict) -> bytes:
    """The one JSON encoding of every response body (sorted keys)."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def response_bytes(status: int, payload: dict | bytes) -> bytes:
    """One complete HTTP/1.1 response with a JSON body.

    A ``bytes`` payload is a body :func:`json_body` already encoded and
    is written as it is.
    """
    body = payload if isinstance(payload, bytes) else json_body(payload)
    phrase = STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


#: The routing contract: a coroutine from request to (status, payload),
#: the payload a dict or an encoded body (see :func:`response_bytes`).
Handler = Callable[[HttpRequest], Awaitable[tuple[int, dict | bytes]]]


class HttpServer:
    """The asyncio listener: connection loop, timeouts, logging, shutdown."""

    def __init__(
        self,
        handler: Handler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = 1 << 20,
        request_timeout: float = 30.0,
        log_requests: bool = True,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_request_bytes = max_request_bytes
        self.request_timeout = request_timeout
        self.log_requests = log_requests
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and listen; ``port=0`` picks a free port (read it back)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self, *, drain_seconds: float = 30.0) -> None:
        """Stop listening, then let open connections finish (bounded)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [t for t in self._connections if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=drain_seconds)
        for task in self._connections:
            if not task.done():  # pragma: no cover - pathological client
                task.cancel()

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_request_bytes
                    )
                except HttpError as exc:
                    writer.write(
                        response_bytes(exc.status, {"error": str(exc)})
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                t0 = time.perf_counter()
                status, payload = await self._dispatch(request)
                raw = response_bytes(status, payload)
                writer.write(raw)
                await writer.drain()
                if self.log_requests:
                    log.info(
                        "%s",
                        json.dumps(
                            {
                                "ts": time.strftime(
                                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                                ),
                                "method": request.method,
                                "path": request.path,
                                "status": status,
                                "ms": round(
                                    (time.perf_counter() - t0) * 1e3, 3
                                ),
                                "bytes_in": len(request.body),
                                "bytes_out": len(raw),
                            },
                            sort_keys=True,
                        ),
                    )
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: HttpRequest) -> tuple[int, dict | bytes]:
        """Run the handler under the per-request timeout; map failures."""
        try:
            return await asyncio.wait_for(
                self.handler(request), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            return 503, {
                "error": (
                    f"request exceeded the {self.request_timeout}s budget"
                )
            }
        except HttpError as exc:
            return exc.status, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - boundary: never crash the loop
            log.exception("unhandled error serving %s", request.path)
            return 500, {"error": f"internal error: {exc}"}
