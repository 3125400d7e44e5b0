"""The endpoint table, the blocking server entry point, and the harness.

Endpoints (see ``docs/serve.md`` for the full request/response shapes):

=======  ==========================  ==========================================
method   path                        meaning
=======  ==========================  ==========================================
GET      ``/healthz``                liveness (also reports draining state)
GET      ``/models``                 the registered model names
GET      ``/stats``                  service counters, per-model verdicts,
                                     session/incremental totals, store totals
POST     ``/check``                  check a history; sync by default,
                                     ``"async": true`` queues and returns 202
                                     with the content key
POST     ``/sweep``                  queue a sweep job; 202 with the job id
GET      ``/job/<id>``               poll a sweep job
GET      ``/result/<key>``           a completed check by content key
GET      ``/witness/<key>``          just the witness views of a completed
                                     check
POST     ``/session``                open an incremental session; 201 with the
                                     session id and the seed prefix's verdicts
POST     ``/session/<id>/append``    stream op lines in; per-op admit/deny
                                     rows plus the new prefix's verdicts
GET      ``/session/<id>``           snapshot: history, verdicts, witness
                                     views, denial reasons, per-op log
DELETE   ``/session/<id>``           close the session
=======  ==========================  ==========================================

:func:`run_server` is the body of ``python -m repro serve`` (signal-aware,
drains in-flight jobs on SIGINT/SIGTERM); :class:`ServerThread` runs the
same stack on a background thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading
from concurrent.futures import Future
from typing import Any

from repro.checking.models import model_names
from repro.core.errors import EngineError
from repro.serve.http import HttpRequest, HttpServer
from repro.serve.service import CheckService, ServeConfig, ServeError

__all__ = ["ServeApp", "ServerThread", "run_server"]

log = logging.getLogger("repro.serve")


class ServeApp:
    """Routes requests onto a :class:`CheckService`."""

    def __init__(self, service: CheckService) -> None:
        self.service = service

    async def handle(self, request: HttpRequest) -> tuple[int, dict | bytes]:
        """The :class:`~repro.serve.http.HttpServer` handler coroutine."""
        method, path = request.method, request.path.rstrip("/") or "/"
        try:
            if path == "/healthz" and method == "GET":
                return 200, {
                    "status": "draining" if self.service.closing else "ok"
                }
            if path == "/models" and method == "GET":
                return 200, {"models": list(model_names())}
            if path == "/stats" and method == "GET":
                return 200, self.service.stats()
            if path == "/check":
                if method != "POST":
                    return 405, {"error": "POST /check"}
                return await self._check(request.json())
            if path == "/sweep":
                if method != "POST":
                    return 405, {"error": "POST /sweep"}
                return self._sweep(request.json())
            if path == "/session":
                if method != "POST":
                    return 405, {"error": "POST /session"}
                return await self._session_create(request.json())
            if path.startswith("/session/"):
                return await self._session(request, path[len("/session/") :])
            if path.startswith("/job/") and method == "GET":
                return self._job(path[len("/job/") :])
            if path.startswith("/result/") and method == "GET":
                return self._result(path[len("/result/") :])
            if path.startswith("/witness/") and method == "GET":
                return self._witness(path[len("/witness/") :])
            return 404, {"error": f"no route for {method} {request.path}"}
        except ServeError as exc:
            return 400, {"error": str(exc)}
        except EngineError as exc:
            # Submission refused: the service is draining.
            return 503, {"error": str(exc)}

    # -- the endpoints -----------------------------------------------------------

    async def _check(self, body: dict) -> tuple[int, dict | bytes]:
        if "history" not in body:
            raise ServeError('POST /check needs a "history" field')
        key, outcome = self.service.submit_check(
            body["history"], body.get("models")
        )
        if not isinstance(outcome, Future):  # cache or store hit
            return 200, outcome
        if body.get("async"):
            return 202, {
                "key": key,
                "status": "queued",
                "poll": f"/result/{key}",
            }
        # Shielded: a request that times out stops waiting without
        # cancelling a check that other requests may share.
        return 200, await asyncio.shield(asyncio.wrap_future(outcome))

    async def _session_create(self, body: dict) -> tuple[int, dict]:
        future = self.service.create_session(body)
        return 201, await asyncio.wrap_future(future)

    async def _session(
        self, request: HttpRequest, tail: str
    ) -> tuple[int, dict]:
        """Dispatch ``/session/<id>`` and ``/session/<id>/append``."""
        if tail.endswith("/append"):
            session_id = tail[: -len("/append")].rstrip("/")
            if request.method != "POST":
                return 405, {"error": f"POST /session/{session_id}/append"}
            future = self.service.append_session(session_id, request.json())
            if future is None:
                return 404, {"error": f"unknown session {session_id!r}"}
            return 200, await asyncio.wrap_future(future)
        if request.method == "GET":
            snapshot = self.service.session_state(tail)
            if snapshot is None:
                return 404, {"error": f"unknown session {tail!r}"}
            return 200, snapshot
        if request.method == "DELETE":
            closed = self.service.close_session(tail)
            if closed is None:
                return 404, {"error": f"unknown session {tail!r}"}
            return 200, closed
        return 405, {"error": f"GET/DELETE /session/{tail}"}

    def _sweep(self, body: dict) -> tuple[int, dict]:
        job = self.service.submit_sweep(body)
        status = 200 if job.status == "done" else 202
        return status, {**job.describe(), "poll": f"/job/{job.id}"}

    def _job(self, job_id: str) -> tuple[int, dict]:
        job = self.service.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.describe()

    def _result(self, key: str) -> tuple[int, dict | bytes]:
        response = self.service.cached_response(key)
        if response is None:
            return 404, {"error": f"no completed result for key {key!r}"}
        return 200, response

    def _witness(self, key: str) -> tuple[int, dict]:
        response = self.service.cached_response(key)
        if response is None:
            return 404, {"error": f"no completed result for key {key!r}"}
        if isinstance(response, bytes):
            response = json.loads(response)
        return 200, {
            "key": key,
            "models": response.get("models", {}),
            "views": response.get("views", {}),
        }


async def _serve(config: ServeConfig, *, ready: "threading.Event | None" = None,
                 stop: asyncio.Event | None = None) -> None:
    """The shared server body: start, announce, wait, drain."""
    service = CheckService(config)
    app = ServeApp(service)
    server = HttpServer(
        app.handle,
        host=config.host,
        port=config.port,
        max_request_bytes=config.max_request_bytes,
        request_timeout=config.request_timeout,
        log_requests=config.log_requests,
    )
    await server.start()
    log.info(
        "serving on http://%s:%d (store: %s, workers: %d)",
        config.host,
        server.port,
        config.store_url or "memory only",
        config.workers,
    )
    if stop is None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # pragma: no cover
                loop.add_signal_handler(signum, stop.set)
    if ready is not None:
        ready.set()
    await stop.wait()
    log.info("shutting down: draining in-flight jobs")
    await server.shutdown()
    await asyncio.get_running_loop().run_in_executor(None, service.drain)
    log.info("drained; store closed")


def run_server(config: ServeConfig) -> int:
    """Serve until SIGINT/SIGTERM; the ``python -m repro serve`` body."""
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    print(
        f"repro serve: listening on http://{config.host}:{config.port} "
        f"(store: {config.store_url or 'memory only'}; Ctrl-C drains and exits)"
    )
    asyncio.run(_serve(config))
    return 0


class ServerThread:
    """The full server stack on a daemon thread (tests and benchmarks).

    ::

        with ServerThread(ServeConfig(port=0, store_url="sqlite:r.db")) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port)
            ...

    ``port=0`` binds a free port; :attr:`port` holds the real one once
    the context is entered.  Exit requests a graceful shutdown and joins
    the thread — in-flight jobs drain exactly as they do under SIGTERM.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig(port=0)
        self.port: int | None = None
        self.service: CheckService | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        service = CheckService(self.config)
        self.service = service
        app = ServeApp(service)
        server = HttpServer(
            app.handle,
            host=self.config.host,
            port=self.config.port,
            max_request_bytes=self.config.max_request_bytes,
            request_timeout=self.config.request_timeout,
            log_requests=self.config.log_requests,
        )
        await server.start()
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.shutdown()
        await self._loop.run_in_executor(None, service.drain)

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("server failed to start within 30s")
        return self

    def shutdown(self) -> None:
        """Graceful stop: drain in-flight jobs, close the store, join."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
