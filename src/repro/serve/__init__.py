"""repro.serve — consistency checking as a service.

The ROADMAP's "consistency checking as a service" item, productionized:
an asyncio HTTP front end over the engine substrate.  Clients submit
histories or litmus text and get back exactly what the in-process API
would have given them — verdict + witness JSON per model, byte-equal to
:func:`repro.checking.check` — with every verdict landed in a
result store (JSONL or the content-addressed SQLite backend) keyed by a
content hash, so repeated submissions are served from the store instead
of re-searched.

- :mod:`repro.serve.service` — :class:`CheckService`: content-addressed
  job keys, a thread worker pool with per-thread relation caches, the
  async job table (sweeps), the incremental session table (LRU-bounded
  :class:`~repro.engine.session.EngineSession` instances behind
  ``POST /session`` + ``/session/<id>/append``), store integration, and
  the stats aggregate.
- :mod:`repro.serve.http` — a minimal stdlib HTTP/1.1 layer on asyncio
  streams: bounded request sizes, per-request timeouts, keep-alive,
  structured JSON request logging.
- :mod:`repro.serve.app` — the endpoint table wiring the two together,
  plus :func:`run_server` (the ``python -m repro serve`` body) and
  :class:`ServerThread` (the in-process harness tests and benchmarks
  drive).

See ``docs/serve.md`` for the endpoint reference and deployment notes.
"""

from repro.serve.app import ServeApp, ServerThread, run_server
from repro.serve.http import HttpRequest, HttpServer
from repro.serve.service import CheckService, ServeConfig, job_key

__all__ = [
    "CheckService",
    "HttpRequest",
    "HttpServer",
    "ServeApp",
    "ServeConfig",
    "ServerThread",
    "job_key",
    "run_server",
]
