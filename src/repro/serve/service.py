"""The service core: content-addressed check jobs over a thread pool.

:class:`CheckService` is everything the HTTP layer is not: it resolves
submitted histories (litmus text, catalog names, or wire dicts), keys
each job by a content hash of ``(canonical history, model set)``, runs
checks on a thread pool, lands every verdict in a result store (either
backend of :func:`repro.engine.sqlstore.open_store`), and answers repeat
submissions from the store or the in-memory result cache instead of
re-searching.  The cache holds each completed check's response as its
encoded JSON body, encoded once in the worker thread that ran the
check (or, for a key only the store knows, on its first store hit), so
a repeat costs the event loop a key lookup and a socket write.
Concurrent submissions of one key share one future: the check
runs once.

Sweeps are *async jobs*: submission returns a job id immediately (itself
content-addressed, so resubmitting a finished sweep returns its report),
and the job table is what ``GET /job/<id>`` polls.  Graceful shutdown
drains the pool — in-flight jobs finish and their results are persisted
— before the store is summarized and closed.

*Sessions* are the incremental mode: ``POST /session`` opens an
:class:`~repro.engine.session.EngineSession` (a growing history with a
live per-model verdict), ``POST /session/<id>/append`` streams
operations in one at a time and returns per-op admit/deny rows, and
``GET /session/<id>`` snapshots the current prefix — witness views for
admitting models, denial reasons for denying ones.  The table is an LRU
bounded by :attr:`ServeConfig.max_sessions`; the per-session counters in
``GET /stats`` are the sessions' own
(:meth:`~repro.engine.session.EngineSession.counters`), so the service
installs no trace sink and its checks run the untraced path.

Verdict fidelity is the contract: a fresh check runs the model's one
decision procedure, :meth:`repro.checking.models.MemoryModel.check`, and
serializes the result with
:func:`repro.core.serialization.check_result_to_dict`, so the HTTP
response carries the *same* verdict + witness JSON the in-process API
returns (the integration suite asserts this for every catalog × model
pair).
"""

from __future__ import annotations

import functools
import hashlib
import json
import secrets
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.checking.models import MODELS
from repro.checking.models import resolve_models as _resolve_models
from repro.core.errors import CheckerError, EngineError, ReproError
from repro.core.history import SystemHistory
from repro.core.serialization import (
    canonical_history_json,
    check_result_to_dict,
    history_from_dict,
)
from repro.engine import CheckEngine, SweepSpec, open_store
from repro.engine.session import SESSION_COUNTERS, EngineSession
from repro.kernel.constraints import plane_cache_stats
from repro.serve.http import json_body

__all__ = [
    "CheckService",
    "ServeConfig",
    "ServeError",
    "SessionState",
    "job_key",
    "sweep_key",
]


class ServeError(ReproError):
    """A client-attributable service error (maps to HTTP 400)."""


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``python -m repro serve`` lets an operator set."""

    host: str = "127.0.0.1"
    port: int = 8979
    #: Worker threads checking histories.
    workers: int = 2
    #: Store URL (see :func:`repro.engine.sqlstore.open_store`); ``None``
    #: serves from memory only.
    store_url: str | None = None
    #: Worker processes for sweep jobs (1 = in the worker thread).
    sweep_jobs: int = 1
    #: Reject request bodies larger than this (HTTP 413).
    max_request_bytes: int = 1 << 20
    #: Per-request wall clock budget in seconds (HTTP 503 on expiry).
    request_timeout: float = 30.0
    #: Emit one structured JSON log line per request.
    log_requests: bool = True
    #: Bound on in-memory cached check response bodies (the store is
    #: durable).
    result_cache: int = 4096
    #: Bound on live incremental sessions; creating one past the bound
    #: evicts the least-recently-used session.
    max_sessions: int = 64


#: How a completed check's encoded body starts.  ``"cached"`` sorts first
#: among the response's keys, so the cold and the hit body of one check
#: differ only in this prefix and come from one encode.
_COLD_PREFIX = b'{"cached": false'
_HIT_PREFIX = b'{"cached": true'


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def job_key(
    history: SystemHistory,
    models: tuple[str, ...],
    *,
    encoded: str | None = None,
) -> str:
    """The content address of one check job.

    A hash of the canonical wire encoding of the history plus the sorted
    model set — the same history submitted as litmus text, a catalog
    name, or a wire dict lands on the same key, which is what makes the
    store a cache and not just a log.  ``encoded``, when given, is
    ``canonical_history_json(history)`` already computed (a catalog
    entry keeps its own).
    """
    if encoded is None:
        encoded = canonical_history_json(history)
    # The canonical JSON of {"history": wire, "models": sorted(models)}.
    payload = f'{{"history":{encoded},"models":{_canonical(sorted(models))}}}'
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"chk:{digest[:32]}"


def sweep_key(spec: SweepSpec) -> str:
    """The content address of a sweep job (its declarative description)."""
    digest = hashlib.sha256(_canonical(spec.describe()).encode("utf-8")).hexdigest()
    return f"swp:{digest[:32]}"


def resolve_history(value: Any) -> SystemHistory:
    """A history from any submission form the API accepts.

    A dict is the versioned wire format; a string is litmus notation or
    a catalog entry name (unambiguous prefixes resolve, mirroring the
    CLI).  Anything else — or a parse failure — raises
    :class:`ServeError`, which the HTTP layer maps to a 400.
    """
    return resolve_submission(value)[0]


def resolve_submission(value: Any) -> tuple[SystemHistory, str]:
    """:func:`resolve_history` plus :func:`canonical_history_json` of it.

    A catalog entry's encoding is computed once and kept on the entry,
    so a named submission is keyed without serializing its history.
    """
    if isinstance(value, dict):
        try:
            history = history_from_dict(value)
        except ReproError as exc:
            raise ServeError(f"bad history dict: {exc}") from exc
        return history, canonical_history_json(history)
    if isinstance(value, str):
        from repro.litmus import CATALOG, parse_history

        entry = CATALOG.get(value)
        if entry is None:
            matches = [name for name in CATALOG if name.startswith(value)]
            if len(matches) == 1:
                entry = CATALOG[matches[0]]
        if entry is not None:
            return entry.history, entry.canonical_json
        try:
            history = parse_history(value)
        except ReproError as exc:
            raise ServeError(f"bad litmus text: {exc}") from exc
        return history, canonical_history_json(history)
    raise ServeError(
        f"history must be litmus text, a catalog name, or a wire dict; "
        f"got {type(value).__name__}"
    )


def resolve_models(value: Any) -> tuple[str, ...]:
    """A concrete model tuple from ``None``/alias/string/list input.

    ``None`` and ``"paper"`` mean the Figure 5 set, ``"all"`` every
    registered model, ``"spec"`` every spec-backed model; otherwise a
    list (or comma string) of registered names
    (:func:`repro.checking.models.resolve_models`).
    """
    try:
        return _resolve_models(value)
    except CheckerError as exc:
        raise ServeError(str(exc)) from exc


@dataclass
class Job:
    """One async unit in the job table (sweeps; checks resolve inline)."""

    id: str
    kind: str
    status: str = "queued"  # queued | running | done | error
    submitted: float = field(default_factory=time.time)
    detail: dict = field(default_factory=dict)
    result: dict | None = None
    error: str | None = None

    def describe(self) -> dict:
        d: dict = {
            "job": self.id,
            "kind": self.kind,
            "status": self.status,
            **self.detail,
        }
        if self.result is not None:
            d["report"] = self.result
        if self.error is not None:
            d["error"] = self.error
        return d


@dataclass
class SessionState:
    """One live incremental session in the service's session table.

    The :class:`~repro.engine.session.EngineSession` is single-threaded
    by contract, so every append (and every state snapshot) holds
    :attr:`lock`; the table itself is an LRU keyed by :attr:`id`.
    """

    id: str
    session: EngineSession
    lock: threading.Lock = field(default_factory=threading.Lock)
    created: float = field(default_factory=time.time)
    last_used: float = field(default_factory=time.time)
    #: Per-op verdict log: one ``{"op", "verdicts", "denying"}`` row per
    #: appended operation, in append order.
    log: list[dict] = field(default_factory=list)


class CheckService:
    """Content-addressed consistency checking over a thread worker pool."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.store = (
            open_store(self.config.store_url)
            if self.config.store_url
            else None
        )
        self._store_lock = threading.Lock()
        # Sweep jobs run one at a time, each on its own engine, so at most
        # one sweep worker pool exists; concurrent submissions queue.
        self._sweep_run_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        # Completed checks' hit bodies, least recently used first, bounded
        # by ``result_cache``; and the futures of checks still running, by
        # key.  One lock guards both, so a key moves from the second to
        # the first without a moment in neither.
        self._results: OrderedDict[str, bytes] = OrderedDict()
        self._inflight: dict[str, Future] = {}
        self._results_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._sessions: OrderedDict[str, SessionState] = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._session_counters: dict[str, int] = {
            "created": 0,
            "evicted": 0,
            "closed": 0,
        }
        # The incremental counters of sessions no longer in the table, so
        # /stats totals every session the service has run.
        self._retired_counters = dict.fromkeys(SESSION_COUNTERS, 0)
        self._stats_lock = threading.Lock()
        self._verdicts: dict[str, dict[str, int]] = {}
        self._model_seconds: dict[str, float] = {}
        self._counters: dict[str, int] = {
            "checks": 0,
            "cache_hits": 0,
            "store_hits": 0,
            "sweeps": 0,
        }
        self.started = time.time()
        self.closing = False
        if self.store is not None:
            with self._store_lock:
                self.store.append_run_header(
                    {
                        "spec": {"source": "serve"},
                        "jobs": self.config.workers,
                        "started": time.strftime(
                            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                        ),
                        "resumed_keys": len(self.store.completed_keys()),
                    }
                )

    # -- the worker body ---------------------------------------------------------

    def _run_check(
        self, key: str, history: SystemHistory, models: tuple[str, ...]
    ) -> bytes:
        """Check one history under each model (worker-thread body).

        Returns the cold response body and remembers the hit body; both
        are encoded here, off the event loop.
        """
        from repro.litmus import format_history

        results: dict[str, dict] = {}
        verdicts: dict[str, bool] = {}
        explored: dict[str, int] = {}
        for name in models:
            t0 = time.perf_counter()
            result = MODELS[name].check(history)
            seconds = time.perf_counter() - t0
            results[name] = check_result_to_dict(result)
            verdicts[name] = result.allowed
            explored[name] = result.explored
            self._note_verdict(name, result.allowed, seconds)
        views = {
            name: d["views"]
            for name, d in results.items()
            if d["allowed"] and d["views"]
        }
        response = {
            "key": key,
            "history": format_history(history),
            "models": verdicts,
            "explored": explored,
            "views": views,
            "results": results,
            "cached": False,
        }
        body = json_body(response)
        if self.store is not None:
            with self._store_lock:
                self.store.append_result(
                    key, verdicts, explored, views=views or None
                )
        self._remember(key, _HIT_PREFIX + body[len(_COLD_PREFIX) :])
        return body

    def _note_verdict(self, model: str, allowed: bool, seconds: float) -> None:
        verdict = "admit" if allowed else "deny"
        with self._stats_lock:
            self._counters["checks"] += 1
            per_model = self._verdicts.setdefault(
                model, {"admit": 0, "deny": 0}
            )
            per_model[verdict] += 1
            self._model_seconds[model] = (
                self._model_seconds.get(model, 0.0) + seconds
            )

    def _remember(self, key: str, body: bytes) -> None:
        with self._results_lock:
            self._results[key] = body
            self._results.move_to_end(key)
            while len(self._results) > self.config.result_cache:
                self._results.popitem(last=False)

    # -- lookups -----------------------------------------------------------------

    def cached_response(self, key: str) -> bytes | None:
        """The encoded hit body for ``key``, or ``None`` for an unknown key.

        A key only the store knows is read and encoded once, then served
        from the memory cache like any other hit.
        """
        with self._results_lock:
            body = self._hit(key)
        if body is not None:
            self._note_cache_hit()
            return body
        return self._stored_response(key)

    def _hit(self, key: str) -> bytes | None:
        """The cached body of ``key``, marked most recently used.

        Callers hold ``_results_lock``.
        """
        body = self._results.get(key)
        if body is not None:
            self._results.move_to_end(key)
        return body

    def _note_cache_hit(self) -> None:
        with self._stats_lock:
            self._counters["cache_hits"] += 1

    def _stored_response(self, key: str) -> bytes | None:
        """The store record's hit body, remembered in the memory cache."""
        if self.store is None:
            return None
        with self._store_lock:
            if key not in self.store.completed_keys():
                return None
            record = self.store.latest_result(key)
        if record is None:
            return None
        with self._stats_lock:
            self._counters["store_hits"] += 1
        body = json_body(
            {
                "key": key,
                "models": record.get("models", {}),
                "explored": record.get("explored", {}),
                "views": record.get("views", {}),
                "cached": True,
            }
        )
        self._remember(key, body)
        return body

    # -- submission --------------------------------------------------------------

    def _submit(self, fn, *args) -> Future:
        if self.closing:
            raise EngineError("service is draining; not accepting new work")
        return self._executor.submit(fn, *args)

    def submit_check(
        self, history_input: Any, models_input: Any = None
    ) -> tuple[str, bytes | Future]:
        """Key plus the outcome, answered without the pool where possible.

        The outcome is the encoded hit body (memory cache or store) or a
        future of the cold body.  A key already being checked gets that
        check's future.
        """
        history, encoded = resolve_submission(history_input)
        models = resolve_models(models_input)
        key = job_key(history, models, encoded=encoded)
        with self._results_lock:
            body = self._hit(key)
            pending = self._inflight.get(key)
        if body is not None:
            self._note_cache_hit()
            return key, body
        if pending is not None:
            return key, pending
        stored = self._stored_response(key)
        if stored is not None:
            return key, stored
        with self._results_lock:
            # Another thread may have submitted the key meanwhile.
            pending = self._inflight.get(key)
            if pending is None:
                future = self._submit(self._run_check, key, history, models)
                self._inflight[key] = future
        if pending is not None:
            return key, pending
        # Outside the lock: a future already done runs the callback at
        # once, in this thread.
        future.add_done_callback(functools.partial(self._settle, key))
        return key, future

    def _settle(self, key: str, future: Future) -> None:
        """Drop a finished (done, failed or cancelled) check's future."""
        with self._results_lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def submit_sweep(self, params: dict) -> Job:
        """Queue a sweep job; returns its (content-addressed) job entry."""
        allowed = {
            "source",
            "models",
            "procs",
            "ops_per_proc",
            "count",
            "seed",
            "p_write",
        }
        unknown = set(params) - allowed
        if unknown:
            raise ServeError(
                f"unknown sweep parameter(s): {', '.join(sorted(unknown))}"
            )
        if "models" in params:
            params = {**params, "models": resolve_models(params["models"])}
        try:
            spec = SweepSpec(**params)
        except (TypeError, ReproError) as exc:
            raise ServeError(f"bad sweep spec: {exc}") from exc
        job = Job(id=sweep_key(spec), kind="sweep", detail={"spec": spec.describe()})
        with self._jobs_lock:
            existing = self._jobs.get(job.id)
            if existing is not None:
                return existing
            self._jobs[job.id] = job
        with self._stats_lock:
            self._counters["sweeps"] += 1
        self._submit(self._run_sweep, job, spec)
        return job

    def _run_sweep(self, job: Job, spec: SweepSpec) -> None:
        job.status = "running"
        try:
            # The sweep shares the service's store; per-record appends
            # are thread-safe on both backends (single O_APPEND writes /
            # SQLite's internal lock), so concurrent /check appends
            # interleave at record granularity.  The run lock only
            # serializes sweeps against each other.
            with self._sweep_run_lock:
                engine = CheckEngine(jobs=self.config.sweep_jobs)
                if self.store is not None:
                    report = engine.run(spec, store=self.store, resume=True)
                else:
                    report = engine.run(spec)
            job.result = {
                "counts": report.counts,
                "metrics": report.metrics.to_dict(),
            }
            job.status = "done"
        except Exception as exc:  # noqa: BLE001 - job errors are data
            job.error = str(exc)
            job.status = "error"

    def job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    # -- incremental sessions ----------------------------------------------------

    def create_session(self, params: Any) -> Future:
        """Queue session creation; the future resolves to the opening state.

        Creation runs on the worker pool because a seed history's
        baseline check is a real search.  The response carries the fresh
        session id and the seed prefix's per-model verdicts.
        """
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise ServeError("POST /session takes a JSON object")
        unknown = set(params) - {"models", "history"}
        if unknown:
            raise ServeError(
                f"unknown session parameter(s): {', '.join(sorted(unknown))}"
            )
        return self._submit(self._open_session, params)

    def _open_session(self, params: dict) -> dict:
        models = resolve_models(params.get("models"))
        history = None
        if params.get("history") is not None:
            history = resolve_history(params["history"])
        try:
            session = EngineSession(models, history=history)
        except ReproError as exc:
            raise ServeError(str(exc)) from exc
        state = SessionState(
            id=f"ses:{secrets.token_hex(8)}", session=session
        )
        with self._sessions_lock:
            self._sessions[state.id] = state
            self._session_counters["created"] += 1
            while len(self._sessions) > self.config.max_sessions:
                _, evicted = self._sessions.popitem(last=False)
                self._session_counters["evicted"] += 1
                self._retire(evicted)
        return {
            "session": state.id,
            "models": list(models),
            "operations": len(session.history.operations),
            "verdicts": session.verdicts(),
            "denying": list(session.denying()),
        }

    def _lookup_session(self, session_id: str) -> SessionState | None:
        with self._sessions_lock:
            state = self._sessions.get(session_id)
            if state is not None:
                self._sessions.move_to_end(session_id)
        return state

    def append_session(self, session_id: str, params: Any) -> Future | None:
        """Queue appends onto a session; ``None`` for an unknown id (404)."""
        state = self._lookup_session(session_id)
        if state is None:
            return None
        if not isinstance(params, dict):
            raise ServeError("POST /session/<id>/append takes a JSON object")
        if "op" in params:
            lines: list[Any] = [params["op"]]
        elif "ops" in params:
            lines = params["ops"] if isinstance(params["ops"], list) else None
        else:
            raise ServeError('append needs an "op" line or an "ops" list')
        if lines is None or not all(isinstance(x, str) for x in lines):
            raise ServeError('"op"/"ops" entries must be op-line strings')
        if not lines:
            raise ServeError("nothing to append")
        return self._submit(self._append_session, state, lines)

    def _append_session(self, state: SessionState, lines: list[str]) -> dict:
        """Apply op lines one at a time (worker-thread body).

        Each appended operation gets its own per-model verdict row in
        ``steps`` (and the session's durable log).  A bad line raises
        after the preceding ops have landed — the error response says so
        and ``GET /session/<id>`` shows the surviving prefix.
        """
        steps: list[dict] = []
        with state.lock:
            session = state.session
            try:
                for line in lines:
                    for op, results in session.append_line(line):
                        step = {
                            "op": str(op),
                            "verdicts": {
                                m: r.allowed for m, r in results.items()
                            },
                            "denying": [
                                m for m, r in results.items() if not r.allowed
                            ],
                        }
                        steps.append(step)
                        state.log.append(step)
            except ReproError as exc:
                raise ServeError(
                    f"{exc} ({len(steps)} op(s) of this request were "
                    "already appended)"
                ) from exc
            state.last_used = time.time()
            verdicts = session.verdicts()
            return {
                "session": state.id,
                "operations": len(session.history.operations),
                "steps": steps,
                "verdicts": verdicts,
                "denying": list(session.denying()),
                "admitted": all(verdicts.values()),
            }

    def session_state(self, session_id: str) -> dict | None:
        """The ``GET /session/<id>`` snapshot, or ``None`` (404).

        Carries the full per-model results of the current prefix — the
        witness views of admitting models and the denial reasons of
        denying ones — plus the per-op verdict log.
        """
        state = self._lookup_session(session_id)
        if state is None:
            return None
        from repro.litmus import format_history

        with state.lock:
            session = state.session
            results = {
                m: check_result_to_dict(r)
                for m, r in session.last_results.items()
            }
            return {
                "session": state.id,
                "models": list(session.models),
                "operations": len(session.history.operations),
                "history": format_history(session.history),
                "verdicts": session.verdicts(),
                "denying": list(session.denying()),
                "views": {
                    m: d["views"]
                    for m, d in results.items()
                    if d["allowed"] and d["views"]
                },
                "reasons": {
                    m: d["reason"]
                    for m, d in results.items()
                    if not d["allowed"]
                },
                "results": results,
                "log": list(state.log),
            }

    def close_session(self, session_id: str) -> dict | None:
        """Drop a session from the table; ``None`` for an unknown id."""
        with self._sessions_lock:
            state = self._sessions.pop(session_id, None)
            if state is not None:
                self._session_counters["closed"] += 1
                self._retire(state)
        if state is None:
            return None
        with state.lock:
            return {
                "session": session_id,
                "closed": True,
                "operations": len(state.session.history.operations),
            }

    def _retire(self, state: SessionState) -> None:
        """Keep a departing session's counters.  Callers hold ``_sessions_lock``.

        An append still running on an evicted session is counted up to
        the eviction.
        """
        for name, count in state.session.counters().items():
            self._retired_counters[name] += count

    # -- stats -------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``GET /stats`` aggregate: service, sessions, plane cache, store."""
        with self._stats_lock:
            counters = dict(self._counters)
            verdicts = {m: dict(v) for m, v in sorted(self._verdicts.items())}
            model_seconds = {
                m: round(s, 6) for m, s in sorted(self._model_seconds.items())
            }
        with self._jobs_lock:
            jobs_by_status: dict[str, int] = {}
            for job in self._jobs.values():
                jobs_by_status[job.status] = (
                    jobs_by_status.get(job.status, 0) + 1
                )
        with self._sessions_lock:
            sessions = {
                "active": len(self._sessions),
                **self._session_counters,
                **self._retired_counters,
            }
            for state in self._sessions.values():
                for name, count in state.session.counters().items():
                    sessions[name] += count
        stats = {
            "uptime_seconds": round(time.time() - self.started, 3),
            "workers": self.config.workers,
            "plane_cache": plane_cache_stats(),
            # Always zero now that no check runs the prepass; kept because
            # bench/workloads.py reads it, until the next benchmark change.
            "prepass_rules": dict.fromkeys(
                ("denied", "admitted", "passed", "abstained"), 0
            ),
            "counters": counters,
            "verdicts": verdicts,
            "model_seconds": model_seconds,
            "jobs": jobs_by_status,
            "sessions": sessions,
        }
        if self.store is not None:
            stats["store"] = {
                "url": self.config.store_url,
                **self.store.summarize(),
            }
        return stats

    # -- shutdown ----------------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting work, finish in-flight jobs, close the store.

        The graceful half of shutdown: every queued/running check and
        sweep completes and lands in the store, then the store gets its
        end-of-run summary record and is closed.  Idempotent.
        """
        self.closing = True
        self._executor.shutdown(wait=True)
        if self.store is not None:
            with self._store_lock:
                self.store.append_summary(self.store.summarize())
                self.store.close()
            self.store = None
