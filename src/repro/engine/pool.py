"""The batch-checking executor: serial or multiprocessing, same results.

:class:`CheckEngine` runs the jobs of a :class:`~repro.engine.jobs.SweepSpec`
either in-process (``jobs=1``) or on a :mod:`multiprocessing` pool with
per-worker warm model registries and relation caches.  Dispatch is chunked
and ordered (``Pool.imap`` over deterministic chunks), so the stream of
result records — and therefore the bytes in the result store — is identical
for any worker count.

Histories cross the process boundary in the versioned wire format of
:mod:`repro.core.serialization` rather than as pickled objects, keeping the
protocol stable and start-method agnostic (fork and spawn both work).

A *persistent* engine (``persistent=True``) is the warm-daemon variant the
serve layer runs on: the worker pool is created once and reused across
runs, and sweep payloads travel through the shared-memory
:class:`~repro.engine.arena.PlaneArena` — one segment per distinct
history (keyed by :func:`~repro.engine.arena.plane_key` content hash)
holding the history plus its compiled plane masks — so a repeated sweep
re-pickles nothing and workers skip recompilation by installing the
decoded plane into the kernel's plane LRU.
"""

from __future__ import annotations

import multiprocessing
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.checking.models import MODELS, check, model_names
from repro.core.errors import EngineError
from repro.core.history import SystemHistory
from repro.core.serialization import history_from_dict, history_to_dict, view_to_dict
from repro.engine.arena import PlaneArena, plane_key
from repro.engine.cache import RelationCache
from repro.engine.jobs import SweepSpec
from repro.engine.metrics import EngineMetrics
from repro.engine.store import ResultStore
from repro.kernel.constraints import install_plane
from repro.orders.memo import relation_memo

__all__ = ["CheckEngine", "SweepReport", "DEFAULT_CACHE_HISTORIES"]

#: Per-worker bound on distinct histories held in the relation cache.
DEFAULT_CACHE_HISTORIES = 256

#: One unit of worker input: (key, payload dict, model names).  The payload
#: is either a history wire dict or an arena marker
#: ``{"__arena__": segment_name}`` (see :func:`_payload_history`).
_Payload = tuple[str, dict, tuple[str, ...]]

# Per-worker state, installed by the pool initializer (one per process).
_WORKER_STATE: dict | None = None


def _fresh_state(
    cache_histories: int = DEFAULT_CACHE_HISTORIES,
    store_views: bool = False,
    prepass: bool = True,
) -> dict:
    return {
        "cache": RelationCache(max_histories=cache_histories),
        "store_views": store_views,
        "prepass": prepass,
        # Attach cache for arena payloads: segment name -> decoded history,
        # bounded like the relation cache.  A hit costs one dict lookup and
        # keeps the previously installed plane warm.
        "arena": OrderedDict(),
        "arena_bound": cache_histories,
    }


def _payload_history(payload: dict, state: dict) -> SystemHistory:
    """Materialize a payload's history: wire dict, or shared-memory segment.

    Arena payloads are decoded once per worker and cached by segment name;
    the decoded plane is installed into the kernel's plane LRU so every
    check of the history — this job and later jobs alike — compiles
    nothing the parent already compiled.
    """
    name = payload.get("__arena__")
    if name is None:
        return history_from_dict(payload)
    attach_cache: OrderedDict = state["arena"]
    cached = attach_cache.get(name)
    if cached is not None:
        attach_cache.move_to_end(name)
        return cached
    history, plane = PlaneArena.load(name)
    install_plane(history, plane)
    attach_cache[name] = history
    while len(attach_cache) > state["arena_bound"]:
        attach_cache.popitem(last=False)
    return history


def _warm_models() -> None:
    """Prime every registered checker on a two-operation history.

    Pays first-touch costs (lazy imports, NumPy initialisation, module
    setup) once per worker instead of inside the first timed job.
    """
    from repro.litmus import parse_history

    tiny = parse_history("p: w(x)1 | q: r(x)1")
    for name in model_names():
        check(tiny, name)


def _init_worker(cache_histories: int, store_views: bool, prepass: bool) -> None:
    global _WORKER_STATE
    _warm_models()
    _WORKER_STATE = _fresh_state(cache_histories, store_views, prepass)


def _run_chunk_impl(chunk: Sequence[_Payload], state: dict) -> dict:
    """Check every payload of ``chunk``; returns records plus cache deltas."""
    # Lazy import: the static layer sits above the kernel, and the engine
    # only needs it when the pre-pass is enabled.
    from repro.staticcheck.prepass import prepass_check

    cache: RelationCache = state["cache"]
    store_views: bool = state.get("store_views", False)
    prepass: bool = state.get("prepass", True)
    hits0, misses0 = cache.hits, cache.misses
    prepass_decided = 0
    prepass_admitted = 0
    # Per-phase wall time across the chunk: the static pre-pass vs the
    # decision procedure itself (folded into EngineMetrics.phase_seconds).
    phase_seconds: dict[str, float] = {}
    records: list[dict] = []
    for key, history_dict, models in chunk:
        history = _payload_history(history_dict, state)
        verdicts: dict[str, bool] = {}
        explored: dict[str, int] = {}
        views: dict[str, list[dict]] = {}
        model_seconds: dict[str, float] = {}
        with relation_memo(cache):
            for model in models:
                t0 = time.perf_counter()
                spec = MODELS[model].spec if prepass else None
                if spec is not None:
                    verdict = prepass_check(spec, history)
                    t1 = time.perf_counter()
                    phase_seconds["prepass"] = (
                        phase_seconds.get("prepass", 0.0) + t1 - t0
                    )
                    if verdict.decided:
                        # Sound definite verdict (a necessary-condition
                        # DENY or a constructed ADMIT witness): skip the
                        # search entirely.
                        verdicts[model] = verdict.allowed
                        explored[model] = 0
                        prepass_decided += 1
                        if verdict.allowed:
                            prepass_admitted += 1
                            if store_views and verdict.witness is not None:
                                views[model] = [
                                    view_to_dict(verdict.witness.views[proc])
                                    for proc in sorted(
                                        verdict.witness.views, key=str
                                    )
                                ]
                        model_seconds[model] = t1 - t0
                        continue
                else:
                    t1 = t0
                result = check(history, model)
                t2 = time.perf_counter()
                phase_seconds["check"] = phase_seconds.get("check", 0.0) + t2 - t1
                model_seconds[model] = t2 - t0
                verdicts[model] = result.allowed
                explored[model] = result.explored
                if store_views and result.views:
                    views[model] = [
                        view_to_dict(result.views[proc])
                        for proc in sorted(result.views, key=str)
                    ]
        record = {
            "key": key,
            "models": verdicts,
            "explored": explored,
            "model_seconds": model_seconds,
        }
        if store_views:
            record["views"] = views
        records.append(record)
    return {
        "records": records,
        "cache_hits": cache.hits - hits0,
        "cache_misses": cache.misses - misses0,
        "prepass_decided": prepass_decided,
        "prepass_admitted": prepass_admitted,
        "phase_seconds": phase_seconds,
    }


def _run_chunk(chunk: Sequence[_Payload]) -> dict:
    assert _WORKER_STATE is not None, "worker used before initialisation"
    return _run_chunk_impl(chunk, _WORKER_STATE)


def _terminate_pools(holder: list) -> None:
    """Terminate and forget every pool in ``holder`` (finalizer-safe)."""
    while holder:
        pool = holder.pop()
        pool.terminate()
        pool.join()


def _run_panel_chunk_impl(chunk: Sequence[_Payload], state: dict) -> list[dict]:
    """Oracle-panel verdicts for every payload of ``chunk``, in order.

    The differential fuzzer's worker body: each history is answered by the
    full panel (fast path, kernel, frozen legacy solver, static pre-pass)
    under the worker's relation memo.  Lazy import — the diff layer sits
    above the engine, and only fuzz runs need it.
    """
    from repro.diff.oracles import panel_verdicts

    cache: RelationCache = state["cache"]
    panels: list[dict] = []
    with relation_memo(cache):
        for _key, history_dict, models in chunk:
            history = _payload_history(history_dict, state)
            panels.append(panel_verdicts(history, models))
    return panels


def _run_panel_chunk(chunk: Sequence[_Payload]) -> list[dict]:
    assert _WORKER_STATE is not None, "worker used before initialisation"
    return _run_panel_chunk_impl(chunk, _WORKER_STATE)


@dataclass
class SweepReport:
    """What an engine run produced: results, counts, and metrics."""

    spec: SweepSpec
    metrics: EngineMetrics
    results: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    store_path: Path | None = None

    def render(self) -> str:
        lines = [self.metrics.render()]
        if self.counts:
            allowed = ", ".join(f"{m}={n}" for m, n in sorted(self.counts.items()))
            lines.append(f"allowed counts: {allowed}")
        if self.store_path is not None:
            lines.append(f"results written to {self.store_path}")
        return "\n".join(lines)


class CheckEngine:
    """Batch history checking with relation caching and optional parallelism.

    Parameters
    ----------
    jobs:
        Worker count; ``1`` runs everything in-process (no pool, no
        serialization round-trip) with identical results.
    chunk_size:
        Payloads per dispatch unit; default sizes chunks so each worker
        sees several chunks (load balance without dispatch overhead).
    cache_histories:
        Per-worker relation-cache bound (distinct histories).
    store_views:
        Also record witness views (wire-format, per model) in result
        records, so positive verdicts keep their evidence; off by default
        because views dominate record size on large sweeps.
    prepass:
        Run the polynomial static pre-pass
        (:mod:`repro.staticcheck.prepass`) before each spec-backed check
        and skip the search on a definite DENY.  Sound — verdicts are
        identical with it on or off — so it defaults on; disable to
        benchmark the raw kernel (``sweep --no-prepass``).
    persistent:
        Keep the worker pool alive across runs (the warm daemon) and, for
        ``jobs > 1``, ship sweep payloads through a shared-memory
        :class:`~repro.engine.arena.PlaneArena` instead of pickling each
        history per job.  Results are identical either way; call
        :meth:`close` (or use the engine as a context manager) when done.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: int | None = None,
        cache_histories: int = DEFAULT_CACHE_HISTORIES,
        store_views: bool = False,
        prepass: bool = True,
        persistent: bool = False,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.cache_histories = cache_histories
        self.store_views = store_views
        self.prepass = prepass
        self.persistent = persistent
        self._local_state: dict | None = None
        # The persistent pool lives in a one-slot holder so a finalizer can
        # terminate it without keeping the engine itself alive.
        self._pool_holder: list = []
        self._arena: PlaneArena | None = None
        self._finalizer = weakref.finalize(self, _terminate_pools, self._pool_holder)

    # -- warm-daemon lifecycle ---------------------------------------------------

    @property
    def arena(self) -> PlaneArena | None:
        """The live plane arena, if this engine runs warm with workers."""
        if not (self.persistent and self.jobs > 1):
            return None
        if self._arena is None:
            self._arena = PlaneArena()
        return self._arena

    def close(self) -> None:
        """Release the persistent pool and arena (idempotent).

        A closed engine stays usable — the next run simply starts cold
        again, re-creating the pool and arena on demand.
        """
        _terminate_pools(self._pool_holder)
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "CheckEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- serial cached checking (the in-process fast path) ----------------------

    @property
    def cache(self) -> RelationCache:
        """The in-process relation cache (serial path and ``classify``)."""
        if self._local_state is None:
            self._local_state = _fresh_state(self.cache_histories)
        return self._local_state["cache"]

    def classify(
        self, history: SystemHistory, models: Sequence[str] | None = None
    ) -> dict[str, bool]:
        """Verdicts of several models on one history, relation-cached.

        The in-process counterpart of :func:`repro.checking.classify`: the
        order relations are derived once and shared across the models.
        """
        names = tuple(models) if models is not None else model_names()
        from repro.staticcheck.prepass import prepass_check

        verdicts: dict[str, bool] = {}
        with relation_memo(self.cache):
            for name in names:
                spec = MODELS[name].spec if self.prepass else None
                verdict = prepass_check(spec, history) if spec is not None else None
                if verdict is not None and verdict.decided:
                    verdicts[name] = verdict.allowed
                else:
                    verdicts[name] = check(history, name).allowed
        return verdicts

    def map_classify(
        self, histories: Iterable[SystemHistory], models: Sequence[str]
    ) -> list[dict[str, bool]]:
        """Verdict maps for many histories, in input order.

        Runs on the worker pool when ``jobs > 1``; the in-process path uses
        the engine's own cache.  Results are identical either way.
        """
        names = tuple(models)
        payloads: list[_Payload] = [
            (f"{i:06d}", history_to_dict(h), names) for i, h in enumerate(histories)
        ]
        rows: list[dict[str, bool]] = []
        for out in self._execute(self._chunks(payloads)):
            rows.extend(record["models"] for record in out["records"])
        return rows

    def map_panel(
        self, histories: Iterable[SystemHistory], models: Sequence[str]
    ) -> list[dict]:
        """Differential oracle panels for many histories, in input order.

        The :mod:`repro.diff` fuzzer's batch entry point: every history is
        decided by *all four* oracles (fast path, kernel, legacy solver,
        static pre-pass; see :func:`repro.diff.oracles.panel_verdicts`).
        Runs on the worker pool when ``jobs > 1``; results are identical
        either way.
        """
        names = tuple(models)
        payloads: list[_Payload] = [
            (f"{i:06d}", history_to_dict(h), names) for i, h in enumerate(histories)
        ]
        panels: list[dict] = []
        for out in self._execute(
            self._chunks(payloads),
            impl=_run_panel_chunk_impl,
            worker=_run_panel_chunk,
        ):
            panels.extend(out)
        return panels

    # -- sweep driving -----------------------------------------------------------

    def run(
        self,
        spec: SweepSpec,
        store: ResultStore | None = None,
        resume: bool = False,
    ) -> SweepReport:
        """Run a sweep, optionally persisting to (and resuming from) a store.

        With ``resume=True`` and an existing store, jobs whose keys already
        have intact result records are skipped; everything else runs and is
        appended under a fresh run header.
        """
        all_jobs = list(spec.jobs())
        done = store.completed_keys() if (store is not None and resume) else set()
        todo = [job for job in all_jobs if job.key not in done]

        metrics = EngineMetrics(workers=self.jobs)
        metrics.skipped = len(all_jobs) - len(todo)
        t0 = time.perf_counter()
        if store is not None:
            store.append_run_header(
                {
                    "spec": spec.describe(),
                    "jobs": self.jobs,
                    "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "resumed_keys": metrics.skipped,
                }
            )

        arena = self.arena
        if arena is not None:
            # Warm path: one shared-memory segment per distinct history
            # (content-hash keyed — job keys collide across specs), shipped
            # by name instead of re-pickled per job.  Reserve before the
            # puts so eviction can never unlink a segment whose name is
            # still queued in a payload.
            arena.reserve(len(todo))
            payloads: list[_Payload] = [
                (
                    job.key,
                    {"__arena__": arena.put(plane_key(job.history), job.history)},
                    job.models,
                )
                for job in todo
            ]
        else:
            payloads = [
                (job.key, history_to_dict(job.history), job.models) for job in todo
            ]
        results: list[dict] = []
        for out in self._execute(self._chunks(payloads)):
            metrics.cache_hits += out["cache_hits"]
            metrics.cache_misses += out["cache_misses"]
            metrics.prepass_decided += out.get("prepass_decided", 0)
            metrics.prepass_admitted += out.get("prepass_admitted", 0)
            for phase, seconds in out.get("phase_seconds", {}).items():
                metrics.add_phase_time(phase, seconds)
            for record in out["records"]:
                for model, seconds in record.pop("model_seconds").items():
                    metrics.add_model_time(model, seconds)
                metrics.histories += 1
                metrics.checks += len(record["models"])
                if store is not None:
                    store.append_result(
                        record["key"],
                        record["models"],
                        record["explored"],
                        views=record.get("views"),
                    )
                results.append(record)
        metrics.wall_seconds = time.perf_counter() - t0

        if store is not None:
            summary = store.summarize()
            store.append_summary({"metrics": metrics.to_dict(), **summary})
            counts = summary["allowed_counts"]
        else:
            counts = {}
            for record in results:
                for model, allowed in record["models"].items():
                    counts[model] = counts.get(model, 0) + (1 if allowed else 0)
        return SweepReport(
            spec=spec,
            metrics=metrics,
            results=results,
            counts=counts,
            store_path=store.path if store is not None else None,
        )

    # -- dispatch ----------------------------------------------------------------

    def _chunks(self, payloads: list[_Payload]) -> list[list[_Payload]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            # Several chunks per worker for load balance, capped so tiny
            # sweeps still exercise the dispatch path.
            size = max(1, min(32, -(-len(payloads) // (self.jobs * 4))))
        return [payloads[i : i + size] for i in range(0, len(payloads), size)]

    def _execute(
        self,
        chunks: list[list[_Payload]],
        impl=_run_chunk_impl,
        worker=_run_chunk,
    ) -> Iterator:
        """Run ``chunks`` through a chunk body, in-process or on the pool.

        ``impl`` is the in-process body ``(chunk, state) -> output`` and
        ``worker`` its module-level pool twin (picklable, reading the
        per-process state installed by the initializer).  Both defaults are
        the sweep body; :meth:`map_panel` passes the oracle-panel pair.
        """
        if not chunks:
            return
        if self.jobs == 1:
            state = (
                self._local_state
                if self._local_state is not None
                else _fresh_state(self.cache_histories, self.store_views, self.prepass)
            )
            state["store_views"] = self.store_views
            state["prepass"] = self.prepass
            self._local_state = state
            for chunk in chunks:
                yield impl(chunk, state)
            return
        if self.persistent:
            if not self._pool_holder:
                ctx = multiprocessing.get_context()
                self._pool_holder.append(
                    ctx.Pool(
                        processes=self.jobs,
                        initializer=_init_worker,
                        initargs=(
                            self.cache_histories,
                            self.store_views,
                            self.prepass,
                        ),
                    )
                )
            yield from self._pool_holder[0].imap(worker, chunks)
            return
        ctx = multiprocessing.get_context()
        with ctx.Pool(
            processes=self.jobs,
            initializer=_init_worker,
            initargs=(self.cache_histories, self.store_views, self.prepass),
        ) as pool:
            yield from pool.imap(worker, chunks)
