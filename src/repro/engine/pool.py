"""The batch-checking executor: serial or multiprocessing, same results.

:class:`CheckEngine` runs the jobs of a :class:`~repro.engine.jobs.SweepSpec`
either in-process (``jobs=1``) or on a :mod:`multiprocessing` pool with
per-worker warm model registries.  Dispatch is chunked
and ordered (``Pool.imap`` over deterministic chunks), so the stream of
result records — and therefore the bytes in the result store — is identical
for any worker count.

Histories cross the process boundary in the versioned wire format of
:mod:`repro.core.serialization` rather than as pickled objects, keeping the
protocol stable and start-method agnostic (fork and spawn both work).  The
in-process path (``jobs=1``) hands the history objects over as they are.

Every ``jobs > 1`` run starts its own pool and tears it down when the run
ends; nothing outlives a run, so an engine needs no closing.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.checking.models import check, model_names
from repro.core.errors import EngineError
from repro.core.history import SystemHistory
from repro.core.serialization import history_from_dict, history_to_dict, view_to_dict
from repro.engine.jobs import SweepSpec
from repro.engine.metrics import EngineMetrics
from repro.engine.store import ResultStore

__all__ = ["CheckEngine", "SweepReport"]

#: One unit of chunk-body input: (key, history, model names).
_Payload = tuple[str, SystemHistory, tuple[str, ...]]
#: The same unit on its way to a pool worker: the history as its wire dict.
_WirePayload = tuple[str, dict, tuple[str, ...]]

# Per-worker option, installed by the pool initializer (one per process).
_WORKER_STORE_VIEWS: bool | None = None


def _warm_models() -> None:
    """Prime every registered checker on a two-operation history.

    Pays first-touch costs (lazy imports, NumPy initialisation, module
    setup) once per worker instead of inside the first timed job.
    """
    from repro.litmus import parse_history

    tiny = parse_history("p: w(x)1 | q: r(x)1")
    for name in model_names():
        check(tiny, name)


def _init_worker(store_views: bool) -> None:
    global _WORKER_STORE_VIEWS
    # A worker forked from ``repro serve`` inherits its event loop's no-op
    # SIGTERM handler and would outlive the pool's terminate(), which then
    # waits on it forever; restore the default so teardown ends it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _warm_models()
    _WORKER_STORE_VIEWS = store_views


def _run_chunk_impl(chunk: Sequence[_Payload], store_views: bool) -> dict:
    """Check every payload of ``chunk``; returns its result records.

    No relation cache: the kernel compiles each history once into its
    shared plane, and a memo around these checks cost more than it saved
    (EXPERIMENTS.md E23).
    """
    records: list[dict] = []
    for key, history, models in chunk:
        verdicts: dict[str, bool] = {}
        explored: dict[str, int] = {}
        views: dict[str, list[dict]] = {}
        model_seconds: dict[str, float] = {}
        for model in models:
            t0 = time.perf_counter()
            result = check(history, model)
            model_seconds[model] = time.perf_counter() - t0
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
    return {"records": records}


def _parsed(chunk: Sequence[_WirePayload]) -> list[_Payload]:
    """A pool chunk with its wire-format histories parsed back."""
    return [(key, history_from_dict(wire), models) for key, wire, models in chunk]


def _run_chunk(chunk: Sequence[_WirePayload]) -> dict:
    assert _WORKER_STORE_VIEWS is not None, "worker used before initialisation"
    return _run_chunk_impl(_parsed(chunk), _WORKER_STORE_VIEWS)


def _run_panel_chunk_impl(
    chunk: Sequence[_Payload], store_views: bool
) -> list[dict]:
    """Oracle-panel verdicts for every payload of ``chunk``, in order.

    The differential fuzzer's worker body: each history is answered by the
    full panel (fast path, kernel, definitional oracle, incremental replay,
    static pre-pass, witness validation).
    Lazy import — the diff layer sits above the engine, and only fuzz runs
    need it.
    """
    from repro.diff.oracles import panel_verdicts

    return [panel_verdicts(history, models) for _key, history, models in chunk]


def _run_panel_chunk(chunk: Sequence[_WirePayload]) -> list[dict]:
    assert _WORKER_STORE_VIEWS is not None, "worker used before initialisation"
    return _run_panel_chunk_impl(_parsed(chunk), _WORKER_STORE_VIEWS)


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
    """Batch history checking with optional parallelism.

    Parameters
    ----------
    jobs:
        Worker count; ``1`` runs everything in-process (no pool, no
        serialization round-trip) with identical results.  Every check
        goes through :func:`repro.checking.check`, the registry's one
        decision procedure per model.
    chunk_size:
        Payloads per dispatch unit; default sizes chunks so each worker
        sees several chunks (load balance without dispatch overhead).
    store_views:
        Also record witness views (wire-format, per model) in result
        records, so positive verdicts keep their evidence; off by default
        because views dominate record size on large sweeps.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: int | None = None,
        store_views: bool = False,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.store_views = store_views

    # -- in-process checking -----------------------------------------------------

    def classify(
        self, history: SystemHistory, models: Sequence[str] | None = None
    ) -> dict[str, bool]:
        """Verdicts of several models on one history (default: every model).

        The in-process counterpart of :func:`repro.checking.classify`; the
        models share the history's compiled plane.
        """
        names = tuple(models) if models is not None else model_names()
        return {name: check(history, name).allowed for name in names}

    def map_classify(
        self, histories: Iterable[SystemHistory], models: Sequence[str]
    ) -> list[dict[str, bool]]:
        """Verdict maps for many histories, in input order.

        Runs on the worker pool when ``jobs > 1``.  Results are identical
        either way.
        """
        names = tuple(models)
        payloads: list[_Payload] = [
            (f"{i:06d}", h, names) for i, h in enumerate(histories)
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
        decided by every oracle of the panel (fast path, kernel,
        definitional oracle, incremental replay, static pre-pass; see
        :func:`repro.diff.oracles.panel_verdicts`).
        Runs on the worker pool when ``jobs > 1``; results are identical
        either way.
        """
        names = tuple(models)
        payloads: list[_Payload] = [
            (f"{i:06d}", h, names) for i, h in enumerate(histories)
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

        payloads: list[_Payload] = [(job.key, job.history, job.models) for job in todo]
        results: list[dict] = []
        for out in self._execute(self._chunks(payloads)):
            for record in out["records"]:
                for model, seconds in record.pop("model_seconds").items():
                    metrics.add_model_time(model, seconds)
                    metrics.add_phase_time("check", seconds)
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

        ``impl`` is the in-process body ``(chunk, store_views) -> output``
        and ``worker`` its module-level pool twin (picklable, reading the
        per-process option installed by the initializer).  Both defaults are
        the sweep body; :meth:`map_panel` passes the oracle-panel pair.
        Only the pool branch serializes: each history crosses to the
        workers as its wire dict, and ``worker`` parses it back.
        """
        if not chunks:
            return
        if self.jobs == 1:
            for chunk in chunks:
                yield impl(chunk, self.store_views)
            return
        ctx = multiprocessing.get_context()
        with ctx.Pool(
            processes=self.jobs,
            initializer=_init_worker,
            initargs=(self.store_views,),
        ) as pool:
            wire_chunks = (
                [(key, history_to_dict(h), models) for key, h, models in chunk]
                for chunk in chunks
            )
            yield from pool.imap(worker, wire_chunks)
