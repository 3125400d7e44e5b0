"""The benchmark's four workloads, and the loop that measures one of them.

A workload turns the seed into inputs one *pass* at a time, runs a pass
through the program's public API, and checks every output against a
known answer outside the timed region.  :func:`measure` runs passes until
the time budget is spent, then reports throughput, latency percentiles,
memory, and — in a traced run — the per-layer split.

Host-speed correction.  On a shared virtual machine neither the wall
clock nor the process's CPU time is steady (see :mod:`hostspeed`).  A
:class:`Clock` times each pass in short segments and divides a segment's
wall-clock times by the mean host factor at its two ends.  The factor is
measured where the work runs: a single-process workload stays pinned to
one CPU, and the service workload, whose client and server share every
CPU, calibrates each.  The end-to-end times are therefore seconds of the reference host, steady
across bursts, while a change to the program still moves them in full.
The raw wall-clock figures are reported next to them.

This module imports ``repro``; ``run.py`` loads it only in the child
processes it starts, so each measurement begins from a fresh interpreter.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import repro
from repro.analysis.random_histories import random_history
from repro.checking.models import MODELS, PAPER_MODELS, check, model_names
from repro.core.serialization import history_to_dict
from repro.engine import CheckEngine, EngineSession, SweepSpec
from repro.kernel.backend import active_backend, use_backend
from repro.kernel.constraints import plane_cache_stats
from repro.kernel.search import check_with_spec
from repro.litmus import CATALOG, parse_history
from repro.obs.sink import tracing

from hostspeed import CPUS, host_factor
from spans import SpanSink, Spans, TracedBackend, kernel_layers, ratio

#: The warm-up history: one check per workload model runs on it in set-up.
TINY = "p: w(x)1 | q: r(x)1"

#: A p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000

#: Every spec-backed model, in registry order (classify-random's set).
SPEC_MODELS = tuple(name for name in model_names() if MODELS[name].spec is not None)

_ZERO = (0.0, 0, 0)


@dataclass
class Segment:
    """A stretch of timed work and the host factor it ran under."""

    factor: float
    seconds: float
    ops: int
    latencies: list[float]


class Clock:
    """Times a pass in segments, each corrected by the host factor around it.

    Every :meth:`cut` measures the host factor; a segment's factor is the
    mean of the measurements at its two ends, so a burst that starts or
    ends inside it is half corrected rather than missed.  Calibrations
    fall between segments, outside their timed seconds.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.segments: list[Segment] = []
        self._before = host_factor(cpus)
        self._open()

    def _open(self) -> None:
        self._ops = 0
        self._latencies: list[float] = []
        self.start = perf_counter()

    def add(self, latency: float, ops: int = 1) -> None:
        """Count ``ops`` operations whose latency sample is ``latency``."""
        self._latencies.append(latency)
        self._ops += ops

    def cut(self) -> None:
        """Close the current segment and start the next one."""
        seconds = perf_counter() - self.start
        after = host_factor(self.cpus)
        self.segments.append(
            Segment((self._before + after) / 2, seconds, self._ops, self._latencies)
        )
        self._before = after
        self._open()


@dataclass
class Pass:
    """One pass of a workload: its inputs and, once computed, the answers."""

    index: int
    inputs: Any
    expected: Any = None


@dataclass
class Outcome:
    """What running one pass produced."""

    ops: int
    outputs: Any
    errors: list[str] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)


class Workload:
    """The interface :func:`measure` drives; subclasses fill it in."""

    name = ""
    models: tuple[str, ...] = PAPER_MODELS
    #: Whether a pass may run twice with the same meaning (the traced half
    #: of a run replays the untraced half's passes when it may).
    replayable = True

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self._next = 0
        #: The CPUs the measuring process runs on.
        self.cpus: list[int] = list(CPUS[:1])

    def setup(self) -> None:
        tiny = parse_history(TINY)
        for model in self.models:
            check(tiny, model)

    def next_pass(self) -> Pass:
        index = self._next
        self._next += 1
        return Pass(index, self.make_inputs(np.random.default_rng([self.seed, index])))

    def make_inputs(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def run(self, p: Pass, spans: Spans | None, clock: Clock) -> Outcome:
        """Run one pass, recording every operation's latency on ``clock``."""
        raise NotImplementedError

    def failures(self, p: Pass, outcome: Outcome) -> list[str]:
        """Outputs that differ from the known answer (empty when all match)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def begin_trace(self) -> None:
        """Snapshot whatever :meth:`layer_metrics` reports as a difference."""

    def layer_metrics(self, traced: list[tuple[Pass, Outcome]]) -> dict:
        """This workload's own per-layer metrics (engine and service layers)."""
        return {
            "engine.prepass_s": 0.0,
            "engine.check_s": 0.0,
            "engine.overhead_s": 0.0,
            "engine.prepass_decided_ratio": _ZERO,
            "engine.relation_cache_hit_ratio": _ZERO,
            "serve.hit_p50_ms": 0.0,
            "serve.cold_p50_ms": 0.0,
            "serve.cold_p99_ms": 0.0,
            "serve.cache_hit_ratio": _ZERO,
            "serve.worker_busy_s": 0.0,
            "serve.wait_s": 0.0,
            "serve.plane_cache_hit_ratio": _ZERO,
        }

    def close(self) -> None:
        pass


# -- sweep-space ----------------------------------------------------------------

#: E5b: allowed histories per model over the canonical 2x3 space.
SPACE_ALLOWED = {"SC": 3974, "TSO": 4043, "PC": 4103, "Causal": 4133, "PRAM": 4302}
SPACE_HISTORIES = 12189
#: The quick variant: 2 processors x 3 operations on one location.
QUICK_SPACE_ALLOWED = {"SC": 256, "TSO": 256, "PC": 256, "Causal": 280, "PRAM": 304}
QUICK_SPACE_HISTORIES = 1572
#: Histories per timed segment of a sweep (a pass is one long engine run).
SEGMENT_HISTORIES = 250


class _ArrivalStore:
    """A result store that times the records ``CheckEngine.run`` appends.

    With one history per chunk the engine appends each history's record
    as soon as its checks finish, so the gap between two arrivals is one
    history's latency, the finest grain the batch API exposes.  Every
    ``every`` records it cuts the clock's segment; ``every=0`` never does.
    """

    path = None

    def __init__(self, clock: Clock, every: int) -> None:
        self.clock = clock
        self.every = every
        self.allowed: dict[str, int] = {}
        self._last = clock.start
        self._records = 0

    def append_run_header(self, header: dict) -> None:
        # Job expansion (the enumeration) ends here; it belongs to the
        # segment's time but to no history's latency.
        self._last = perf_counter()

    def append_result(self, key, models, explored, views=None) -> None:
        now = perf_counter()
        self.clock.add(now - self._last, len(models))
        self._last = now
        self._records += 1
        for model, allowed in models.items():
            self.allowed[model] = self.allowed.get(model, 0) + bool(allowed)
        if self.every and self._records % self.every == 0:
            self.clock.cut()
            self._last = self.clock.start

    def summarize(self) -> dict:
        return {"allowed_counts": dict(self.allowed)}

    def append_summary(self, summary: dict) -> None:
        pass


class _SpannedSpec:
    """A sweep spec whose job expansion (the enumeration) runs in a span."""

    def __init__(self, spec: SweepSpec, spans: Spans) -> None:
        self.spec = spec
        self.spans = spans

    def jobs(self):
        self.spans.open("lattice.enumerate")
        try:
            jobs = list(self.spec.jobs())
        finally:
            self.spans.close("lattice.enumerate")
        return iter(jobs)

    def describe(self) -> dict:
        return self.spec.describe()


class SweepSpace(Workload):
    """Figure 5's exhaustive 2x3 space under the paper models, via the engine."""

    name = "sweep-space"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        locations = ("x",) if quick else ("x", "y")
        self.spec = SweepSpec(
            source="space",
            procs=2,
            ops_per_proc=3,
            locations=locations,
            models=PAPER_MODELS,
        )
        self.histories = QUICK_SPACE_HISTORIES if quick else SPACE_HISTORIES
        self.allowed = QUICK_SPACE_ALLOWED if quick else SPACE_ALLOWED

    def make_inputs(self, rng: np.random.Generator) -> SweepSpec:
        return self.spec  # exhaustive: the seed changes nothing

    def run(self, p: Pass, spans: Spans | None, clock: Clock) -> Outcome:
        engine = CheckEngine(jobs=1, chunk_size=1)
        if spans is None:
            report = engine.run(
                p.inputs, store=_ArrivalStore(clock, SEGMENT_HISTORIES)
            )
        else:
            # Traced: no calibration inside the run, so the engine's own
            # wall time (read by layer_metrics) holds only engine work.
            spans.open("engine.run")
            try:
                report = engine.run(
                    _SpannedSpec(p.inputs, spans), store=_ArrivalStore(clock, 0)
                )
            finally:
                spans.close("engine.run")
        return Outcome(report.metrics.checks, report)

    def failures(self, p: Pass, outcome: Outcome) -> list[str]:
        report = outcome.outputs
        out = []
        if report.metrics.histories != self.histories:
            out.append(
                f"{report.metrics.histories} histories, expected {self.histories}"
            )
        for model, want in self.allowed.items():
            got = report.counts.get(model, 0)
            out.extend(
                [f"{model} allowed {got} histories, expected {want}"]
                * abs(got - want)
            )
        return out

    def layer_metrics(self, traced):
        out = super().layer_metrics(traced)
        prepass = check = overhead = 0.0
        decided = checks = hits = lookups = 0
        for _, outcome in traced:
            m = outcome.outputs.metrics
            p_s = m.phase_seconds.get("prepass", 0.0)
            c_s = m.phase_seconds.get("check", 0.0)
            prepass += p_s
            check += c_s
            overhead += m.wall_seconds - p_s - c_s
            decided += m.prepass_decided
            checks += m.checks
            hits += m.cache_hits
            lookups += m.cache_lookups
        out.update(
            {
                "engine.prepass_s": prepass,
                "engine.check_s": check,
                "engine.overhead_s": overhead,
                "engine.prepass_decided_ratio": ratio(decided, checks),
                "engine.relation_cache_hit_ratio": ratio(hits, lookups),
            }
        )
        return out


# -- classify-random ------------------------------------------------------------


class ClassifyRandom(Workload):
    """Seeded random 3x3 histories, each decided under every spec-backed model."""

    name = "classify-random"
    models = SPEC_MODELS
    histories_per_pass = 25

    def make_inputs(self, rng: np.random.Generator) -> list:
        return [
            random_history(
                rng, procs=3, ops_per_proc=3, locations=("x", "y"), p_write=0.5
            )
            for _ in range(self.histories_per_pass)
        ]

    def run(self, p: Pass, spans: Spans | None, clock: Clock) -> Outcome:
        verdicts: list[bool | None] = []
        errors: list[str] = []
        for history in p.inputs:
            for model in self.models:
                t0 = perf_counter()
                try:
                    if spans is None:
                        allowed = check(history, model).allowed
                    else:
                        spans.open("checking.check", model)
                        try:
                            allowed = check(history, model).allowed
                        finally:
                            spans.close("checking.check")
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    allowed = None
                    errors.append(f"{model}: {type(exc).__name__}: {exc}")
                clock.add(perf_counter() - t0)
                verdicts.append(allowed)
        return Outcome(len(verdicts), verdicts, errors)

    def failures(self, p: Pass, outcome: Outcome) -> list[str]:
        if p.expected is None:
            # The kernel alone, without the fast paths ``check`` prefers.
            p.expected = [
                check_with_spec(MODELS[model].spec, history).allowed
                for history in p.inputs
                for model in self.models
            ]
        return [
            f"pass {p.index} check {i} ({self.models[i % len(self.models)]}): "
            f"got {got}, kernel says {want}"
            for i, (got, want) in enumerate(zip(outcome.outputs, p.expected))
            if got is not None and got != want
        ]


# -- stream-iriw ----------------------------------------------------------------

#: E16's IRIW denial core: SC, TSO and PC deny it.
IRIW_CORE = (
    "p: w(x)1 w(x)2 w(x)3 | q: w(x)4 w(x)5 w(x)6 | r: r(x)3 r(x)6 | s: r(x)6 r(x)3"
)
#: Ten initial-value reads of a fresh location per processor: they rescue
#: nothing, so the denial sticks and every append can reuse the prefix.
IRIW_TAIL = " | ".join(f"{p}: " + " ".join(["r(z)0"] * 10) for p in "pqrs")
IRIW_DENY = ("SC", "TSO", "PC")


class StreamIriw(Workload):
    """The IRIW core plus 40 inert reads, appended op by op to a session."""

    name = "stream-iriw"
    streams_per_pass = 1
    #: Appends per timed segment: a stream's late appends are its slowest,
    #: so a burst inside one stream must not go uncorrected.
    segment_appends = 10

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        core, tail = parse_history(IRIW_CORE), parse_history(IRIW_TAIL)
        self.per_proc = {
            proc: list(core.ops_of(proc)) + list(tail.ops_of(proc))
            for proc in sorted(core.procs, key=str)
        }

    def make_inputs(self, rng: np.random.Generator) -> list:
        streams = []
        for _ in range(self.streams_per_pass):
            # A uniformly random merge that keeps each processor's order:
            # draw the next processor in proportion to its remaining ops.
            left = {proc: list(ops) for proc, ops in self.per_proc.items()}
            stream = []
            while left:
                procs = list(left)
                weights = np.array([len(left[q]) for q in procs], dtype=float)
                proc = procs[int(rng.choice(len(procs), p=weights / weights.sum()))]
                stream.append(left[proc].pop(0))
                if not left[proc]:
                    del left[proc]
            streams.append(stream)
        return streams

    def run(self, p: Pass, spans: Spans | None, clock: Clock) -> Outcome:
        appended = 0
        finals: list = []
        errors: list[str] = []
        for stream in p.inputs:
            try:
                session = EngineSession(self.models)
                for i, op in enumerate(stream):
                    if i and i % self.segment_appends == 0:
                        clock.cut()
                    t0 = perf_counter()
                    if spans is None:
                        session.append(op)
                    else:
                        spans.open("session.append")
                        try:
                            session.append(op)
                        finally:
                            spans.close("session.append")
                    clock.add(perf_counter() - t0)
                    appended += 1
                finals.append((session.history, session.verdicts()))
            except Exception as exc:  # noqa: BLE001 - a failed stream is data
                errors.append(f"stream: {type(exc).__name__}: {exc}")
                finals.append(None)
        return Outcome(appended, finals, errors)

    def failures(self, p: Pass, outcome: Outcome) -> list[str]:
        if p.expected is None:
            # A fresh one-shot check of each stream's final history.
            p.expected = [
                None if final is None else {
                    model: check_with_spec(MODELS[model].spec, final[0]).allowed
                    for model in self.models
                }
                for final in outcome.outputs
            ]
        out = []
        for final, fresh in zip(outcome.outputs, p.expected):
            if final is None or fresh is None:
                continue  # the stream raised: already counted as an error
            verdicts = final[1]
            for model in self.models:
                if verdicts[model] != fresh[model]:
                    out.append(
                        f"{model}: stream says {verdicts[model]}, fresh {fresh[model]}"
                    )
                elif model in IRIW_DENY and verdicts[model]:
                    out.append(f"{model} admits the IRIW core")
        return out


# -- serve-mixed ----------------------------------------------------------------


@dataclass
class _Request:
    kind: str  # "hit" (a repeated catalog history) or "cold" (a fresh one)
    body: bytes
    expected: dict


class ServeMixed(Workload):
    """A closed loop over two keep-alive connections to ``repro serve``."""

    name = "serve-mixed"
    replayable = False  # a replayed cold request would be a cache hit
    requests_per_pass = 400
    cold_share = 0.2
    connections = 2

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self.cpus = list(CPUS)  # the client and the server share them
        self.models_param = ",".join(self.models)
        self.server: subprocess.Popen | None = None
        self.conns: list[http.client.HTTPConnection] = []
        self.db = workdir / f"serve-{os.getpid()}.db"
        self.log = workdir / f"serve-{os.getpid()}.log"
        self.catalog: dict[str, dict] | None = None
        self.seen: set[str] = set()
        self.stats0: dict = {}

    def setup(self) -> None:
        super().setup()
        self._start_server()
        for name in CATALOG:
            status, payload = self._post(self.conns[0], self._body(name))
            if status != 200:
                raise RuntimeError(f"set-up POST {name}: HTTP {status} {payload!r}")

    def _start_server(self) -> None:
        # The server runs the very source tree this process imported.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        with open(self.log, "wb") as log:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--workers", str(self.connections),
                    "--quiet",
                    "--store", f"sqlite:{self.db}",
                ],
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=env,
            )
        port = None
        deadline = time.monotonic() + 60
        while port is None:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.server.returncode}: "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not report its port in 60s")
            found = re.search(
                r"serving on http://[^:\s]+:(\d+)", self.log.read_text(errors="replace")
            )
            if found:
                port = int(found.group(1))
            else:
                time.sleep(0.005)
        self.conns = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            for _ in range(self.connections)
        ]
        while self._get("/healthz").get("status") != "ok":
            time.sleep(0.005)

    def _body(self, history: Any) -> bytes:
        return json.dumps({"history": history, "models": self.models_param}).encode()

    @staticmethod
    def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        conn.request(
            "POST", "/check", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()

    def _get(self, path: str) -> dict:
        conn = self.conns[0]
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())

    def _verdicts(self, history) -> dict:
        return {
            model: check_with_spec(MODELS[model].spec, history).allowed
            for model in self.models
        }

    def make_inputs(self, rng: np.random.Generator) -> list[_Request]:
        if self.catalog is None:
            self.catalog = {
                name: self._verdicts(entry.history) for name, entry in CATALOG.items()
            }
            self.seen = {
                json.dumps(history_to_dict(entry.history), sort_keys=True)
                for entry in CATALOG.values()
            }
        names = list(CATALOG)
        requests = []
        for _ in range(self.requests_per_pass):
            if rng.random() < self.cold_share:
                while True:
                    history = random_history(rng, procs=3, ops_per_proc=3)
                    wire = history_to_dict(history)
                    key = json.dumps(wire, sort_keys=True)
                    if key not in self.seen:
                        self.seen.add(key)
                        break
                requests.append(
                    _Request("cold", self._body(wire), self._verdicts(history))
                )
            else:
                name = names[int(rng.integers(len(names)))]
                requests.append(_Request("hit", self._body(name), self.catalog[name]))
        return requests

    def run(self, p: Pass, spans: Spans | None, clock: Clock) -> Outcome:
        n = len(p.inputs)
        starts = [0.0] * n
        ends = [0.0] * n
        replies: list[Any] = [None] * n

        def drive(conn: http.client.HTTPConnection, indices: range) -> None:
            for i in indices:
                starts[i] = perf_counter()
                try:
                    replies[i] = self._post(conn, p.inputs[i].body)
                except (OSError, http.client.HTTPException) as exc:
                    replies[i] = exc
                    conn.close()  # the next request reconnects
                ends[i] = perf_counter()

        threads = [
            threading.Thread(target=drive, args=(conn, range(j, n, len(self.conns))))
            for j, conn in enumerate(self.conns)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i, request in enumerate(p.inputs):
            clock.add(ends[i] - starts[i])
            if spans is not None:
                spans.add("serve.request", starts[i], ends[i], op=request.kind)
        errors = [f"request: {r!r}" for r in replies if isinstance(r, Exception)]
        return Outcome(n, replies, errors)

    def failures(self, p: Pass, outcome: Outcome) -> list[str]:
        out = []
        for request, reply in zip(p.inputs, outcome.outputs):
            if isinstance(reply, Exception):
                continue  # already counted as an error
            status, payload = reply
            if status != 200:
                out.append(f"{request.kind}: HTTP {status} {payload[:200]!r}")
            elif json.loads(payload).get("models") != request.expected:
                out.append(f"{request.kind}: verdicts differ from in-process ones")
        return out

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (the process doing the work)."""
        assert self.server is not None
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if kib is None:
            raise RuntimeError("no VmHWM in the server's /proc status")
        return int(kib.group(1)) / 1024

    def begin_trace(self) -> None:
        self.stats0 = self._get("/stats")

    def layer_metrics(self, traced):
        out = super().layer_metrics(traced)
        s0, s1 = self.stats0, self._get("/stats")

        def delta(group: str, key: str) -> int:
            return s1[group].get(key, 0) - s0[group].get(key, 0)

        hit, cold = [], []
        for p, outcome in traced:
            latencies = [x for s in outcome.segments for x in s.latencies]
            for request, latency in zip(p.inputs, latencies):
                (hit if request.kind == "hit" else cold).append(latency)
        busy = sum(s1["model_seconds"].values()) - sum(s0["model_seconds"].values())
        plane_hits = delta("plane_cache", "hits")
        decided = delta("prepass_rules", "denied") + delta("prepass_rules", "admitted")
        out.update(
            {
                "serve.hit_p50_ms": percentile(hit, 0.5) * 1e3,
                "serve.cold_p50_ms": percentile(cold, 0.5) * 1e3,
                "serve.cold_p99_ms": percentile(cold, 0.99) * 1e3,
                "serve.cache_hit_ratio": ratio(
                    delta("counters", "cache_hits"), len(hit) + len(cold)
                ),
                "serve.worker_busy_s": busy,
                "serve.wait_s": sum(hit) + sum(cold) - busy,
                "serve.plane_cache_hit_ratio": ratio(
                    plane_hits, plane_hits + delta("plane_cache", "misses")
                ),
                "staticcheck.rule_runs": decided + delta("prepass_rules", "passed"),
                "staticcheck.decided_ratio": ratio(
                    decided, delta("counters", "checks")
                ),
            }
        )
        return out

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.server is not None:
            self.server.terminate()  # SIGTERM: drain, summarize, close the store
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        for path in (self.db, Path(f"{self.db}-wal"), Path(f"{self.db}-shm"), self.log):
            path.unlink(missing_ok=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepSpace, ClassifyRandom, StreamIriw, ServeMixed)
}


# -- measuring ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def run_pass(wl: Workload, p: Pass, spans: Spans | None) -> Outcome:
    """Run one pass on a fresh :class:`Clock`; the outcome carries its segments."""
    clock = Clock(wl.cpus)
    outcome = wl.run(p, spans, clock)
    clock.cut()
    outcome.segments = clock.segments
    return outcome


def _summary(segments: list[Segment]) -> dict:
    """Throughput and latency percentiles, host-corrected and raw."""
    ops = sum(s.ops for s in segments)
    raw_s = sum(s.seconds for s in segments)
    latencies = [x / s.factor for s in segments for x in s.latencies]
    raw = [x for s in segments for x in s.latencies]
    return {
        "ops": ops,
        "timed_s": raw_s,
        "ops_per_s": ops / sum(s.seconds / s.factor for s in segments),
        "latency_samples": len(latencies),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "host_factor": statistics.median(s.factor for s in segments),
        "raw": {
            "ops_per_s": ops / raw_s,
            "latency_p50_ms": percentile(raw, 0.5) * 1e3,
            "latency_p99_ms": percentile(raw, 0.99) * 1e3,
        },
    }


def measure(
    wl: Workload, seconds: float, trace: bool, trace_path: Path | None = None
) -> dict:
    """Measure ``wl`` for about ``seconds`` of timed work and check every output.

    Passes run while the average pass still fits in the budget, and — so
    the p99 has ten samples beyond it — until :data:`MIN_LATENCY_SAMPLES`
    latencies are in; ``seconds <= 0`` runs exactly one pass.  Each pass
    is checked against its known answer as soon as it ends, outside the
    timed region.  ``peak_rss_mb`` is read after the first pass, so it
    measures a fixed amount of work.

    Traced, the first half of the budget runs untraced and the second
    half runs the same passes (or, for a workload whose passes cannot be
    replayed, as many fresh ones) with spans on; the ratio of the two
    throughputs is the tracing overhead.
    """
    budget = seconds / 2 if trace and seconds > 0 else seconds
    segments: list[Segment] = []
    kept: list[Pass] = []
    failures: list[str] = []
    attempted = 0
    timed = 0.0
    passes = 0
    rss = None
    while True:
        p = wl.next_pass()
        outcome = run_pass(wl, p, None)
        if rss is None:
            rss = wl.peak_rss_mb()
        passes += 1
        timed += sum(s.seconds for s in outcome.segments)
        segments.extend(outcome.segments)
        attempted += outcome.ops
        failures += outcome.errors + wl.failures(p, outcome)
        if trace:
            kept.append(p)
        if budget <= 0:
            break
        samples = sum(len(s.latencies) for s in segments)
        if timed + timed / passes > budget and samples >= MIN_LATENCY_SAMPLES:
            break
    result = _summary(segments)
    result["passes"] = passes
    result["peak_rss_mb"] = rss

    if trace:
        spans = Spans()
        sink = SpanSink(spans)
        backend = TracedBackend(active_backend(), spans)
        replays = kept if wl.replayable else [wl.next_pass() for _ in kept]
        wl.begin_trace()
        plane0 = plane_cache_stats()
        traced = []
        with tracing(sink), use_backend(backend):
            for p in replays:
                traced.append((p, run_pass(wl, p, spans)))
        plane1 = plane_cache_stats()
        plane_hits = plane1["hits"] - plane0["hits"]
        plane_lookups = plane_hits + plane1["misses"] - plane0["misses"]
        layers = kernel_layers(
            spans, sink, backend, plane_hits, plane_lookups, SPEC_MODELS
        )
        layers.update(wl.layer_metrics(traced))
        traced_segments = [s for _, outcome in traced for s in outcome.segments]
        layers["trace.overhead_ratio"] = (
            result["ops_per_s"] / _summary(traced_segments)["ops_per_s"] - 1
        )
        result["per_layer"] = {
            k: (v[0] if isinstance(v, tuple) else v) for k, v in layers.items()
        }
        result["ratios"] = {
            k: [v[1], v[2]] for k, v in layers.items() if isinstance(v, tuple)
        }
        result["spans"] = len(spans)
        if trace_path is not None:
            spans.write(trace_path)
            result["trace_file"] = str(trace_path)
        for p, outcome in traced:
            attempted += outcome.ops
            failures += outcome.errors + wl.failures(p, outcome)

    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:5]
    return result


def child_main(args, t_start: float, factor_before: float) -> dict:
    """The body of one child process: set up, then measure (or stop there).

    ``t_start`` is when the process began importing ``repro`` and
    ``factor_before`` the host factor just before that, on the one CPU the
    process is pinned to until the workload widens it.
    """
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    os.sched_setaffinity(0, wl.cpus)
    try:
        wl.setup()
        setup_raw = perf_counter() - t_start
        factor = (factor_before + host_factor(wl.cpus)) / 2
        setup = {"setup_s": setup_raw / factor, "setup_raw_s": setup_raw}
        if args.setup_only:
            return setup
        trace_path = workdir / f"trace-{wl.name}.json" if args.trace else None
        result = measure(wl, args.seconds, bool(args.trace), trace_path)
        result.update(setup)
        result["numpy"] = np.__version__
        return result
    finally:
        wl.close()
