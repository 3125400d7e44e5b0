"""Smoke test of the benchmark; run with ``python -m pytest bench -q``.

One ``run.py --quick --trace`` run checks the harness end to end: every
metric ``BENCHMARK.json`` names is reported, nothing failed, and every
span file is a well-formed tree.  The known-answer gates are then driven
in-process, each once with its true expectation and once corrupted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from run import load_benchmark  # noqa: E402


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--trace", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), out.parent


def test_every_named_metric_is_reported(quick_run):
    report, _ = quick_run
    bench = load_benchmark()
    assert sorted(report["workloads"]) == sorted(w["name"] for w in bench["workloads"])
    for entry in report["workloads"].values():
        assert set(entry["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in bench["per_layer"]}
        for metric in entry["metrics"].values():
            assert all(v > 0 for v in metric["values"])


def test_nothing_failed(quick_run):
    report, _ = quick_run
    for name, entry in report["workloads"].items():
        assert entry["attempted"] > 0, name
        assert (entry["failed"], entry["traced_failed"]) == (0, 0), entry["failures"]


def test_span_trees_are_well_formed(quick_run):
    report, outdir = quick_run
    for name, entry in report["workloads"].items():
        spans = json.loads((outdir / entry["trace_file"]).read_text())["spans"]
        assert spans, name
        covered = [0.0] * len(spans)
        for s in spans:
            assert s["start"] <= s["end"], (name, s)
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
                covered[s["parent"]] += s["end"] - s["start"]
        for s, c in zip(spans, covered):
            assert s["end"] - s["start"] - c >= -1e-9, (name, s)


def test_classify_split_adds_up_to_the_checks(quick_run):
    report, _ = quick_run
    layers = report["workloads"]["classify-random"]["per_layer"]
    parts = sum(
        layers[m]["value"]
        for m in (
            "checking.self_s", "kernel.compile_s", "kernel.search_self_s", "kernel.gate_s"
        )
    )
    checks = sum(layers[m]["value"] for m in layers if m.startswith("model."))
    assert checks > 0
    assert abs(parts - checks) <= 0.05 * checks


def _run_pass(wl):
    p = wl.next_pass()
    return p, workloads.run_pass(wl, p, None)


def test_sweep_gate_fires(tmp_path):
    wl = workloads.SweepSpace(0, True, tmp_path)
    p, outcome = _run_pass(wl)
    assert wl.failures(p, outcome) == []
    wl.allowed = {**wl.allowed, "SC": wl.allowed["SC"] + 1}
    assert len(wl.failures(p, outcome)) == 1


def test_classify_gate_fires(tmp_path):
    wl = workloads.ClassifyRandom(0, True, tmp_path)
    p, outcome = _run_pass(wl)
    assert wl.failures(p, outcome) == []
    p.expected[0] = not p.expected[0]
    assert len(wl.failures(p, outcome)) == 1


def test_stream_gates_fire(tmp_path, monkeypatch):
    wl = workloads.StreamIriw(0, True, tmp_path)
    p, outcome = _run_pass(wl)
    assert wl.failures(p, outcome) == []
    monkeypatch.setattr(workloads, "IRIW_DENY", ("SC", "TSO", "PC", "PRAM"))
    assert len(wl.failures(p, outcome)) == len(p.inputs)
    monkeypatch.undo()
    p.expected[0]["SC"] = True
    assert len(wl.failures(p, outcome)) == 1


def test_serve_gate_fires(tmp_path):
    wl = workloads.ServeMixed(0, True, tmp_path)
    try:
        wl.setup()
        p, outcome = _run_pass(wl)
        assert wl.failures(p, outcome) == []
        for kind in ("hit", "cold"):
            request = next(r for r in p.inputs if r.kind == kind)
            request.expected = {m: not v for m, v in request.expected.items()}
        assert len(wl.failures(p, outcome)) == 2
    finally:
        wl.close()
