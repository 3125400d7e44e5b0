"""The repository benchmark: end-to-end metrics per workload, per-layer on demand.

One workload, as a comparison harness runs it::

    python3 bench/run.py --workload classify-random --seed 3 --seconds 12 --trace 0

prints one line per metric and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics instead).

Every workload, interleaved over rounds::

    python3 bench/run.py [--seed N] [--rounds 3] [--trace] [--quick] [--out FILE]

runs round after round of every workload (A B C D, A B C D, ...), each
in a fresh child process, and writes the raw value of every round, its
median and its spread, plus an environment record, to ``--out``
(default ``bench/out/results.json``).  ``--trace`` adds one traced run
per workload, which writes ``trace-<workload>.json`` next to the results
and the per-layer metrics into them.  ``--quick`` runs one round of one
small pass per workload, for smoke tests.  ``bench/compare.py`` compares
two results files.

Only the standard library is imported here; the workloads run in child
processes started from this same file, which put ``src`` first on the
path and refuse to run against any other copy of ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Extra set-up-only children per measurement; with the measuring child
#: itself, ``setup_s`` is the median of this many plus one set-ups.
SETUP_PROBES = 4
#: A single measurement (probes plus the measuring child) must end by this.
TIME_CAP_S = 175.0
#: Default timed seconds per workload run when running every workload.
SUITE_SECONDS = 5.0


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# -- child processes ---------------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    workdir: Path,
    deadline: float,
    setup_only: bool = False,
) -> dict:
    """Run one child process and return the JSON object it printed last."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--workdir", str(workdir),
    ]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Fixed string hashing, so set iteration inside the program — and the
    # work it does — is the same on every run with the same inputs.
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the run started")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child timed out after {timeout:.0f}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with {done.returncode}")
    return json.loads(lines[-1])


def measure_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    workdir: Path,
    probes: int,
    deadline: float,
) -> dict:
    """Set-up probes, then one measuring child; the child's result plus set-ups."""
    probed = [
        run_child(workload, seed, seconds, False, quick, workdir, deadline, True)
        for _ in range(probes)
    ]
    result = run_child(workload, seed, seconds, trace, quick, workdir, deadline)
    result["setup_samples"] = [p["setup_s"] for p in probed] + [result["setup_s"]]
    result["setup_s"] = statistics.median(result["setup_samples"])
    result["raw"]["setup_s"] = statistics.median(
        [p["setup_raw_s"] for p in probed] + [result["setup_raw_s"]]
    )
    return result


def metric_values(result: dict, names: list[str], trace: bool) -> dict[str, float]:
    """The named metrics out of a child result; a missing name is an error."""
    source = result.get("per_layer", {}) if trace else result
    missing = [n for n in names if n not in source]
    if missing:
        raise BenchError(f"metrics missing from the run: {', '.join(missing)}")
    return {n: float(source[n]) for n in names}


def describe_metric(name: str, value: float, unit: str, result: dict) -> str:
    line = f"  {name:<34} {value:>14.4f} {unit}"
    num_den = result.get("ratios", {}).get(name)
    if num_den is not None:
        line += f"  ({num_den[0]:g}/{num_den[1]:g})"
    return line


# -- one workload (the comparison harness's entry point) -----------------------------


def run_one(args: argparse.Namespace, bench: dict) -> int:
    deadline = time.monotonic() + TIME_CAP_S
    trace = bool(args.trace)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workdir = BENCH / "out"
    result = measure_workload(
        args.workload, args.seed, seconds, trace, args.quick, workdir,
        0 if trace else SETUP_PROBES, deadline,
    )
    values = metric_values(result, [m["name"] for m in specs], trace)
    print(
        f"{args.workload}: seed {args.seed}, {result['passes']} pass(es), "
        f"{result['timed_s']:.2f}s timed, {result['latency_samples']} latency "
        f"samples, host factor {result['host_factor']:.3f}, set-ups "
        f"{', '.join(f'{s:.3f}' for s in result['setup_samples'])}s"
    )
    for spec in specs:
        line = describe_metric(spec["name"], values[spec["name"]], spec["unit"], result)
        raw = result["raw"].get(spec["name"])
        print(line if trace or raw is None else f"{line}  (wall clock {raw:.4f})")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs
                },
            }
        )
    )
    return 0 if correct else 1


# -- every workload, interleaved rounds -----------------------------------------------


def environment(seed: int, rounds: int, numpy_version: str | None) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "repro_backend": os.environ.get("REPRO_BACKEND"),
        "seed": seed,
        "rounds": rounds,
    }


def run_suite(args: argparse.Namespace, bench: dict) -> int:
    rounds = 1 if args.quick else args.rounds
    seconds = 0.0 if args.quick else (
        SUITE_SECONDS if args.seconds is None else args.seconds
    )
    probes = 1 if args.quick else SETUP_PROBES
    out = Path(args.out) if args.out else BENCH / "out" / "results.json"
    workdir = out.resolve().parent
    names = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    load = os.getloadavg()
    measured: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(rounds):
        for name in names:
            deadline = time.monotonic() + TIME_CAP_S
            result = measure_workload(
                name, args.seed, seconds, False, args.quick, workdir, probes, deadline
            )
            values = metric_values(result, [m["name"] for m in e2e], False)
            measured[name].append({"values": values, "result": result})
            print(
                f"round {r + 1}/{rounds} {name}: "
                + ", ".join(f"{k} {v:.4g}" for k, v in values.items())
                + f" ({result['latency_samples']} latency samples, host factor"
                f" {result['host_factor']:.3f},"
                f" failed {result['failed']}/{result['attempted']})",
                flush=True,
            )
    report: dict = {
        "env": {
            **environment(args.seed, rounds, measured[names[0]][0]["result"]["numpy"]),
            "loadavg_start": list(load),
        },
        "settings": {"seconds": seconds, "quick": args.quick, "trace": bool(args.trace)},
        "workloads": {},
    }
    failed = 0
    for name in names:
        runs = measured[name]
        entry: dict = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "failures": [f for r in runs for f in r["result"]["failures"]][:5],
            "latency_samples": [r["result"]["latency_samples"] for r in runs],
            "setup_samples": [r["result"]["setup_samples"] for r in runs],
            "host_factor": [r["result"]["host_factor"] for r in runs],
            "wall_clock": [r["result"]["raw"] for r in runs],
            "metrics": {},
        }
        for spec in e2e:
            values = [r["values"][spec["name"]] for r in runs]
            entry["metrics"][spec["name"]] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
            }
        failed += entry["failed"]
        report["workloads"][name] = entry

    if args.trace:
        for name in names:
            deadline = time.monotonic() + TIME_CAP_S
            result = measure_workload(
                name, args.seed, seconds, True, args.quick, workdir, 0, deadline
            )
            values = metric_values(result, [m["name"] for m in bench["per_layer"]], True)
            entry = report["workloads"][name]
            entry["per_layer"] = {
                spec["name"]: {
                    "unit": spec["unit"],
                    "value": values[spec["name"]],
                    **(
                        {"of": result["ratios"][spec["name"]]}
                        if spec["name"] in result["ratios"]
                        else {}
                    ),
                }
                for spec in bench["per_layer"]
            }
            entry["trace_file"] = os.path.relpath(result["trace_file"], workdir)
            entry["spans"] = result["spans"]
            entry["traced_failed"] = result["failed"]
            failed += result["failed"]
            print(f"traced {name}: {result['spans']} spans")
            for spec in bench["per_layer"]:
                print(
                    describe_metric(spec["name"], values[spec["name"]], spec["unit"],
                                    result)
                )

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'workload':<16} {'metric':<16} {'median':>12} {'spread':>7}  unit")
    for name in names:
        for spec in e2e:
            m = report["workloads"][name]["metrics"][spec["name"]]
            print(
                f"{name:<16} {spec['name']:<16} {m['median']:>12.4f} "
                f"{m['spread']:>7.1%}  {spec['unit']}"
            )
        entry = report["workloads"][name]
        print(f"{name:<16} failed {entry['failed']}/{entry['attempted']}")
    print(f"results written to {out}")
    return 1 if failed else 0


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload run (default: run_seconds of "
        f"BENCHMARK.json for one workload, {SUITE_SECONDS:g} for every workload)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="one small pass each")
    parser.add_argument("--out", help="results file (every-workload mode)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        from hostspeed import CPUS, host_factor

        # One CPU until the workload says where it runs, so set-up is
        # calibrated on the CPU it runs on.
        os.sched_setaffinity(0, CPUS[:1])
        factor_before = host_factor(CPUS[:1])
        t_start = time.perf_counter()  # set-up: importing ``repro`` onward
        import repro

        if SRC not in Path(repro.__file__).resolve().parents:
            print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from workloads import child_main

        print(json.dumps(child_main(args, t_start, factor_before)))
        return 0

    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro source tree at {SRC}")
        bench = load_benchmark()
        known = [w["name"] for w in bench["workloads"]]
        if args.workload is not None:
            if args.workload not in known:
                raise BenchError(
                    f"unknown workload {args.workload!r}; known: {', '.join(known)}"
                )
            return run_one(args, bench)
        if args.rounds < 1:
            raise BenchError("--rounds must be at least 1")
        return run_suite(args, bench)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
