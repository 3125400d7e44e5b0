"""E12 — scalability sweeps: how the effects grow with processor count.

The paper's title subject is *scalable* shared memories: the weak models
exist because strong consistency costs grow with the machine.  This
experiment measures the observable side of that trade on the simulators:

* Bakery on ``RC_pc``: the mutual-exclusion violation rate as the
  processor count grows (more participants → more stale-acquire windows);
* Bakery on ``RC_sc``: stays at zero at every size (the paper's
  guarantee);
* producer/consumer staleness on the coherent machine versus consumer
  count;
* machine throughput versus processor count (the substrate's own cost).

Shape expectations, not absolute numbers, are asserted (the bands note
pure-Python simulation is slow; rates are what transfer).
"""

import time

import pytest

from repro.machines import CoherentMachine, PRAMMachine, RCMachine
from repro.programs import RandomScheduler, Read, Write, run
from repro.programs.mutex import bakery_program

RUNS = 100


def bakery_violation_rate(mode: str, n: int, runs: int = RUNS) -> float:
    procs = tuple(f"p{i}" for i in range(n))
    violations = 0
    for seed in range(runs):
        result = run(
            RCMachine(procs, labeled_mode=mode),
            bakery_program(n),
            RandomScheduler(seed),
            max_steps=20_000,
        )
        if result.mutex_violation:
            violations += 1
    return violations / runs


def consumer_staleness_rate(n_consumers: int, runs: int = RUNS) -> float:
    """Fraction of flag-guarded data reads that observed stale data."""
    procs = ("prod",) + tuple(f"c{i}" for i in range(n_consumers))
    stale = total = 0
    for seed in range(runs):
        machine = CoherentMachine(procs)

        def producer():
            yield Write("data", 7)
            yield Write("flag", 1)

        def consumer():
            while True:
                f = yield Read("flag")
                if f == 1:
                    break
            yield Read("data")

        threads = {"prod": producer}
        threads.update({f"c{i}": consumer for i in range(n_consumers)})
        result = run(machine, threads, RandomScheduler(seed), max_steps=20_000)
        if not result.completed:
            continue
        for proc in procs[1:]:
            for op in result.history.ops_of(proc):
                if op.is_read and op.location == "data":
                    total += 1
                    if op.value_read != 7:
                        stale += 1
    return stale / total if total else 0.0


def test_scalability_claims(record_claims, benchmark):
    record_claims.set_title("E12 / scalability: effects vs processor count")
    benchmark.group = "claims"

    def verify():
        from repro.programs import DelayDeliveriesScheduler

        def adversarial_violates(n: int) -> bool:
            procs = tuple(f"p{i}" for i in range(n))
            result = run(
                RCMachine(procs, labeled_mode="pc"),
                bakery_program(n),
                DelayDeliveriesScheduler(),
                max_steps=50_000,
            )
            return result.mutex_violation

        pc_rates = {n: bakery_violation_rate("pc", n, runs=60) for n in (2, 3)}
        sc_rates = {n: bakery_violation_rate("sc", n, runs=60) for n in (2, 3)}
        staleness = {n: consumer_staleness_rate(n, runs=60) for n in (1, 3)}
        rows = [
            ("RC_sc Bakery violation rate, any n", 0.0,
             max(sc_rates.values())),
            # Boolean reachability via the adversarial scheduler (random
            # rates are a few percent and reported informationally below).
            ("RC_pc Bakery violates at n=2 (adversarial)", True,
             adversarial_violates(2)),
            ("RC_pc Bakery violates at n=3 (adversarial)", True,
             adversarial_violates(3)),
            ("coherent staleness present at 1 consumer", True,
             staleness[1] > 0),
            ("staleness persists at 3 consumers", True, staleness[3] > 0),
        ]
        return rows, pc_rates, staleness

    rows, pc_rates, staleness = benchmark.pedantic(verify, rounds=1, iterations=1)
    for claim, paper, measured in rows:
        record_claims(claim, paper, measured)
    print(f"\n   RC_pc Bakery violation rates: {pc_rates}")
    print(f"   coherent-machine staleness rates: {staleness}")


def test_violation_rate_vs_propagation_speed(record_claims, benchmark):
    """The series: Bakery violation rate falls monotonically as the
    propagation probability rises (the consistency-vs-performance dial)."""
    from repro.programs import BiasedScheduler

    record_claims.set_title("E12b / violation rate vs propagation probability")
    benchmark.group = "claims"

    def verify():
        rates = {}
        for p_machine in (0.05, 0.2, 0.5, 0.8):
            violations = 0
            for seed in range(80):
                result = run(
                    RCMachine(("p0", "p1"), labeled_mode="pc"),
                    bakery_program(2),
                    BiasedScheduler(seed, p_machine),
                    max_steps=8000,
                )
                violations += result.mutex_violation
            rates[p_machine] = violations / 80
        ordered = [rates[p] for p in (0.05, 0.2, 0.5, 0.8)]
        return [
            ("slowest propagation violates most", True,
             ordered[0] == max(ordered) and ordered[0] > 0),
            ("rate non-increasing along the sweep", True,
             all(a >= b for a, b in zip(ordered, ordered[1:]))),
        ], rates

    rows, rates = benchmark.pedantic(verify, rounds=1, iterations=1)
    for claim, paper, measured in rows:
        record_claims(claim, paper, measured)
    print("\n   violation rate by p_machine:")
    for p_machine, rate in rates.items():
        bar = "#" * int(rate * 50)
        print(f"   p={p_machine:<5} {rate:6.1%}  {bar}")


def test_engine_parallel_speedup(record_claims, benchmark):
    """E12c — the batch engine's own scalability: parallel sweep vs serial.

    Runs the exhaustive 2×2 space sweep (210 canonical histories × every
    registered model) through :class:`repro.engine.CheckEngine` at
    ``jobs=1`` and at ``jobs=min(4, cpus)``. The >1.5× speedup claim is
    asserted only on multi-core hosts — a single-CPU container cannot speed
    anything up, so there the measured ratio is recorded informationally
    instead. Result equality and a warm relation cache are asserted
    everywhere.
    """
    import os

    from repro.engine import CheckEngine, SweepSpec

    record_claims.set_title("E12c / engine: parallel sweep vs serial")
    benchmark.group = "claims"

    def verify():
        spec = SweepSpec(source="space", models=("all",))
        cpus = os.cpu_count() or 1
        jobs = min(4, max(2, cpus))

        t0 = time.perf_counter()
        serial = CheckEngine(jobs=1).run(spec)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = CheckEngine(jobs=jobs).run(spec)
        parallel_s = time.perf_counter() - t0

        speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        rows = [
            ("engine results identical serial vs parallel", True,
             serial.results == parallel.results),
            ("relation cache hit rate > 0", True,
             parallel.metrics.cache_hit_rate > 0),
        ]
        if cpus >= 2:
            rows.append(
                (f"parallel speedup > 1.5x (jobs={jobs}, {cpus} CPUs)", True,
                 speedup > 1.5)
            )
        else:
            # One CPU: parallelism cannot win; record the ratio as data.
            rows.append(
                ("parallel speedup on 1 CPU (informational)", "-",
                 round(speedup, 2))
            )
        return rows, serial_s, parallel_s, jobs, serial.metrics.cache_hit_rate

    rows, serial_s, parallel_s, jobs, hit_rate = benchmark.pedantic(
        verify, rounds=1, iterations=1
    )
    for claim, paper, measured in rows:
        record_claims(claim, paper, measured)
    print(
        f"\n   2x2 space sweep (210 histories x all models): "
        f"serial {serial_s:.2f}s, jobs={jobs} {parallel_s:.2f}s "
        f"({serial_s / parallel_s:.2f}x); cache hit rate {hit_rate:.1%}"
    )


@pytest.mark.parametrize("n", [2, 4, 8])
def test_bench_pram_throughput_vs_procs(benchmark, n):
    benchmark.group = "PRAM machine throughput vs processors"
    procs = tuple(f"p{i}" for i in range(n))

    def workload():
        m = PRAMMachine(procs)
        for i in range(400):
            m.write(procs[i % n], f"x{i % 4}", i + 1)
        m.drain()
        return m.operation_count()

    assert benchmark(workload) == 400


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bench_bakery_run_cost_vs_procs(benchmark, n):
    benchmark.group = "Bakery run cost vs processors (RC_sc)"
    procs = tuple(f"p{i}" for i in range(n))

    def workload():
        return run(
            RCMachine(procs, labeled_mode="sc"),
            bakery_program(n),
            RandomScheduler(3),
            max_steps=50_000,
        )

    result = benchmark(workload)
    assert result.completed and not result.mutex_violation