"""E6 — Figure 6 / Section 5: the Bakery algorithm distinguishes RC_sc and RC_pc.

The paper's headline experiment, regenerated at all three levels:

* the Section 5 violating history is allowed by RC_pc and rejected by RC_sc;
* running Figure 6's code on the RC_sc machine never violates mutual
  exclusion (random schedules), while the RC_pc machine does (adversarial
  delivery delay, and a measurable rate under random schedules);
* the violating machine trace itself is RC_pc-allowed and RC_sc-rejected.

The benchmark half measures the RC checkers on the Section 5 history and
the machine's runtime cost per Bakery run.
"""

import pytest

from repro.analysis import fraction
from repro.checking import check
from repro.litmus import parse_history
from repro.machines import RCMachine
from repro.programs import DelayDeliveriesScheduler, RandomScheduler, run
from repro.programs.mutex import bakery_program

SECTION5_HISTORY = parse_history(
    "p1: w*(c0)1 r*(n1)0 w*(n0)1 w*(c0)0 r*(c1)0 r*(n1)0 w(cs)1 | "
    "p2: w*(c1)1 r*(n0)0 w*(n1)1 w*(c1)0 r*(c0)0 r*(n0)0 w(cs)2"
)

RANDOM_SEEDS = range(200)


def _random_violation_count(mode: str) -> int:
    count = 0
    for seed in RANDOM_SEEDS:
        result = run(
            RCMachine(("p0", "p1"), labeled_mode=mode),
            bakery_program(2),
            RandomScheduler(seed),
            max_steps=4000,
        )
        if result.mutex_violation:
            count += 1
    return count


@pytest.fixture(scope="module")
def adversarial_violation():
    result = run(
        RCMachine(("p0", "p1"), labeled_mode="pc"),
        bakery_program(2),
        DelayDeliveriesScheduler(),
        max_steps=4000,
    )
    return result


def test_fig6_claims(record_claims, adversarial_violation, benchmark):
    record_claims.set_title("E6 / Section 5: Bakery on RC_sc vs RC_pc")
    benchmark.group = "claims"

    def verify():
        sc_violations = _random_violation_count("sc")
        pc_violations = _random_violation_count("pc")
        trace = adversarial_violation.history
        rows = [
            ("Section 5 history allowed by RC_pc", True,
             check(SECTION5_HISTORY, "RC_pc").allowed),
            ("Section 5 history allowed by RC_sc", False,
             check(SECTION5_HISTORY, "RC_sc").allowed),
            ("RC_sc machine violations (random)", 0, sc_violations),
            ("RC_pc machine violates (random)", True, pc_violations > 0),
            ("RC_pc machine violates (adversarial)", True,
             adversarial_violation.mutex_violation),
            ("violating trace is RC_pc", True, check(trace, "RC_pc").allowed),
            ("violating trace is RC_sc", False, check(trace, "RC_sc").allowed),
        ]
        return rows, sc_violations, pc_violations

    rows, sc_violations, pc_violations = benchmark.pedantic(
        verify, rounds=1, iterations=1
    )
    for claim, paper, measured in rows:
        record_claims(claim, paper, measured)
    print(
        f"\n   random-schedule violation rates over {len(RANDOM_SEEDS)} runs: "
        f"RC_sc {fraction(sc_violations, len(RANDOM_SEEDS))}, "
        f"RC_pc {fraction(pc_violations, len(RANDOM_SEEDS))}"
    )


def test_bench_rc_pc_checker_on_section5(benchmark):
    result = benchmark(lambda: check(SECTION5_HISTORY, "RC_pc"))
    assert result.allowed


def test_bench_rc_sc_checker_on_section5(benchmark):
    result = benchmark(lambda: check(SECTION5_HISTORY, "RC_sc"))
    assert not result.allowed


def test_bench_bakery_run_on_rc_sc_machine(benchmark):
    def one_run():
        return run(
            RCMachine(("p0", "p1"), labeled_mode="sc"),
            bakery_program(2),
            RandomScheduler(17),
            max_steps=4000,
        )

    result = benchmark(one_run)
    assert result.completed and not result.mutex_violation


def test_bench_bakery_run_on_rc_pc_machine_adversarial(benchmark):
    def one_run():
        return run(
            RCMachine(("p0", "p1"), labeled_mode="pc"),
            bakery_program(2),
            DelayDeliveriesScheduler(),
            max_steps=4000,
        )

    result = benchmark(one_run)
    assert result.mutex_violation
