"""Integration: the Section 5 Bakery experiment end to end (E6).

Three layers of the claim, all checked:

1. declarative — the paper's violating history is allowed by RC_pc and
   rejected by RC_sc;
2. operational — the RC_pc machine reaches a mutual-exclusion violation
   while the RC_sc machine never does;
3. closing the loop — traces the RC_pc machine produces when it violates
   are themselves RC_pc-allowed histories that RC_sc rejects.
"""

import pytest

from repro.checking import check
from repro.machines import RCMachine
from repro.programs import DelayDeliveriesScheduler, RandomScheduler, run
from repro.programs.mutex import bakery_program


@pytest.fixture(scope="module")
def violating_run():
    # cs_body=True matters: without the ordinary operations inside the
    # critical section, the violating *sync* history alone is SC-able
    # ("p0's whole protocol, then p1's" — the number/choosing resets
    # restore every location to 0, hiding the overlap).  The violation is
    # only observable through the data the critical section protects.
    result = run(
        RCMachine(("p0", "p1"), labeled_mode="pc"),
        bakery_program(2, cs_body=True),
        DelayDeliveriesScheduler(),
        max_steps=4000,
    )
    assert result.mutex_violation
    return result


class TestDeclarative:
    def test_paper_history_distinguishes_models(self, bakery_violation):
        assert check(bakery_violation, "RC_pc").allowed
        assert not check(bakery_violation, "RC_sc").allowed

    def test_rc_pc_witness_orders_remote_writes_late(self, bakery_violation):
        # The paper's intuition: "each processor can order the writes of
        # the other after all of its own operations."
        res = check(bakery_violation, "RC_pc")
        for proc in res.views:
            view = res.views[proc]
            own_last_sync = max(
                (view.position(op) for op in view if op.proc == proc and op.labeled),
            )
            remote_sync = [
                view.position(op) for op in view if op.proc != proc and op.labeled
            ]
            assert all(pos > own_last_sync for pos in remote_sync)


class TestOperational:
    def test_rc_sc_machine_never_violates(self):
        for seed in range(150):
            result = run(
                RCMachine(("p0", "p1"), labeled_mode="sc"),
                bakery_program(2),
                RandomScheduler(seed),
                max_steps=4000,
            )
            assert not result.mutex_violation, f"seed {seed}"

    def test_rc_pc_machine_violates_adversarially(self, violating_run):
        assert violating_run.mutex_violation
        assert violating_run.completed

    def test_violating_run_shape_matches_paper(self, violating_run):
        # Both processors read number[other] = 0 in the waiting loop.
        h = violating_run.history
        for proc, other in (("p0", 1), ("p1", 0)):
            reads = [
                op
                for op in h.ops_of(proc)
                if op.is_read and op.location == f"number[{other}]"
            ]
            assert reads and all(op.value == 0 for op in reads)


class TestLoopClosed:
    def test_violating_trace_is_rc_pc_but_not_rc_sc(self, violating_run):
        h = violating_run.history
        assert check(h, "RC_pc").allowed, "machine produced a non-RC_pc trace"
        assert not check(h, "RC_sc").allowed, (
            "a mutual-exclusion-violating Bakery trace cannot be RC_sc "
            "(Gibbons-Merritt-Gharachorloo: properly-labeled SC-correct "
            "programs stay correct on RC_sc)"
        )
