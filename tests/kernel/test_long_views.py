"""Long histories go through the kernel like short ones.

The kernel has no operation cap.  When a view's ordering contains
program order, its failure memo holds at most ∏(len_p + 1) placed-sets
(docs/kernel.md, "Why long views are decidable"), so these 200-op
histories take milliseconds.  Each check here is bounded at
:data:`BOUND_S`, about a hundred times what it takes on a 2-vCPU
Xeon, so a regression to exponential search fails instead of passing
slowly.
"""

import time

import pytest

from repro.checking import check, model_names
from repro.litmus import parse_history

#: The wall-clock bound on one check of a history below.
BOUND_S = 2.0


def _writes(loc, n):
    return " ".join(f"w({loc}){v}" for v in range(1, n + 1))


#: 204 operations: two 100-write streams, each reader sees both ends.
ADMITTED = parse_history(
    f"p: {_writes('x', 100)} | q: {_writes('y', 100)}"
    " | r: r(y)100 r(x)100 | s: r(x)100 r(y)100"
)

#: 202 operations: q sees x go back from 200 to 1.
BACKWARDS = parse_history(f"p: {_writes('x', 200)} | q: r(x)200 r(x)1")

#: BACKWARDS at its smallest, the same shape over two writes.
BACKWARDS_SMALL = parse_history("p: w(x)1 w(x)2 | q: r(x)2 r(x)1")


def _timed_check(history, model):
    start = time.perf_counter()
    result = check(history, model)
    elapsed = time.perf_counter() - start
    assert elapsed < BOUND_S, f"{model} took {elapsed:.2f} s"
    return result


@pytest.mark.parametrize("model", model_names())
def test_every_model_admits_a_204_op_history(model):
    assert _timed_check(ADMITTED, model).allowed


@pytest.mark.parametrize(
    "model", [m for m in model_names() if m != "monotonic-reads"]
)
def test_a_202_op_history_decides_as_its_4_op_shape(model):
    # monotonic-reads is left out: its ordering does not contain program
    # order, and it needs 15 s already on 20 operations of this shape.
    expected = check(BACKWARDS_SMALL, model).allowed
    assert _timed_check(BACKWARDS, model).allowed == expected
