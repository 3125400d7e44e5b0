"""The definitional oracle agrees with the kernel and shares none of it."""

import ast
from pathlib import Path

import pytest

import repro.checking.definitional as definitional
from repro.checking.definitional import DEFINITIONAL_MAX_OPS, definitional_allowed
from repro.core import CheckerError
from repro.kernel import check_with_spec
from repro.lattice import HistorySpace, canonical_histories
from repro.litmus import CATALOG, parse_history
from repro.spec import ALL_SPECS

from tests.kernel.test_equivalence import AMBIGUOUS

#: Labeled message passing (bracketing denies the stale read under RC),
#: labeled store buffering (RC_pc admits it, RC_sc does not), a labeled
#: read of an ordinary write (no legal sequence of the labeled operations
#: alone, so RC_sc denies), and a bracketing chain through q's ordinary
#: read, outside r's view, that puts w(s)1 before w*(z)1 there: only the
#: transitive closure of the constraints sees it, and RC_pc denies.
LABELED = (
    "p: w(x)1 | q: r*(x)1",
    "p: w(x)1 w*(s)1 | q: r*(s)1 r(x)0",
    "p: w(x)1 w*(s)1 | q: r*(s)1 r(x)1",
    "p: w*(x)1 r*(y)0 | q: w*(y)1 r*(x)0",
    "p: w(s)1 | q: r*(s)1 r(y)0 w*(z)1 | r: r(z)1 r(s)0",
)


def _assert_agree(histories):
    for h in histories:
        for spec in ALL_SPECS:
            assert definitional_allowed(spec, h) == check_with_spec(spec, h).allowed, (
                f"{spec.name} on:\n{h}"
            )


def test_agrees_with_kernel_on_catalog_and_fixed_texts():
    small = [
        t.history
        for t in CATALOG.values()
        if len(t.history.operations) <= DEFINITIONAL_MAX_OPS
    ]
    assert len(small) == 16
    _assert_agree(small + [parse_history(text) for text in AMBIGUOUS + LABELED])


def test_agrees_with_kernel_on_2x2_space():
    histories = list(canonical_histories(HistorySpace(procs=2, ops_per_proc=2)))
    assert len(histories) == 210
    _assert_agree(histories)


def test_refuses_histories_above_the_cap():
    h = CATALOG["fig4-causal-not-tso"].history
    assert len(h.operations) > DEFINITIONAL_MAX_OPS
    with pytest.raises(CheckerError, match="at most 8"):
        definitional_allowed(ALL_SPECS[0], h)


def test_imports_nothing_from_the_kernel():
    tree = ast.parse(Path(definitional.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert modules  # the scan sees the imports
    assert not [m for m in modules if m == "repro.kernel" or m.startswith("repro.kernel.")]
