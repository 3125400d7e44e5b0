"""What a process loads: the checker needs neither numpy nor networkx.

networkx only draws Figure 5's Hasse diagram and numpy only backs
random generation; each runs in a fresh interpreter here, so what the
test process itself has imported cannot hide a stray import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
HEAVY = ("numpy", "networkx")

_REPORT = (
    "import json, sys; "
    f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
)


def _loaded_after(code: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.serve.app",
        "repro.lattice.enumeration",
        "repro.staticcheck",
        "repro.analysis",
    ],
)
def test_import_loads_no_heavy_library(module):
    assert _loaded_after(f"import {module}") == []


def _run_command(argv: list[str], exit_code: int = 0) -> list[str]:
    """What ``python -m repro <argv>`` loads, run as __main__ to its exit."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = {['repro', *argv]!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {exit_code}, exc.code\n"
    )
    return _loaded_after(code)


def test_check_command_loads_no_heavy_library():
    assert _run_command(["check", "p: w(x)1 | q: r(x)1", "--model", "SC"]) == []


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["lint", "history", "p: w(x)1 | q: r(x)1", "--model", "SC"], 0),
        (["lint", "history", "fig1-sb"], 1),
        (["lint", "spec"], 0),
        (["spectrum", "p: w(x)1 r(y)0 | q: w(y)1 r(x)0"], 0),
    ],
    ids=["lint-history", "lint-history-deny", "lint-spec", "spectrum"],
)
def test_lint_and_spectrum_commands_load_no_heavy_library(argv, exit_code):
    # The program analyses and the random generators load numpy; these
    # commands use neither.
    assert _run_command(argv, exit_code) == []


def test_the_heavy_libraries_still_load_where_used():
    # The lazy lattice names resolve, and drawing the diagram loads networkx.
    assert _loaded_after(
        "from repro.lattice import paper_hasse\npaper_hasse()"
    ) == ["networkx"]
    # The lazy analysis and staticcheck names resolve to the numpy users.
    assert _loaded_after("from repro.analysis import random_history") == ["numpy"]
    assert _loaded_after("from repro.staticcheck import analyze_program") == [
        "numpy"
    ]
