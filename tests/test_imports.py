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
    ["repro", "repro.cli", "repro.serve.app", "repro.lattice.enumeration"],
)
def test_import_loads_no_heavy_library(module):
    assert _loaded_after(f"import {module}") == []


def test_check_command_loads_no_heavy_library():
    # ``python -m repro check ...`` as __main__, stopping at its exit.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'check', 'p: w(x)1 | q: r(x)1', '--model', 'SC']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert _loaded_after(code) == []


def test_the_heavy_libraries_still_load_where_used():
    # The lazy lattice names resolve, and drawing the diagram loads networkx.
    assert _loaded_after(
        "from repro.lattice import paper_hasse\npaper_hasse()"
    ) == ["networkx"]
