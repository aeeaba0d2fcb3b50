"""The refactor-checking tools in tools/ run on this checkout.

tools/cli_grid.py and tools/lib_grid.py diff a change against its parent;
a tool that no longer runs, or whose calls drifted from the library's API,
would make that diff meaningless.  Each runs here in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _run(script):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def lib_grid_lines():
    lines = _run("lib_grid.py")
    assert lines
    return lines


def test_cli_grid_runs_every_command():
    lines = _run("cli_grid.py")
    assert len(lines) == 984
    assert all("argv" in json.loads(line) for line in lines)


@pytest.mark.parametrize("drift", ["TypeError", "AttributeError", "NameError"])
def test_lib_grid_calls_match_the_library(lib_grid_lines, drift):
    assert not [line for line in lib_grid_lines if line.endswith(f"raised {drift}")]
