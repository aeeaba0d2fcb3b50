"""The refactor-checking tools in tools/ run on this checkout.

tools/cli_grid.py and tools/lib_grid.py diff a change against its parent;
a tool that no longer runs, or whose calls drifted from the library's API,
would make that diff meaningless.  Each runs here in a subprocess, and
their output is checked against tools/grid_digests.json group by group.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("grid_digests", TOOLS / "grid_digests.py")
grid_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grid_digests)


@pytest.fixture(scope="module")
def lib_grid_lines():
    return grid_digests.run_grid("lib_grid.py")


@pytest.fixture(scope="module")
def cli_grid_lines():
    return grid_digests.run_grid("cli_grid.py")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(grid_digests.DIGESTS.read_text(encoding="utf-8"))


def test_cli_grid_runs_every_command(cli_grid_lines):
    assert all("argv" in json.loads(line) for line in cli_grid_lines)


@pytest.mark.parametrize("drift", ["TypeError", "AttributeError", "NameError"])
def test_lib_grid_calls_match_the_library(lib_grid_lines, drift):
    assert not [line for line in lib_grid_lines if line.endswith(f"raised {drift}")]


def test_grids_have_the_recorded_line_counts(lib_grid_lines, cli_grid_lines, recorded):
    # A group's line count depends on its calls and argv alone, not on how
    # floats round, so it is checked on every platform.
    now = grid_digests.digests(lib_grid_lines, cli_grid_lines)
    for grid in ("lib_grid", "cli_grid"):
        counts = {group: d["lines"] for group, d in now[grid].items()}
        assert counts == {group: d["lines"] for group, d in recorded[grid].items()}


def test_grids_match_the_recorded_digests(lib_grid_lines, cli_grid_lines, recorded):
    here = grid_digests.platform_record()
    if recorded["platform"] != here:
        pytest.skip(f"digests were recorded on {recorded['platform']}, this is {here}")
    now = grid_digests.digests(lib_grid_lines, cli_grid_lines)
    differ = [
        f"{grid} {group}"
        for grid in ("lib_grid", "cli_grid")
        for group in sorted(recorded[grid].keys() | now[grid].keys())
        if recorded[grid].get(group) != now[grid].get(group)
    ]
    assert not differ, (
        f"groups that differ from tools/grid_digests.json: {', '.join(differ)}"
        " (after an intended change, rerun python tools/grid_digests.py)"
    )


@pytest.mark.parametrize("argv", [["--check"], [str(TOOLS.parent)], ["-h"]])
def test_grid_digests_takes_no_arguments(argv):
    # Its siblings take a checkout path; given one, or any flag, it must
    # not overwrite the recorded digests.
    before = grid_digests.DIGESTS.read_bytes()
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "grid_digests.py"), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: python tools/grid_digests.py\n")
    assert proc.stdout == ""
    assert grid_digests.DIGESTS.read_bytes() == before
