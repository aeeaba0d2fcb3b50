"""Record, per group of grid lines, a sha256 and a line count of this checkout's grids.

Usage:
    python tools/grid_digests.py

runs tools/lib_grid.py and tools/cli_grid.py on this checkout and writes
tools/grid_digests.json.  It takes no arguments: given any, it prints its
usage and exits 2 without writing, so that a flag or a checkout path meant
for a sibling script cannot overwrite the recorded digests.

A lib_grid group is the called function's name, with the method for ln_a
(`ln_a:classical`); a cli_grid group is the subcommand, with the --method
value for eval (`eval:limit-sequence`).  tests/test_tools.py recomputes the
digests from the grids it runs and names every group that differs, so a
change that moves any output byte fails a test until this script is rerun.  Floats in the output may round
differently on another platform, so the file records the Python version,
the machine and the C library it was made on, and the test skips elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
DIGESTS = TOOLS / "grid_digests.json"


def platform_record() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
    }


def run_grid(script: str) -> list[str]:
    """The output lines of tools/<script> on this checkout."""
    proc = subprocess.run(
        [sys.executable, str(TOOLS / script)], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout.splitlines()


def lib_group(line: str) -> str:
    label = line.split(" -> ", 1)[0]
    name, args = label.split("(", 1)
    return "ln_a:" + args.split("'")[1] if name == "ln_a" else name


def cli_group(line: str) -> str:
    argv = json.loads(line)["argv"]
    group = argv[0] if argv else "(no arguments)"
    if "--method" in argv[:-1]:
        group += ":" + argv[argv.index("--method") + 1]
    return group


def _digest(lines, group_of) -> dict:
    groups = {}
    for line in lines:
        groups.setdefault(group_of(line), []).append(line)
    return {
        group: {
            "sha256": hashlib.sha256("".join(f"{x}\n" for x in members).encode()).hexdigest(),
            "lines": len(members),
        }
        for group, members in sorted(groups.items())
    }


def digests(lib_lines: list[str], cli_lines: list[str]) -> dict:
    """{"lib_grid": {group: {sha256, lines}}, "cli_grid": {...}} of the two outputs."""
    return {"lib_grid": _digest(lib_lines, lib_group), "cli_grid": _digest(cli_lines, cli_group)}


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tools/grid_digests.py", file=sys.stderr)
        print(f"grid_digests.py: error: takes no arguments, got {' '.join(argv)}", file=sys.stderr)
        return 2
    record = {"platform": platform_record(),
              **digests(run_grid("lib_grid.py"), run_grid("cli_grid.py"))}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
