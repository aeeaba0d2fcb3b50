"""Run a fixed grid of glaisher commands in process and print what each produced.

Usage:
    python tools/cli_grid.py [CHECKOUT] > grid.jsonl

CHECKOUT is the root of a glaisher checkout (default: the one holding this
script); its src/ is imported.  Each command runs through cli.main(argv) and
prints one JSON line: argv, exit code, stdout, stderr and, for --output
commands, the written file.  A refactor that should change no output is
checked by running the grid on both checkouts and diffing the two files:

    python tools/cli_grid.py /path/to/parent > parent.jsonl
    python tools/cli_grid.py > change.jsonl
    diff parent.jsonl change.jsonl && echo identical
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# 11 decades of the accepted range plus three points between decades.
TOLS = ["1e-13", "3e-13", *(f"1e-{k}" for k in range(12, 2, -1)), "3e-7", "5e-4"]
METHODS = ["classical", "binet", "malmsten", "direct_lgamma", "direct-lgamma",
           "limit_sequence", "limit-sequence"]
BUDGETS = [None, "31", "93", "2000"]
# n = 5 is below what the lower tols need, so the limit sequence's tol check
# shows as exit 2 there; an integral route would reject a budget this small.
SEQ_BUDGETS = [*BUDGETS, "5"]
# Sweeps whose runs nest (T doubling, a fine budget ladder) and whose T never
# nest, at the two ends of the accepted range and one tol between.
SWEEP_TOLS = ["1e-3", "1e-8", "1e-13"]
SWEEPS = [
    ["--T-list", "5,10,20,40,80,160,320"],
    ["--T-list", "7,11,13,17"],
    ["--budgets", "21,42,63,84,105,126,147,168,189,210"],
]
OUT = "{out}"  # replaced by a file in a temporary directory

ERRORS = [
    [],
    ["--help"],
    ["eval", "--help"],
    ["compare", "--help"],
    ["check", "--help"],
    ["convergence", "--help"],
    ["frobnicate"],
    ["eval"],
    ["eval", "--method", "zeta"],
    ["eval", "--method", "binet", "--format", "xml"],
    ["compare", "--format", "yaml"],
    ["eval", "--method", "binet", "--tol", "1e-20"],
    ["eval", "--method", "binet", "--tol", "abc"],
    ["eval", "--method", "binet", "--tol", "nan"],
    ["compare", "--tol", "0.5"],
    ["check", "--tol", "inf"],
    ["eval", "--method", "binet", "--budget", "-5"],
    ["eval", "--method", "binet", "--budget", "30"],
    ["eval", "--method", "classical", "--budget", "2.5"],
    ["eval", "--method", "limit-sequence", "--budget", "0"],
    ["eval", "--method", "limit_sequence", "--budget", "100001"],
    ["compare", "--budget", "5"],
    ["convergence", "--T-list", "600"],
    ["convergence", "--T-list", "50,25"],
    ["convergence", "--T-list", "nan"],
    ["convergence", "--T-list", "25,nan,100"],
    ["convergence", "--T-list", "a,b"],
    ["convergence", "--T-list", ","],
    ["convergence", "--T-list", "25,,50"],
    ["convergence", "--T-list", ",25"],
    ["convergence", "--budgets", "64,"],
    ["convergence", "--budgets", "10"],
    ["convergence", "--budgets", ","],
    ["convergence", "--budgets", "128,64"],
    ["convergence", "--budgets", "64.5"],
    ["eval", "--method", "binet", "--output", "/no/such/dir/out.txt"],
    ["convergence", "--T-list", "25", "--budgets", "64",
     "--output", "/no/such/dir/conv.csv"],
    ["eval", "--method", "malmsten", "--format", "json", "--output", OUT],
    ["compare", "--format", "csv", "--output", OUT],
    ["convergence", "--T-list", "25,50", "--budgets", "64,128", "--output", OUT],
    ["eval", "--method", "binet", "--format", "text", "--output", OUT],
    ["compare", "--format", "json", "--output", OUT],
    ["compare", "--format", "text", "--output", OUT],
    ["check", "--format", "json", "--output", OUT],
    ["check", "--format", "text", "--output", OUT],
    ["compare", "--output", "/no/such/dir/compare.txt"],
    ["check", "--output", "/no/such/dir/check.txt"],
    # Runs that do not converge, to an unwritable file: the I/O error (74)
    # beats the verdict (2).
    ["eval", "--method", "classical", "--tol", "1e-13", "--budget", "21",
     "--output", "/no/such/dir/eval.txt"],
    ["compare", "--tol", "1e-13", "--budget", "21", "--format", "csv",
     "--output", "/no/such/dir/compare.csv"],
    # Shapes that are no well-formed command, so the top-level parser parses
    # them: leftovers, abbreviations, "=" values, help, "--", options first.
    ["eval", "--method", "binet", "extra"],
    ["compare", "--budget", "100", "check"],
    ["eval", "--meth", "binet", "--form", "json"],
    ["eval", "--method=binet", "--tol=1e-6"],
    ["eval", "-h"],
    ["eval", "--", "--method", "binet"],
    ["--tol", "1e-6", "eval", "--method", "binet"],
    ["-h", "eval"],
]

# Each side of every --budget floor and cap: one panel (21) on a route, and
# [1, N_MAX] on the limit sequence, in both spellings.
BUDGET_EDGES = [
    ["eval", "--method", "classical", "--budget", "20"],
    ["eval", "--method", "classical", "--budget", "21"],
    *(["eval", "--method", method, "--budget", budget]
      for method in ("limit-sequence", "limit_sequence")
      for budget in ("0", "1", "100000", "100001")),
    ["compare", "--budget", "20"],
]

# Budgets on each side of 43 and 87 evaluations, and 129, for two routes that
# spend more than one panel at tol 1e-12.
LEVEL_EDGES = [
    ["eval", "--method", method, "--tol", "1e-12", "--budget", budget]
    for method in ("classical", "malmsten")
    for budget in ("42", "43", "86", "87", "129")
]

# A command followed by (option, value) pairs, at the edges of that shape: a
# repeated option (the last one wins), a padded, empty, missing or negative
# value, and clean pairs without the required --method.
PAIR_EDGES = [
    ["eval", "--method", "binet", "--tol", "1e-6", "--tol", "1e-8"],
    ["compare", "--format", "json", "--format", "csv"],
    ["eval", "--method", "binet", "--tol", " 1e-6"],
    ["eval", "--method", "binet", "--tol", ""],
    ["eval", "--method", "binet", "--tol"],
    ["eval", "--tol", "1e-6", "--format", "json"],
    ["eval", "--method", "binet", "--tol", "-1e-6"],
]


def commands():
    for tol in TOLS:
        for method in METHODS:
            budgets = SEQ_BUDGETS if method.startswith("limit") else BUDGETS
            for fmt in ("json", "text"):
                for budget in budgets:
                    argv = ["eval", "--method", method, "--tol", tol, "--format", fmt]
                    yield argv + (["--budget", budget] if budget else [])
        for extra in (["--format", "json"], ["--format", "csv"], ["--format", "text"],
                      ["--format", "json", "--budget", "100"]):
            yield ["compare", "--tol", tol, *extra]
        for fmt in ("json", "text"):
            yield ["check", "--tol", tol, "--format", fmt]
        yield ["convergence", "--tol", tol]
    for tol in SWEEP_TOLS:
        for sweep in SWEEPS:
            yield ["convergence", "--tol", tol, *sweep]
    yield from ERRORS
    yield from BUDGET_EDGES
    yield from LEVEL_EDGES
    yield from PAIR_EDGES


def run(main, argv, tmp):
    out_path = os.path.join(tmp, "out")
    real = [out_path if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(real)
    record = {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue()}
    if OUT in argv:
        record["file"] = Path(out_path).read_text(encoding="utf-8")
        os.remove(out_path)
    return record


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
    sys.path.insert(0, str(root / "src"))
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    from glaisher.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands():
            print(json.dumps(run(cli_main, argv, tmp), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
