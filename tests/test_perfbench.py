"""The benchmark's traced path runs on this checkout.

Only a traced run calls perfbench/probes.py, which reaches into estimator,
specfun, quadrature and the cli directly.  A change that breaks one of those
calls fails here, not first when the benchmark is run.  The tracer counts
integrand values at the callable handed to quadrature.integrate_finite, so
that count must not read 0: quadrature.integrate must hand it spec.eval.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_estimate_run_exits_0():
    pytest.importorskip("mpmath")  # the benchmark's oracle
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate", "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["integrands.evals_per_op"]["value"] > 0
