"""The three perfbench workloads: seeded inputs, one operation, output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has been checked.  A run works on a fixed list of
distinct inputs made only from the seed, and repeats it in passes.  The lists
are stratified: every categorical choice gets the same number of inputs, and
each continuous draw is one uniform point in its own equal stratum (log scale
for tol and n).  So the mix of cheap and expensive operations, and of
known-failing ones, is nearly the same on every seed and the run-to-run spread
stays small.

Every operation is checked against the mpmath value of ln A (the oracle).
`check` returns the list of failure reasons; `classify` maps a reason to the
known seed defect it belongs to, or None when the failure is unexpected.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUTES = ("classical", "binet", "malmsten", "direct_lgamma")
CLI_METHODS = ("classical", "binet", "malmsten", "direct-lgamma", "limit-sequence")
CLI_KINDS = tuple(f"eval:{m}" for m in CLI_METHODS) + (
    "compare:json",
    "compare:csv",
    "check:json",
    "convergence",
)
# Documented output schemas of the program (README.md).
CONVERGENCE_HEADER = (
    "method,truncation_mode,truncation_T,node_budget,evaluations_used,abs_error,converged"
)
COMPARE_CSV_HEADER = "method,ln_A,disc_err,trunc_err,evaluations,converged"
# Spawned processes get one BLAS/OpenMP thread each.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, env, out_dir):
    """Run one child to completion; (exit code, stdout, stderr, peak RSS KiB, wall s)."""
    with tempfile.TemporaryFile(dir=out_dir) as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err_file, env=env, cwd=ROOT
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return proc.returncode, out, err, usage.ru_maxrss, wall


def log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def strata(rng, k):
    """k points of [0, 1), one uniform draw in each k-th, in ascending order."""
    return [(j + rng.random()) / k for j in range(k)]


def estimate_failures(ln_a, disc, trunc, converged, tol, oracle):
    """Reasons one reported estimate breaks its contract against the oracle."""
    reasons = []
    budget = disc + trunc
    if not abs(ln_a - oracle) <= budget:
        reasons.append("error_bar")
    if converged and tol is not None and not budget <= tol:
        reasons.append("converged_over_tol")
    return reasons


class Workload:
    name = ""

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, lib, op):
        raise NotImplementedError

    def check(self, op, out, oracle) -> list:
        raise NotImplementedError

    def classify(self, op, reason):
        return None


class Estimate(Workload):
    """One estimator.ln_a(route, tol) call; auto policy, default budget."""

    name = "estimate"
    TOL_LO, TOL_HI = 1e-12, 1e-4
    PER_ROUTE = 32  # 128 inputs

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = [
            {"route": route, "tol": log_uniform(self.TOL_LO, self.TOL_HI, u)}
            for route in ROUTES
            for u in strata(rng, self.PER_ROUTE)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, lib, op):
        return lib.estimator.ln_a(op["route"], op["tol"])

    def check(self, op, est, oracle):
        return estimate_failures(
            est.ln_A, est.discretization_error, est.truncation_error,
            est.converged, op["tol"], oracle,
        )


def parse_convergence_csv(text):
    """Rows of the convergence CSV as tuples; raises ValueError if malformed."""
    lines = text.split("\n")
    if lines[0] != CONVERGENCE_HEADER or lines[-1] != "":
        raise ValueError("unexpected convergence CSV header or ending")
    rows = []
    for line in lines[1:-1]:
        method, mode, T, budget, evals, err, conv = line.split(",")
        if conv not in ("true", "false"):
            raise ValueError(f"bad converged field {conv!r}")
        rows.append((method, mode, float(T), int(budget), int(evals), float(err), conv == "true"))
    return rows


def _reference_value():
    import glaisher.estimator

    return glaisher.estimator.LN_A_REFERENCE


class LimitSequence(Workload):
    """One ln_a_limit_sequence(n) call; no quadrature code involved."""

    name = "limit_sequence"
    N_LO, N_HI, COUNT = 1_000, 100_000, 100
    # Error bars from here up are known to be too small (a recorded defect).
    KNOWN_ROUNDING_N = 10_000

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = [{"n": round(log_uniform(self.N_LO, self.N_HI, u))} for u in strata(rng, self.COUNT)]
        rng.shuffle(ops)
        return ops

    def run(self, lib, op):
        return lib.estimator.ln_a_limit_sequence(op["n"])

    def check(self, op, est, oracle):
        return estimate_failures(
            est.ln_A, est.discretization_error, est.truncation_error,
            est.converged, None, oracle,
        )

    def classify(self, op, reason):
        if reason == "error_bar" and op["n"] >= self.KNOWN_ROUNDING_N:
            return "known:limit_sequence_rounding"
        return None


class Cli(Workload):
    """One `glaisher` command per operation, run in process through `cli.main`.

    Output is captured and parsed exactly as a caller of the command would
    read it.  The cost of a cold process (interpreter start and import) is
    `setup_s`, measured on every workload.
    """

    name = "cli"
    TOL_LO, TOL_HI = 1e-13, 1e-3  # the CLI's accepted --tol range
    N_LO, N_HI = 1_000, 100_000
    ESTIMATOR_TOL_MIN = 1e-12  # below this the CLI clamps tol (a recorded defect)
    PER_KIND = 12  # 108 inputs

    def inputs(self, seed):
        """PER_KIND inputs of every kind: one at the lowest accepted tol, the rest log-uniform.

        The lowest tol is where the CLI's clamp shows (known:cli_tol_clamp).
        For each kind the other tols are one point in each of PER_KIND - 1
        equal strata of the range, and the n of `eval --method limit-sequence`
        one point in each of PER_KIND strata of the n range.
        """
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for kind in CLI_KINDS:
            tols = [self.TOL_LO]
            tols += [log_uniform(self.TOL_LO, self.TOL_HI, u) for u in strata(rng, self.PER_KIND - 1)]
            ns = strata(rng, self.PER_KIND)
            rng.shuffle(ns)
            ops += [self.make_op(kind, tol, u) for tol, u in zip(tols, ns)]
        rng.shuffle(ops)
        return ops

    def make_op(self, kind, tol, u_n):
        command, _, detail = kind.partition(":")
        args = [command]
        n = None
        if command == "eval":
            args += ["--method", detail, "--format", "json"]
            if detail == "limit-sequence":
                n = round(log_uniform(self.N_LO, self.N_HI, u_n))
                args += ["--budget", str(n)]
        elif command in ("compare", "check"):
            args += ["--format", detail]
        args += ["--tol", repr(tol)]
        return {"kind": kind, "args": args, "tol": tol, "n": n}

    def run(self, lib, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(op["args"]))
        return {"rc": rc, "stdout": out.getvalue()}

    def check(self, op, out, oracle):
        rc = out["rc"]
        if rc not in (0, 2):
            return [f"exit_code_{rc}"]
        try:
            text = out["stdout"]
            command, _, fmt = op["kind"].partition(":")
            if command == "eval":
                return self._check_eval(json.loads(text), rc, op, oracle)
            if command == "compare":
                rows = self._compare_rows(text, fmt)
                return self._check_compare(rows, text, fmt, rc, op, oracle)
            if command == "check":
                return self._check_check(json.loads(text), rc)
            return self._check_convergence(parse_convergence_csv(text), rc, op, oracle)
        except (ValueError, KeyError, TypeError, IndexError):
            return ["parse"]

    def _estimate(self, d, tol, oracle):
        return estimate_failures(
            float(d["ln_A"]), float(d["discretization_error"]),
            float(d["truncation_error"]), d["converged"], tol, oracle,
        )

    def _check_eval(self, d, rc, op, oracle):
        if not isinstance(d["converged"], bool):
            raise ValueError("converged is not a boolean")
        reasons = self._estimate(d, op["tol"], oracle)
        if rc != (0 if d["converged"] else 2):
            reasons.append("inconsistent")
        return reasons

    @staticmethod
    def _compare_rows(text, fmt):
        if fmt == "json":
            return json.loads(text)["estimates"]
        lines = text.split("\n")
        if lines[0] != COMPARE_CSV_HEADER or lines[-1] != "":
            raise ValueError("unexpected compare CSV header or ending")
        rows = []
        for line in lines[1:-1]:
            method, ln_a, disc, trunc, evals, conv = line.split(",")
            if conv not in ("true", "false"):
                raise ValueError(f"bad converged field {conv!r}")
            rows.append({
                "method": method, "ln_A": float(ln_a), "discretization_error": float(disc),
                "truncation_error": float(trunc), "evaluations": int(evals),
                "converged": conv == "true",
            })
        return rows

    def _check_compare(self, rows, text, fmt, rc, op, oracle):
        if [r["method"] for r in rows] != list(ROUTES):
            return ["inconsistent"]
        reasons = []
        for r in rows:
            reasons += self._estimate(r, op["tol"], oracle)
        values = [r["ln_A"] for r in rows]
        spread = max(values) - min(values)
        ok = spread <= 4.0 * op["tol"] and all(r["converged"] for r in rows)
        if fmt == "json":
            payload = json.loads(text)
            if payload["spread_ok"] is not ok or payload["max_spread"] != spread:
                reasons.append("inconsistent")
        if rc != (0 if ok else 2):
            reasons.append("inconsistent")
        return sorted(set(reasons))

    @staticmethod
    def _check_check(d, rc):
        suites = d["suites"]
        if not suites:
            raise ValueError("no suites")
        passed = all(float(s["max_residual"]) <= float(s["threshold"]) for s in suites)
        if d["all_passed"] is not passed or rc != (0 if passed else 2):
            return ["inconsistent"]
        return []

    def _check_convergence(self, rows, rc, op, oracle):
        if not rows:
            raise ValueError("no rows")
        reasons = []
        gap = abs(oracle - _reference_value())
        if any(row[6] and not row[5] + gap <= op["tol"] for row in rows):
            reasons.append("converged_over_tol")
        if rc != 0:
            reasons.append("inconsistent")
        return reasons

    def classify(self, op, reason):
        if op["kind"] == "eval:limit-sequence":
            if reason == "converged_over_tol":
                return "known:limit_sequence_ignores_tol"
            if reason == "error_bar" and op["n"] >= LimitSequence.KNOWN_ROUNDING_N:
                return "known:limit_sequence_rounding"
        if reason == "converged_over_tol" and op["tol"] < self.ESTIMATOR_TOL_MIN:
            return "known:cli_tol_clamp"
        return None


def make(name: str) -> Workload:
    return {"estimate": Estimate, "limit_sequence": LimitSequence, "cli": Cli}[name]()


NAMES = ("estimate", "limit_sequence", "cli")
