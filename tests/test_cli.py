import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glaisher
from glaisher.bench import CSV_HEADER, parse_csv
from glaisher.cli import main
from glaisher.estimator import LN_A_REFERENCE


# A child interpreter imports the same glaisher as this test process.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(glaisher.__file__).parents[1]), os.environ.get("PYTHONPATH"))
        if p
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_malmsten_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "malmsten", "--tol", "1e-10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "malmsten"
        assert abs(payload["ln_A"] - LN_A_REFERENCE) <= 1e-9
        assert payload["converged"] is True

    def test_binet_same_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "binet", "--tol", "1e-10",
            "--format", "json",
        )
        assert code == 0
        assert abs(json.loads(out)["ln_A"] - LN_A_REFERENCE) <= 1e-9

    def test_classical_loose_tol(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "classical", "--tol", "1e-3",
            "--format", "json",
        )
        assert code == 0
        assert abs(json.loads(out)["ln_A"] - LN_A_REFERENCE) <= 1e-3

    def test_non_convergence_exit_2_with_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "classical", "--tol", "1e-12",
            "--budget", "93", "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert "warning" in payload
        assert "ln_A" in payload  # value still printed

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--method", "direct-lgamma")
        assert code == 0
        assert "ln_A" in out


class TestCompare:
    def test_spread_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--tol", "1e-9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_spread"] <= 4e-9
        assert len(payload["estimates"]) == 4

    def test_budget_cap_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "compare", "--tol", "1e-12", "--budget", "100",
            "--format", "json",
        )
        assert code == 2

    def test_lowest_tol_is_met(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--tol", "1e-13", "--format", "json",
        )
        assert code == 0
        estimates = json.loads(out)["estimates"]
        assert len(estimates) == 4
        for e in estimates:
            assert e["converged"] is True
            assert e["discretization_error"] + e["truncation_error"] <= 1e-13

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--tol", "1e-6", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "method,ln_A,disc_err,trunc_err,evaluations,converged"


class TestCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        suites = {s["suite"]: s for s in payload["suites"]}
        assert len(suites) == 4
        assert suites["binet_identity"]["max_residual"] <= 1e-9

    def test_relaxed_tol_passes(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--tol", "1e-4")
        assert code == 0


class TestConvergence:
    def test_default_csv(self, capsys):
        code, out, _ = run_cli(capsys, "convergence")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        records = parse_csv(out)
        binet100 = next(
            r for r in records
            if r.method == "binet" and r.truncation_T == 100.0
            and r.truncation_mode == "truncate"
        )
        assert 3.3e-3 / 2.0 <= binet100.abs_error <= 3.3e-3 * 2.0
        malm_far = [
            r for r in records
            if r.method == "malmsten" and r.truncation_mode == "truncate"
            and r.truncation_T >= 40.0
        ]
        assert malm_far
        assert all(r.abs_error <= 1e-12 for r in malm_far)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "conv.csv"
        code, _, _ = run_cli(
            capsys, "convergence", "--T-list", "25,50", "--budgets", "64,128",
            "--output", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == CSV_HEADER

    def test_io_error_exit_74(self, capsys):
        code, _, err = run_cli(
            capsys, "convergence", "--T-list", "25", "--budgets", "64",
            "--output", "/no/such/dir/conv.csv",
        )
        assert code == 74


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--method", "malmsten", "--tol", "1e-8", "--format", "json"],
            ["compare", "--tol", "1e-6", "--format", "csv"],
            ["convergence", "--T-list", "25,50", "--budgets", "64"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


class TestUsageErrors:
    def test_unknown_method(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--method", "zeta")
        assert code == 64

    def test_unknown_format(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--method", "binet", "--format", "xml")
        assert code == 64

    def test_tol_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--method", "binet", "--tol", "1e-20")
        assert code == 64
        code, _, _ = run_cli(capsys, "compare", "--tol", "0.5")
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--method", "binet", "--budget", "-5"],
            ["eval", "--method", "limit-sequence", "--budget", "0"],
            ["compare", "--budget", "0"],
        ],
    )
    def test_budget_below_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "--budget" in err

    def test_bad_t_list(self, capsys):
        code, _, _ = run_cli(capsys, "convergence", "--T-list", "a,b")
        assert code == 64


class TestBinaryInvocation:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glaisher.cli", "eval", "--method",
             "limit-sequence", "--format", "json"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["ln_A"] - LN_A_REFERENCE) <= 1e-8

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glaisher.cli", "eval"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 64
