import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glaisher
from glaisher import cli, estimator, integrands
from glaisher.bench import CSV_HEADER
from glaisher.cli import main
from glaisher.estimator import LN_A_REFERENCE, N_MAX


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
            "--budget", "64", "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert "warning" in payload
        assert "ln_A" in payload  # value still printed

    @pytest.mark.parametrize("tol, budget", [("1e-12", 93), ("1e-10", 40)])
    def test_budget_is_a_hard_cap(self, capsys, tol, budget):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "binet", "--tol", tol,
            "--budget", str(budget), "--format", "json",
        )
        assert json.loads(out)["evaluations"] <= budget

    @pytest.mark.parametrize("budget", [1, 5, 1000, N_MAX])
    def test_limit_sequence_budget_is_a_hard_cap(self, capsys, budget):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "limit-sequence", "--budget", str(budget),
            "--format", "json",
        )
        assert json.loads(out)["evaluations"] <= budget

    # n is the smallest whose bar meets --tol, below the --budget cap.
    @pytest.mark.parametrize(
        "tol, budget, n", [("1e-10", [], 9), ("1e-13", [], 20), ("1e-3", ["--budget", "5"], 2)]
    )
    def test_limit_sequence_n_from_tol(self, capsys, tol, budget, n):
        code, out, _ = run_cli(
            capsys, "eval", "--method", "limit-sequence", "--tol", tol, *budget,
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["evaluations"] == n
        # 1e-16 covers the rounding of LN_A_REFERENCE itself.
        assert abs(payload["ln_A"] - LN_A_REFERENCE) <= payload["discretization_error"] + 1e-16

    def test_limit_sequence_honours_tol(self, capsys):
        # The bar at n = 5 is ~4.8e-9: met at 1e-8, not at 1e-13.
        code, out, _ = run_cli(
            capsys, "eval", "--method", "limit-sequence", "--budget", "5",
            "--tol", "1e-13", "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["evaluations"] == 5
        assert "warning" in payload
        code, _, _ = run_cli(
            capsys, "eval", "--method", "limit-sequence", "--budget", "5",
            "--tol", "1e-8", "--format", "json",
        )
        assert code == 0

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--method", "direct-lgamma")
        assert code == 0
        assert "ln_A" in out

    def test_evaluation_failure_exit_70(self, capsys, monkeypatch):
        spec = integrands.get_integrand("classical")
        nan_spec = spec._replace(eval=lambda x: math.nan)
        monkeypatch.setitem(integrands._SPECS, "classical", nan_spec)
        code, out, err = run_cli(capsys, "eval", "--method", "classical")
        assert code == 70
        assert out == ""
        assert "evaluation failed" in err


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
            capsys, "compare", "--tol", "1e-12", "--budget", "64",
            "--format", "json",
        )
        assert code == 2

    @pytest.mark.parametrize("tol", ["1e-3", "1e-8", "1e-13"])
    def test_shifted_route_exit_2(self, capsys, monkeypatch, tol):
        # A Malmsten offset 5 tol too large: every route still converges, so
        # only the spread verdict can catch it.
        integrand_id, scale, offset = estimator.ROUTES["malmsten"]
        shifted = (integrand_id, scale, offset + 5 * float(tol))
        monkeypatch.setitem(estimator.ROUTES, "malmsten", shifted)
        code, out, _ = run_cli(capsys, "compare", "--tol", tol, "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["spread_ok"] is False
        assert all(e["converged"] for e in payload["estimates"])

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

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--tol", "1e-6", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert [ln.split()[0] for ln in lines[:4]] == [
            "classical", "binet", "malmsten", "direct_lgamma",
        ]
        assert lines[4].startswith("max pairwise spread = ")
        assert len(lines) == 5


class TestCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        suites = {s["suite"]: s for s in payload["suites"]}
        assert list(suites) == ["binet_identity", "malmsten_vs_lgamma", "form_equivalence"]
        assert suites["binet_identity"]["max_residual"] <= 1e-9

    def test_relaxed_tol_passes(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--tol", "1e-4")
        assert code == 0

    @pytest.mark.parametrize(
        "tol", [f"{m}e{e}" for e in range(-13, -3) for m in (1, 2, 5)] + ["1e-3"]
    )
    def test_passes_at_every_accepted_tol(self, capsys, tol):
        code, _, _ = run_cli(capsys, "check", "--tol", tol)
        assert code == 0

    def test_failed_suite_exit_2(self, capsys, monkeypatch):
        # Form 12 moved by 1e-12 leaves form_equivalence's residual near
        # 1e-12, far above its 16 eps threshold; the other suites do not
        # read form 12.
        orig = estimator._binet12
        monkeypatch.setattr(estimator, "_binet12", lambda t: orig(t) + 1e-12)
        code, out, _ = run_cli(capsys, "check", "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["all_passed"] is False
        code, out, _ = run_cli(capsys, "check", "--format", "text")
        assert code == 2
        failed = [ln.split()[0] for ln in out.splitlines() if ln.endswith("FAIL")]
        assert failed == ["form_equivalence"]


def convergence_rows(out):
    """The rows of convergence CSV text, each a dict keyed by the header."""
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER.split(","), line.split(","), strict=True)) for line in lines[1:]]


class TestConvergence:
    def test_default_csv(self, capsys):
        code, out, _ = run_cli(capsys, "convergence")
        assert code == 0
        rows = convergence_rows(out)
        binet100 = next(
            r for r in rows
            if r["method"] == "binet" and float(r["truncation_T"]) == 100.0
            and r["truncation_mode"] == "truncate"
        )
        assert 3.3e-3 / 2.0 <= float(binet100["abs_error"]) <= 3.3e-3 * 2.0
        malm_far = [
            r for r in rows
            if r["method"] == "malmsten" and r["truncation_mode"] == "truncate"
            and float(r["truncation_T"]) >= 40.0
        ]
        assert malm_far
        assert all(float(r["abs_error"]) <= 1e-12 for r in malm_far)

    def test_default_budgets_are_the_levels(self, capsys):
        # Four T for each of two truncation sweeps, then one budget per level
        # for each route: a budget above 87 would repeat the 87 row.
        rows = convergence_rows(run_cli(capsys, "convergence")[1])
        assert len(rows) == 2 * 4 + 4 * 3
        budgets = [int(r["node_budget"]) for r in rows[8:]]
        assert budgets == [21, 43, 87] * 4
        assert all(int(r["evaluations_used"]) <= int(r["node_budget"]) for r in rows[8:])

    def test_sweeps_follow_lowest_tol(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--tol", "1e-13")
        assert code == 0
        rows = convergence_rows(out)
        assert {r["converged"] for r in rows} <= {"true", "false"}
        converged = [r for r in rows if r["converged"] == "true"]
        assert converged
        assert all(float(r["abs_error"]) <= 1e-13 for r in converged)

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

    def _run_with_stdout(self, stdout, argv=("eval", "--method", "binet"), env=CHILD_ENV):
        return subprocess.run(
            [sys.executable, "-m", "glaisher.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exit_74(self):
        with open("/dev/full", "w") as full:
            proc = self._run_with_stdout(full)
        assert proc.returncode == 74
        assert proc.stderr == (
            "glaisher: cannot write stdout: [Errno 28] No space left on device\n"
        )

    def test_closed_pipe_stdout_exit_74(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run_with_stdout(write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 74
        assert proc.stderr == "glaisher: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["eval", "-h"]], ids=" ".join)
    @pytest.mark.parametrize("sink", ["full", "closed_pipe"])
    def test_help_on_unwritable_stdout_exit_74(self, argv, buffered, sink):
        # Help goes through the reports' writer: one line on stderr, no traceback.
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        if sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            with open("/dev/full", "w") as full:
                proc = self._run_with_stdout(full, argv, env)
            reason = "[Errno 28] No space left on device"
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = self._run_with_stdout(write_end, argv, env)
            finally:
                os.close(write_end)
            reason = "[Errno 32] Broken pipe"
        assert proc.returncode == 74
        assert proc.stderr == f"glaisher: cannot write stdout: {reason}\n"

    def test_convergence_counts_its_integrand_values(self, capsys, node_calls):
        # Each truncation point runs on the first panel of its own tail map,
        # and each node sweep reuses a run at every smaller budget down to
        # its evaluations: 492 values at tol 1e-10 with one budget per level,
        # where the bisecting engine with a panel memo per sweep computed 920
        # at budgets 64 to 1024.  Nothing outlives a command, so a second
        # one computes as many.
        counts = []
        for _ in range(2):
            node_calls.clear()
            assert run_cli(capsys, "convergence", "--tol", "1e-10")[0] == 0
            counts.append(len(node_calls))
        assert counts == [492, 492]


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

    def test_reused_parser_survives_a_usage_error(self, capsys):
        argv = ["eval", "--method", "binet", "--tol", "1e-8", "--format", "json"]
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, "eval", "--method", "zeta")[0] == 64
        assert run_cli(capsys, *argv) == first


class TestDispatch:
    """A well-formed command skips argparse; any other argv goes to the
    top-level parser, parsed once."""

    @pytest.mark.parametrize("argv, code", [([], 64), (["--help"], 0), (["frobnicate"], 64)])
    def test_no_command_goes_to_the_top_level_parser(self, capsys, monkeypatch, argv, code):
        parser = cli._build_parser()
        seen = []
        real = parser.parse_args

        def parse_args(args=None, namespace=None):
            seen.append(args)
            return real(args, namespace)

        monkeypatch.setattr(parser, "parse_args", parse_args)
        assert run_cli(capsys, *argv)[0] == code
        assert seen == [argv]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--method", "binet", "--tol", "1e-6", "--format", "json"],
            ["compare", "--tol", "1e-6", "--format", "csv", "--budget", "100"],
            ["check", "--tol", "1e-6", "--format", "json"],
            ["convergence", "--tol", "1e-6", "--T-list", "25,50", "--budgets", "21,43"],
            ["eval", "--method", "binet", "--tol", "1e-6"],
        ],
    )
    def test_a_well_formed_command_skips_argparse(self, capsys, monkeypatch, argv):
        parser = cli._build_parser()

        def parse_args(args=None, namespace=None):
            raise AssertionError(f"top-level parse_args({args})")

        def parse_known_args(self, args=None, namespace=None):
            raise AssertionError(f"parse_known_args({args})")

        monkeypatch.setattr(parser, "parse_args", parse_args)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)
        assert run_cli(capsys, *argv)[0] == 0

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eval", "--meth", "binet"], 0),
            (["eval", "--method=binet"], 0),
            (["eval", "-h"], 0),
            (["eval", "--method", "binet", "--budget", "-5"], 64),
            (["eval", "--method", "binet", "extra"], 64),
        ],
    )
    def test_any_other_command_goes_to_argparse_once(self, capsys, monkeypatch, argv, code):
        parser = cli._build_parser()
        seen = []
        real = parser.parse_args

        def parse_args(args=None, namespace=None):
            seen.append(args)
            return real(args, namespace)

        monkeypatch.setattr(parser, "parse_args", parse_args)
        assert run_cli(capsys, *argv)[0] == code
        assert seen == [argv]

    def test_argparse_is_built_only_when_a_command_needs_it(self, capsys):
        cli._build_parser.cache_clear()
        for argv in (["eval", "--method", "binet", "--tol", "1e-6", "--format", "json"],
                     ["compare", "--tol", "1e-6", "--format", "csv"],
                     ["check", "--tol", "1e-6"],
                     ["convergence", "--tol", "1e-6", "--T-list", "25", "--budgets", "21"]):
            assert run_cli(capsys, *argv)[0] == 0
        assert cli._build_parser.cache_info().currsize == 0
        code, _, err = run_cli(capsys, "eval", "--method", "binet", "--tol", "1e-20")
        assert code == 64
        assert err.startswith("usage: glaisher [-h] {eval,compare,check,convergence} ...\n")
        assert cli._build_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--method", "binet", "--tol", "1e-6", "--format", "json"],
        ["eval", "--method", "direct-lgamma", "--tol", "1e-6"],
        ["eval", "--method", "classical", "--tol", "1e-13", "--budget", "21"],
        *(["compare", "--tol", "1e-6", "--format", fmt] for fmt in ("json", "csv", "text")),
        ["compare", "--tol", "1e-13", "--budget", "21", "--format", "csv"],
        *(["check", "--tol", "1e-6", "--format", fmt] for fmt in ("json", "text")),
        ["convergence", "--tol", "1e-6", "--T-list", "25", "--budgets", "21"],
    ])
    def test_a_command_returns_its_report_and_main_writes_it(self, capsys, tmp_path, argv):
        args = cli._fast_parse(argv)
        cli._validate(args)
        ok, text = cli._COMMANDS[argv[0]][1](args)
        assert (type(ok), type(text)) == (bool, str)
        assert capsys.readouterr() == ("", "")
        assert run_cli(capsys, *argv) == (0 if ok else 2, text, "")
        out = tmp_path / "report"
        assert run_cli(capsys, *argv, "--output", str(out)) == (0 if ok else 2, "", "")
        assert out.read_text(encoding="utf-8") == text


# Each command's option strings, and pieces of argv around them: values that
# are valid, invalid, negative, empty, padded or NaN, help, "--" and strays.
OPTIONS = {
    "eval": ["--method", "--budget", "--tol", "--format", "--output"],
    "compare": ["--budget", "--tol", "--format", "--output"],
    "check": ["--tol", "--format", "--output"],
    "convergence": ["--tol", "--T-list", "--budgets", "--output"],
}
VALUES = ["1e-6", "3.2e-07", "binet", "direct-lgamma", "limit_sequence", "json", "csv",
          "text", "100", "21,43", "25,50", "out.txt", "abc", "xml", "zeta", "2.5", "-5",
          "-1e-6", "", " ", " 1e-6", "100 ", "nan", "NaN", "-nan", "inf", "1e-20"]
STRAYS = ["-h", "--help", "--", "extra", "check", "eval", "-", "--tol=1e-6",
          "--method=binet", "--form", "--meth", "--bud", "--T", "--budget=100"]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*OPTIONS, "frobnicate", "--tol"]))
    flags = OPTIONS.get(command, OPTIONS["eval"])
    pair = st.tuples(st.sampled_from(flags), st.sampled_from(VALUES))
    piece = st.sampled_from([*flags, *VALUES, *STRAYS]).map(lambda word: (word,))
    pieces = draw(st.lists(st.one_of(pair, pair, piece), max_size=6))
    return [command, *(word for p in pieces for word in p)]


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a)
                      and math.isnan(b))


class TestFastParse:
    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(_argvs())
    def test_fast_parse_returns_what_argparse_returns(self, argv):
        parser = cli._build_parser()
        fast = cli._fast_parse(argv)
        if fast is None:
            return
        try:
            args, extra = parser.parse_known_args(argv)
        except SystemExit as exc:
            raise AssertionError(f"argparse rejected {argv} that _fast_parse took") from exc
        assert extra == []
        assert list(vars(fast)) == list(vars(args))
        assert all(_same(vars(fast)[k], vars(args)[k]) for k in vars(args))

    def test_fast_parse_takes_pairs_and_nothing_else(self):
        argv = ["eval", "--method", "binet", "--tol", "nan", "--tol", " 1e-6"]
        args = cli._fast_parse(argv)
        assert (args.command, args.method, args.tol, args.format) == ("eval", "binet", 1e-6, "text")
        assert args.run is cli._cmd_eval
        for bad in (argv[:-1], argv + ["extra"], ["eval", "--meth", "binet"], ["eval"],
                    ["eval", "--method", "binet", "--tol", ""], ["eval", "--tol", "1e-6"]):
            assert cli._fast_parse(bad) is None


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


class TestJsonText:
    """cli._json_text writes what json.dumps(payload, indent=2) writes."""

    @staticmethod
    def payloads():
        est = estimator.ln_a("malmsten", 1e-10)
        unconverged = cli._estimate_dict(estimator.ln_a("classical", 1e-13, max_evals=21))
        unconverged["warning"] = "did not converge within the evaluation budget"
        estimates, spread, _, ok = estimator.cross_check(1e-8, None)
        suites, passed = estimator.identity_suites(1e-8)
        nan, inf = float("nan"), float("inf")
        return [
            cli._estimate_dict(est),
            unconverged,
            {"estimates": [cli._estimate_dict(e) for e in estimates],
             "max_spread": spread, "spread_ok": ok},
            {"suites": suites, "all_passed": all(passed)},
            {"nan": nan, "inf": inf, "-inf": -inf, "list": [nan, -inf, {"x": inf}]},
            [], {}, {"empty": [], "also": {}}, [[], {}, [[]]], ([1, 2], (3,)),
            {"method": "Malmstén", "note": "ünïcode ✓ \u2014 \"quoted\"\n"},
            "Glaisher–Kinkelin", 0, 1.5, None, True,
        ]

    def test_payloads(self):
        payloads = self.payloads()
        assert "warning" in payloads[1] and not payloads[1]["converged"]
        for payload in payloads:
            assert cli._json_text(payload) == json.dumps(payload, indent=2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_JSON)
    def test_any_json_value(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)


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

    @pytest.mark.parametrize("method", ["limit-sequence", "limit_sequence"])
    def test_limit_sequence_budget_above_n_max(self, capsys, method):
        code, out, err = run_cli(
            capsys, "eval", "--method", method, "--budget", str(N_MAX + 1)
        )
        assert code == 64
        assert out == ""
        assert "--budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--method", "classical", "--budget", "5"],
            ["eval", "--method", "binet", "--budget", "20"],
            ["compare", "--budget", "5"],
        ],
    )
    def test_budget_below_one_panel(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "--budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--T-list", "600"],
            ["--T-list", "50,25"],
            ["--budgets", "10"],
            ["--T-list", "nan"],
            ["--T-list", "25,nan,100"],
            ["--budgets", ","],
            ["--T-list", "25,,50"],
            ["--T-list", ",25"],
            ["--budgets", "64,"],
            ["--T-list", ""],
        ],
    )
    def test_convergence_arguments_out_of_contract(self, capsys, argv):
        code, out, _ = run_cli(capsys, "convergence", *argv)
        assert code == 64
        assert out == ""

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

    def test_import_leaves_out_dataclasses(self):
        # typing cannot be checked this way: numpy imports it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, glaisher.cli; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout == "False\n"
