"""Command-line front end: eval, compare, check, convergence.

Exit codes follow the sysexits convention where it applies:
  0   success
  2   computation ran but did not converge / spread too large / suite failed
  64  usage error (unknown method/format, tolerance out of range)
  70  internal evaluation failure
  74  output I/O error

Machine-readable output (json, csv) is byte-deterministic: identical
invocations produce identical bytes.

_COMMANDS states the CLI: each command's help line, run function and
options with every default.  A well-formed command (a command, then pairs of
an option spelt out in full and a non-empty value that does not start with
"-" and converts) is parsed from that table; argparse's parser is built from
it only for any other argv (help, abbreviations, "--opt=value", leftovers)
and for usage errors.  A run function returns (verdict, report text) and
writes nothing: main writes the report once, to stdout or --output, and
exits 0 if the verdict holds, else 2.  JSON output is
json.dumps(payload, indent=2), each dict of scalars by json's C encoder.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import bench, estimator
from .estimator import TOL_MAX, TOL_MIN, ConstantEstimate
from .quadrature import EvaluationFailedError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IO = 74

# --method accepts each estimator method with underscores or dashes.
METHOD_CHOICES = sorted(
    {*estimator.METHODS, *(m.replace("_", "-") for m in estimator.METHODS)}
)

COMPARE_CSV_HEADER = "method,ln_A,disc_err,trunc_err,evaluations,converged"
# What eval, compare and check report of an estimate, in order.
_REPORTED_FIELDS = ("method", "ln_A", "discretization_error", "truncation_error",
                   "evaluations", "converged")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def print_help(self, file=None):
        """Help goes to stdout through _emit, so a failed write exits 74."""
        _emit(self.format_help(), None)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse parser of _COMMANDS, built once; parsing leaves it unchanged."""
    parser = _Parser(prog="glaisher", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, run, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=line)
        sp.set_defaults(run=run)
        for flag, (dest, type_, choices, default, required, help_) in options.items():
            sp.add_argument(flag, dest=dest, type=type_, choices=choices,
                            default=default, required=required, help=help_)
    return parser


def _fast_parse(argv) -> argparse.Namespace | None:
    """The namespace that _build_parser() would return if argv is a
    well-formed command (module docstring), else None."""
    if not len(argv) % 2 or (command := _COMMANDS.get(argv[0])) is None:
        return None
    _, run, options = command
    args = argparse.Namespace()
    vars(args).update(command=argv[0], **{o[0]: o[3] for o in options.values()}, run=run)
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or not value or value[0] == "-":
            return None
        dest, type_, choices = option[:3]
        try:
            value = value if type_ is None else type_(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    # A flag in argv is in an option's place: no value starts with "-".
    return args if all(flag in argv for flag, o in options.items() if o[4]) else None


def _parse_list(text, cast, what):
    """The comma-separated values of text.

    An empty item ("25,,50", ",25", "64,") is rejected, not skipped.
    """
    parts = text.split(",")
    if not any(parts):
        _build_parser().error(f"empty {what} list")
    if not all(parts):
        _build_parser().error(f"empty item in {what} list {text!r}")
    try:
        return [cast(part) for part in parts]
    except ValueError:
        _build_parser().error(f"cannot parse {what} list {text!r}")


def _validate(args) -> None:
    """Reject arguments outside the estimator's and the sweeps' ranges; parse lists.

    eval's --method is normalised to the estimator's spelling here.
    """
    if not TOL_MIN <= args.tol <= TOL_MAX:
        _build_parser().error(f"--tol must lie in [{TOL_MIN}, {TOL_MAX}], got {args.tol}")
    if args.command == "eval":
        args.method = args.method.replace("-", "_")
    budget = getattr(args, "budget", None)
    if budget is not None:
        # eval runs its method, compare every route
        for method in [args.method] if args.command == "eval" else estimator.ROUTES:
            floor, cap = estimator.BUDGET_RANGE[method]
            if budget < floor:
                _build_parser().error(f"--budget must be at least {floor}, got {budget}")
            if cap is not None and budget > cap:
                name = method.replace("_", "-")
                _build_parser().error(f"--budget of {name} must be at most {cap}, got {budget}")
    if args.command == "convergence":
        args.T_list = _parse_list(args.T_list, float, "T")
        args.budgets = _parse_list(args.budgets, int, "budget")
        try:
            bench.check_T_list(args.T_list)
            bench.check_budgets(args.budgets)
        except ValueError as exc:
            _build_parser().error(str(exc))


def _estimate_dict(est: ConstantEstimate) -> dict:
    return {name: getattr(est, name) for name in _REPORTED_FIELDS}


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


def _json_text(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2) for string keys; json would indent in pure Python."""
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if not isinstance(obj, dict):
        return "[" + inner + ("," + inner).join(_json_text(v, depth + 1) for v in obj) + outer + "]"
    if all(v is None or isinstance(v, (str, int, float)) for v in obj.values()):
        return "{" + inner + _flat_encoder(depth).encode(obj)[1:-1] + outer + "}"
    items = (f"{json.dumps(k)}: {_json_text(v, depth + 1)}" for k, v in obj.items())
    return "{" + inner + ("," + inner).join(items) + outer + "}"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            print(f"glaisher: cannot write stdout: {exc}", file=sys.stderr)
            # What stdout still buffers would fail again at the interpreter's
            # final flush; send it to os.devnull (the Python docs' recipe for
            # a broken pipe, in the signal module's notes on SIGPIPE).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise SystemExit(EXIT_IO) from None
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"glaisher: cannot write {output}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _report(fmt: str, payload, lines) -> str:
    """payload as JSON for --format json, else the text lines, each ended by a newline."""
    return _json_text(payload) + "\n" if fmt == "json" else "\n".join(lines) + "\n"


def _cmd_eval(args) -> tuple[bool, str]:
    est = estimator.ln_a(args.method, args.tol, max_evals=args.budget)
    payload = _estimate_dict(est)
    if not est.converged:
        payload["warning"] = "did not converge within the evaluation budget"
    return est.converged, _report(args.format, payload,
                                  (f"{k} = {v}" for k, v in payload.items()))


def _cmd_compare(args) -> tuple[bool, str]:
    estimates, spread, limit, ok = estimator.cross_check(args.tol, args.budget)
    if args.format == "csv":
        rows = [_estimate_dict(e).values() for e in estimates]
        return ok, bench.csv_text(COMPARE_CSV_HEADER, rows)
    payload = {"estimates": [_estimate_dict(e) for e in estimates],
               "max_spread": spread, "spread_ok": ok}
    lines = (
        f"{e.method:>14s}  ln_A={e.ln_A:.15f}  disc={e.discretization_error:.2e}"
        f"  trunc={e.truncation_error:.2e}  evals={e.evaluations}"
        f"  converged={e.converged}"
        for e in estimates
    )
    footer = f"max pairwise spread = {spread:.3e} (limit {limit:.1e})"
    return ok, _report(args.format, payload, itertools.chain(lines, [footer]))


def _cmd_check(args) -> tuple[bool, str]:
    suites, passed = estimator.identity_suites(args.tol)
    ok = all(passed)
    lines = (
        f"{s['suite']:>20s}  max_residual={s['max_residual']:.3e}"
        f"  threshold={s['threshold']:.1e}"
        f"  {'pass' if p else 'FAIL'}"
        for s, p in zip(suites, passed)
    )
    return ok, _report(args.format, {"suites": suites, "all_passed": ok}, lines)


def _cmd_convergence(args) -> tuple[bool, str]:
    inner = estimator.inner_tol(args.tol)
    records = bench.sweep_truncation("binet", args.T_list, inner)
    records += bench.sweep_truncation("malmsten", args.T_list, inner)
    for method in estimator.ROUTES:
        records += bench.sweep_nodes(method, args.budgets, inner)
    return True, bench.records_to_string(records)


# The CLI, per command: its help line, its run function and its options,
# flag -> (dest, type, choices, default, required, help), in argparse's order;
# every default is here:
#   --tol      1e-10 (comfortably inside every route's supported range)
#   --T-list   the grid used for the published truncation comparison
#   --budgets  one evaluation budget per level of the quadrature: K21 and
#              Patterson's 43- and 87-point rules
_TOL = ("tol", float, None, 1e-10, False, None)


def _report_options(formats) -> dict:
    """--tol, --format and --output, as eval, compare and check take them."""
    return {"--tol": _TOL, "--format": ("format", None, formats, "text", False, None),
            "--output": ("output", None, None, None, False, "write the report here")}


_COMMANDS = {
    "eval": ("estimate ln A by one method", _cmd_eval, {
        "--method": ("method", None, METHOD_CHOICES, None, True, None),
        "--budget": ("budget", int, None, None, False, "evaluation cap"),
        **_report_options(("text", "json"))}),
    "compare": ("cross-check every integral route", _cmd_compare, {
        "--budget": ("budget", int, None, None, False, "per-method cap"),
        **_report_options(("text", "json", "csv"))}),
    "check": ("run the identity test suites", _cmd_check, _report_options(("text", "json"))),
    "convergence": ("emit convergence sweep CSV", _cmd_convergence, {
        "--tol": _TOL,
        "--T-list": ("T_list", None, None, "25,50,100,200", False,
                     "comma-separated truncation points"),
        "--budgets": ("budgets", None, None, "21,43,87", False,
                      "comma-separated evaluation budgets"),
        "--output": ("output", None, None, None, False, "write the CSV here")}),
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its report; a well-formed one skips argparse,
    any other argv goes to the parser built from _COMMANDS.  Returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        if (args := _fast_parse(argv)) is None:
            args = _build_parser().parse_args(argv)
        _validate(args)
        ok, text = args.run(args)
        _emit(text, args.output)
        return EXIT_OK if ok else EXIT_NOT_CONVERGED
    except SystemExit as exc:
        return int(exc.code or 0)
    except (EvaluationFailedError, ValueError) as exc:
        print(f"glaisher: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
