"""Command-line front end: eval, compare, check, convergence.

Exit codes follow the sysexits convention where it applies:
  0   success
  2   computation ran but did not converge / spread too large / suite failed
  64  usage error (unknown method/format, tolerance out of range)
  70  internal evaluation failure
  74  output I/O error

Machine-readable output (json, csv) is byte-deterministic: identical
invocations produce identical bytes.

A well-formed command (a command, then pairs of an option spelt out in full
and a non-empty value that does not start with "-" and converts) is parsed
from its own option table, any other argv by the top-level argparse parser.
JSON output is json.dumps(payload, indent=2), each dict of scalars by json's
C encoder.
"""

from __future__ import annotations

import argparse
import functools
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

# Defaults, in one place:
#   tol        1e-10 (comfortably inside every route's supported range)
#   T_list     the grid used for the published truncation comparison
#   budgets    one evaluation budget per level of the quadrature: K21 and
#              Patterson's 43- and 87-point rules
DEFAULT_TOL = 1e-10
DEFAULT_T_LIST = [25.0, 50.0, 100.0, 200.0]
DEFAULT_BUDGETS = [21, 43, 87]

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


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, tuple]]:
    """The top-level parser and each command's option table, built once.

    Parsing leaves them unchanged.  An option table holds the actions that
    add_argument returned, by option string, the namespace's defaults in
    argparse's order, and the required actions."""
    p = _Parser(prog="glaisher", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    options = {}

    def add(sp, *flags, **kwargs):
        options.setdefault(sp, []).append(sp.add_argument(*flags, **kwargs))

    def common(sp, formats=("text", "json")):
        add(sp, "--tol", type=float, default=DEFAULT_TOL)
        add(sp, "--format", choices=formats, default="text")
        add(sp, "--output", default=None, help="write the report here")

    sp = sub.add_parser("eval", help="estimate ln A by one method")
    sp.set_defaults(run=_cmd_eval)
    add(sp, "--method", required=True, choices=METHOD_CHOICES)
    add(sp, "--budget", type=int, default=None, help="evaluation cap")
    common(sp, ("text", "json"))

    sp = sub.add_parser("compare", help="cross-check every integral route")
    sp.set_defaults(run=_cmd_compare)
    add(sp, "--budget", type=int, default=None, help="per-method cap")
    common(sp, ("text", "json", "csv"))

    sp = sub.add_parser("check", help="run the identity test suites")
    sp.set_defaults(run=_cmd_check)
    common(sp, ("text", "json"))

    sp = sub.add_parser("convergence", help="emit convergence sweep CSV")
    sp.set_defaults(run=_cmd_convergence)
    add(sp, "--tol", type=float, default=DEFAULT_TOL)
    add(sp, "--T-list", dest="T_list", default=None,
        help="comma-separated truncation points")
    add(sp, "--budgets", default=None,
        help="comma-separated evaluation budgets")
    add(sp, "--output", default=None, help="write the CSV here")
    tables = {}
    for name, sp in sub.choices.items():
        actions = options[sp]
        defaults = {**{a.dest: a.default for a in actions}, "run": sp.get_default("run")}
        flags = {flag: a for a in actions for flag in a.option_strings}
        tables[name] = flags, defaults, [a for a in actions if a.required]
    return p, tables


def _fast_parse(argv, table) -> argparse.Namespace | None:
    """The namespace that the top-level parser would return if argv is a
    well-formed command (module docstring), else None; table is the command's."""
    if not len(argv) % 2:
        return None
    flags, defaults, required = table
    args = argparse.Namespace(command=argv[0], **defaults)
    seen = set()
    for flag, value in zip(argv[1::2], argv[2::2]):
        action = flags.get(flag)
        if action is None or not value or value[0] == "-":
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
        seen.add(action)
    return args if seen.issuperset(required) else None


def _parse_list(parser, text, cast, what, default):
    """The comma-separated values of text, or default if the option was not given.

    An empty item ("25,,50", ",25", "64,") is rejected, not skipped.
    """
    if text is None:
        return default
    parts = text.split(",")
    if not any(parts):
        parser.error(f"empty {what} list")
    if not all(parts):
        parser.error(f"empty item in {what} list {text!r}")
    try:
        return [cast(part) for part in parts]
    except ValueError:
        parser.error(f"cannot parse {what} list {text!r}")


def _validate(parser: _Parser, args) -> None:
    """Reject arguments outside the estimator's and the sweeps' ranges; parse lists.

    eval's --method is normalised to the estimator's spelling here.
    """
    if not TOL_MIN <= args.tol <= TOL_MAX:
        parser.error(f"--tol must lie in [{TOL_MIN}, {TOL_MAX}], got {args.tol}")
    if args.command == "eval":
        args.method = args.method.replace("-", "_")
    budget = getattr(args, "budget", None)
    if budget is not None:
        # eval runs its method, compare every route
        for method in [args.method] if args.command == "eval" else estimator.ROUTES:
            floor, cap = estimator.BUDGET_RANGE[method]
            if budget < floor:
                parser.error(f"--budget must be at least {floor}, got {budget}")
            if cap is not None and budget > cap:
                name = method.replace("_", "-")
                parser.error(f"--budget of {name} must be at most {cap}, got {budget}")
    if args.command == "convergence":
        args.T_list = _parse_list(parser, args.T_list, float, "T", DEFAULT_T_LIST)
        args.budgets = _parse_list(parser, args.budgets, int, "budget", DEFAULT_BUDGETS)
        try:
            bench.check_T_list(args.T_list)
            bench.check_budgets(args.budgets)
        except ValueError as exc:
            parser.error(str(exc))


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


def _cmd_eval(args) -> int:
    est = estimator.ln_a(args.method, args.tol, max_evals=args.budget)
    payload = _estimate_dict(est)
    if not est.converged:
        payload["warning"] = "did not converge within the evaluation budget"
    if args.format == "json":
        _emit(_json_text(payload) + "\n", args.output)
    else:
        lines = [f"{k} = {v}" for k, v in payload.items()]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if est.converged else EXIT_NOT_CONVERGED


def _cmd_compare(args) -> int:
    estimates, spread, limit, ok = estimator.cross_check(args.tol, args.budget)
    if args.format == "csv":
        rows = [_estimate_dict(e).values() for e in estimates]
        _emit(bench.csv_text(COMPARE_CSV_HEADER, rows), args.output)
    elif args.format == "json":
        payload = {
            "estimates": [_estimate_dict(e) for e in estimates],
            "max_spread": spread,
            "spread_ok": ok,
        }
        _emit(_json_text(payload) + "\n", args.output)
    else:
        lines = [
            f"{e.method:>14s}  ln_A={e.ln_A:.15f}  disc={e.discretization_error:.2e}"
            f"  trunc={e.truncation_error:.2e}  evals={e.evaluations}"
            f"  converged={e.converged}"
            for e in estimates
        ]
        lines.append(f"max pairwise spread = {spread:.3e} (limit {limit:.1e})")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_check(args) -> int:
    suites, passed = estimator.identity_suites(args.tol)
    ok = all(passed)
    if args.format == "json":
        payload = {"suites": suites, "all_passed": ok}
        _emit(_json_text(payload) + "\n", args.output)
    else:
        lines = [
            f"{s['suite']:>20s}  max_residual={s['max_residual']:.3e}"
            f"  threshold={s['threshold']:.1e}"
            f"  {'pass' if p else 'FAIL'}"
            for s, p in zip(suites, passed)
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_convergence(args) -> int:
    inner = estimator.inner_tol(args.tol)
    records = bench.sweep_truncation("binet", args.T_list, inner)
    records += bench.sweep_truncation("malmsten", args.T_list, inner)
    for method in estimator.ROUTES:
        records += bench.sweep_nodes(method, args.budgets, inner)
    _emit(bench.records_to_string(records), args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command; a well-formed one skips argparse, any other argv goes
    to the top-level parser.  Returns the exit code."""
    parser, tables = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        table = tables.get(argv[0]) if argv else None
        if table is None or (args := _fast_parse(argv, table)) is None:
            args = parser.parse_args(argv)
        _validate(parser, args)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (EvaluationFailedError, ValueError) as exc:
        print(f"glaisher: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
