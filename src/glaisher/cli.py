"""Command-line front end: eval, compare, check, convergence.

Exit codes follow the sysexits convention where it applies:
  0   success
  2   computation ran but did not converge / spread too large
  64  usage error (unknown method/format, tolerance out of range)
  70  internal evaluation failure
  74  output I/O error

Machine-readable output (json, csv) is byte-deterministic: identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import bench, estimator
from .estimator import TOL_MAX, TOL_MIN, ConstantEstimate
from .quadrature import PolicyInfeasibleError, QuadratureError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IO = 74

# Defaults, in one place:
#   tol        1e-10 (comfortably inside every route's supported range)
#   T_list     the grid used for the published truncation comparison
#   budgets    doubling ladder from the smallest sensible panel count
DEFAULT_TOL = 1e-10
DEFAULT_T_LIST = [25.0, 50.0, 100.0, 200.0]
DEFAULT_BUDGETS = [64, 128, 256, 512, 1024]

# --method accepts each estimator method with underscores or dashes.
METHOD_CHOICES = sorted(
    {*estimator.METHODS, *(m.replace("_", "-") for m in estimator.METHODS)}
)

COMPARE_CSV_HEADER = "method,ln_A,disc_err,trunc_err,evaluations,converged"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="glaisher", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("text", "json")):
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--output", default=None, help="write the report here")

    sp = sub.add_parser("eval", help="estimate ln A by one method")
    sp.add_argument("--method", required=True, choices=METHOD_CHOICES)
    sp.add_argument("--budget", type=int, default=None, help="evaluation cap")
    common(sp, ("text", "json"))

    sp = sub.add_parser("compare", help="cross-check every integral route")
    sp.add_argument("--budget", type=int, default=None, help="per-method cap")
    common(sp, ("text", "json", "csv"))

    sp = sub.add_parser("check", help="run the identity test suites")
    common(sp, ("text", "json"))

    sp = sub.add_parser("convergence", help="emit convergence sweep CSV")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--T-list", dest="T_list", default=None,
                    help="comma-separated truncation points")
    sp.add_argument("--budgets", default=None,
                    help="comma-separated evaluation budgets")
    sp.add_argument("--output", default=None, help="write the CSV here")
    return p


def _validate(parser: _Parser, args) -> None:
    """Reject --tol outside the estimator's range and --budget below 1."""
    if not TOL_MIN <= args.tol <= TOL_MAX:
        parser.error(f"--tol must lie in [{TOL_MIN}, {TOL_MAX}], got {args.tol}")
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        parser.error(f"--budget must be at least 1, got {budget}")


def _estimate_dict(est: ConstantEstimate) -> dict:
    return {
        "method": est.method,
        "ln_A": est.ln_A,
        "discretization_error": est.discretization_error,
        "truncation_error": est.truncation_error,
        "evaluations": est.evaluations,
        "converged": est.converged,
    }


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"glaisher: cannot write {output}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _run_estimate(method: str, tol: float, budget: Optional[int]) -> ConstantEstimate:
    if method == "limit_sequence":
        return estimator.ln_a_limit_sequence(1000 if budget is None else budget)
    if budget is None:
        return estimator.ln_a(method, tol)
    return estimator.ln_a(method, tol, max_evals=budget)


def _cmd_eval(args, parser) -> int:
    est = _run_estimate(args.method.replace("-", "_"), args.tol, args.budget)
    payload = _estimate_dict(est)
    if not est.converged:
        payload["warning"] = "did not converge within the evaluation budget"
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"{k} = {v}" for k, v in payload.items()]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if est.converged else EXIT_NOT_CONVERGED


def _cmd_compare(args, parser) -> int:
    estimates = [_run_estimate(m, args.tol, args.budget) for m in estimator.ROUTES]
    values = [e.ln_A for e in estimates]
    spread = max(values) - min(values)
    ok = spread <= 4.0 * args.tol and all(e.converged for e in estimates)
    if args.format == "csv":
        rows = [COMPARE_CSV_HEADER]
        for e in estimates:
            rows.append(
                f"{e.method},{e.ln_A!r},{e.discretization_error!r},"
                f"{e.truncation_error!r},{e.evaluations},"
                f"{'true' if e.converged else 'false'}"
            )
        _emit("\n".join(rows) + "\n", args.output)
    elif args.format == "json":
        payload = {
            "estimates": [_estimate_dict(e) for e in estimates],
            "max_spread": spread,
            "spread_ok": ok,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [
            f"{e.method:>14s}  ln_A={e.ln_A:.15f}  disc={e.discretization_error:.2e}"
            f"  trunc={e.truncation_error:.2e}  evals={e.evaluations}"
            f"  converged={e.converged}"
            for e in estimates
        ]
        lines.append(f"max pairwise spread = {spread:.3e} (limit {4.0 * args.tol:.1e})")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_check(args, parser) -> int:
    suites = estimator.identity_suites(args.tol)
    ok = all(s["max_residual"] <= s["threshold"] for s in suites)
    if args.format == "json":
        payload = {"suites": suites, "all_passed": ok}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [
            f"{s['suite']:>20s}  max_residual={s['max_residual']:.3e}"
            f"  threshold={s['threshold']:.1e}"
            f"  {'pass' if s['max_residual'] <= s['threshold'] else 'FAIL'}"
            for s in suites
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _parse_list(parser, text, cast, what):
    try:
        values = [cast(part) for part in text.split(",") if part]
    except ValueError:
        parser.error(f"cannot parse {what} list {text!r}")
    if not values:
        parser.error(f"empty {what} list")
    return values


def _cmd_convergence(args, parser) -> int:
    T_list = (
        _parse_list(parser, args.T_list, float, "T") if args.T_list else DEFAULT_T_LIST
    )
    budgets = (
        _parse_list(parser, args.budgets, int, "budget")
        if args.budgets
        else DEFAULT_BUDGETS
    )
    inner = estimator.inner_tol(args.tol)
    records = bench.sweep_truncation("binet", T_list)
    records += bench.sweep_truncation("malmsten", T_list)
    for method in estimator.ROUTES:
        records += bench.sweep_nodes(method, budgets, inner)
    _emit(bench.records_to_string(records), args.output)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "eval": _cmd_eval,
        "compare": _cmd_compare,
        "check": _cmd_check,
        "convergence": _cmd_convergence,
    }
    try:
        _validate(parser, args)
        return handlers[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (PolicyInfeasibleError, QuadratureError, ValueError) as exc:
        print(f"glaisher: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
