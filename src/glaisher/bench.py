"""Convergence benchmarks: truncation sweeps and node-budget sweeps.

Turns the qualitative "converges much faster" comparison between the Binet
and Malmsten routes into measured numbers: absolute error against the frozen
reference as a function of the truncation point T (truncate-only, so the
tail error is visible) and of the evaluation budget.  Records are emitted as
CSV with shortest round-trip decimal formatting.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .estimator import LN_A_REFERENCE, ConstantEstimate, ln_a
from .quadrature import DEFAULT_MAX_EVALS, PANEL_EVALS, TRUNCATE_AT_MAX, TRUNCATE_AT_MIN

__all__ = [
    "ConvergenceRecord",
    "CSV_HEADER",
    "check_T_list",
    "check_budgets",
    "sweep_truncation",
    "sweep_nodes",
    "csv_text",
    "records_to_string",
]

# One CSV row: the fields are the columns.
ConvergenceRecord = namedtuple(
    "ConvergenceRecord",
    "method truncation_mode truncation_T node_budget evaluations_used abs_error converged",
)

CSV_HEADER = ",".join(ConvergenceRecord._fields)


def sweep_truncation(
    method: str, T_list: Sequence[float], tol: float = 1e-12
) -> list[ConvergenceRecord]:
    """One record per truncation point T, truncate mode forced.

    The discretization tolerance is pinned at tol, so abs_error isolates the
    truncation term.  Non-converged runs are recorded flagged, not dropped.
    """
    if method not in ("binet", "malmsten"):
        raise ValueError(f"truncation sweep supports binet|malmsten, got {method!r}")
    check_T_list(T_list)
    return [_record(ln_a(method, tol, truncate_at=float(T)), DEFAULT_MAX_EVALS) for T in T_list]


def sweep_nodes(
    method: str, budgets: Sequence[int], tol: float = 1e-12
) -> list[ConvergenceRecord]:
    """One record per evaluation budget, automatic truncation rule.

    The budgets run from the largest down.  A run that spent n evaluations
    is the same at every budget of at least n, so each result is reused at
    every smaller budget down to n.
    """
    check_budgets(budgets)
    records, est = [], None
    for b in reversed(budgets):
        if est is None or b < est.evaluations:
            est = ln_a(method, tol, max_evals=b)
        records.append(_record(est, b))
    return records[::-1]


def check_T_list(T_list: Sequence[float]) -> None:
    """Raise ValueError unless T_list is non-empty, ascending and each T in [5, 500].

    The range is quadrature's TRUNCATE_AT_MIN/MAX.  NaN fails every
    comparison, so the range check rejects it.
    """
    if list(T_list) != sorted(T_list) or not T_list:
        raise ValueError("T_list must be non-empty and sorted ascending")
    if not all(TRUNCATE_AT_MIN <= T <= TRUNCATE_AT_MAX for T in T_list):
        raise ValueError(f"T values must lie in [{TRUNCATE_AT_MIN:g}, {TRUNCATE_AT_MAX:g}]")


def check_budgets(budgets: Sequence[int]) -> None:
    """Raise ValueError unless budgets is non-empty, ascending and integers >= one panel.

    operator.index decides what an integer is: int and numpy integers pass,
    floats (NaN included) do not.
    """
    if list(budgets) != sorted(budgets) or not budgets:
        raise ValueError("budgets must be non-empty and sorted ascending")
    try:
        ints = [operator.index(b) for b in budgets]
    except TypeError:
        raise ValueError(f"budgets must be integers, got {list(budgets)!r}") from None
    if ints[0] < PANEL_EVALS:
        raise ValueError(f"budgets must each be >= {PANEL_EVALS}")


def _record(est: ConstantEstimate, node_budget: int) -> ConvergenceRecord:
    return ConvergenceRecord(
        method=est.method,
        truncation_mode=est.truncation_mode,
        truncation_T=est.truncation_T,
        node_budget=node_budget,
        evaluations_used=est.evaluations,
        abs_error=abs(est.ln_A - LN_A_REFERENCE),
        converged=est.converged,
    )


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    """CSV text: the header line, then one line per row, each ending in a newline.

    Floats and ints are written with str (for a float, its shortest
    round-trip form), bools as true/false and strings as they are.
    """
    lines = [header] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def records_to_string(records: Iterable[ConvergenceRecord]) -> str:
    """Records as CSV text, rows in input order, round-trip float formatting."""
    records = list(records)
    if not records:
        raise ValueError("refusing to emit CSV for an empty record list")
    return csv_text(CSV_HEADER, records)
