"""Convergence benchmarks: truncation sweeps and node-budget sweeps.

Turns the qualitative "converges much faster" comparison between the Binet
and Malmsten routes into measured numbers: absolute error against the frozen
reference as a function of the truncation point T (truncate-only, so the
tail error is visible) and of the evaluation budget.  Records are emitted as
CSV with shortest round-trip decimal formatting.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, Iterable, List, Sequence, Union

from .estimator import LN_A_REFERENCE, ConstantEstimate, ln_a
from .quadrature import DEFAULT_MAX_EVALS, TruncationPolicy

__all__ = [
    "ConvergenceRecord",
    "CSV_HEADER",
    "sweep_truncation",
    "sweep_nodes",
    "emit_csv",
    "parse_csv",
]

CSV_HEADER = "method,truncation_mode,truncation_T,node_budget,evaluations_used,abs_error,converged"


@dataclass(frozen=True)
class ConvergenceRecord:
    method: str
    truncation_mode: str
    truncation_T: float
    node_budget: int
    evaluations_used: int
    abs_error: float
    converged: bool


def sweep_truncation(
    method: str,
    T_list: Sequence[float],
    tol: float = 1e-12,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> List[ConvergenceRecord]:
    """One record per truncation point T, truncate mode forced.

    The discretization tolerance is pinned at tol, so abs_error isolates the
    truncation term.  Non-converged runs are recorded flagged, not dropped.
    """
    if method not in ("binet", "malmsten"):
        raise ValueError(f"truncation sweep supports binet|malmsten, got {method!r}")
    if list(T_list) != sorted(T_list) or not T_list:
        raise ValueError("T_list must be non-empty and sorted ascending")
    if T_list[0] < 5.0 or T_list[-1] > 500.0:
        raise ValueError("T values must lie in [5, 500]")
    policies = [TruncationPolicy.truncate_at(float(T)) for T in T_list]
    return [
        _record(ln_a(method, tol, policy, max_evals, strict=False), max_evals)
        for policy in policies
    ]


def sweep_nodes(
    method: str,
    budgets: Sequence[int],
    tol: float = 1e-12,
    truncate_only: bool = False,
    truncate_T: float = 200.0,
) -> List[ConvergenceRecord]:
    """One record per evaluation budget, auto truncation policy by default.

    With truncate_only=True the semi-infinite routes are forced to cut the
    tail at truncate_T instead of compactifying, exposing the cost of the
    Binet route's algebraic tail; direct_lgamma has no tail and rejects it.
    """
    if list(budgets) != sorted(budgets) or not budgets:
        raise ValueError("budgets must be non-empty and sorted ascending")
    if budgets[0] < 32:
        raise ValueError("budgets must each be >= 32")
    policy = TruncationPolicy.truncate_at(truncate_T) if truncate_only else None
    return [
        _record(ln_a(method, tol, policy, budget, strict=False), budget)
        for budget in map(int, budgets)
    ]


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


def _format_row(r: ConvergenceRecord) -> str:
    return ",".join(
        (
            r.method,
            r.truncation_mode,
            repr(r.truncation_T),
            str(r.node_budget),
            str(r.evaluations_used),
            repr(r.abs_error),
            "true" if r.converged else "false",
        )
    )


def emit_csv(
    records: Iterable[ConvergenceRecord], destination: Union[str, os.PathLike, IO[str]]
) -> None:
    """Write records as CSV, rows in input order, round-trip float formatting."""
    records = list(records)
    if not records:
        raise ValueError("refusing to emit CSV for an empty record list")
    lines = [CSV_HEADER] + [_format_row(r) for r in records]
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write convergence CSV to {destination}: {exc}") from exc


def parse_csv(source: Union[str, IO[str]]) -> List[ConvergenceRecord]:
    """Inverse of emit_csv; accepts a path or a text stream."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    records = []
    for ln in lines[1:]:
        method, mode, T, budget, evals, err, conv = ln.split(",")
        records.append(
            ConvergenceRecord(
                method=method,
                truncation_mode=mode,
                truncation_T=float(T),
                node_budget=int(budget),
                evaluations_used=int(evals),
                abs_error=float(err),
                converged={"true": True, "false": False}[conv],
            )
        )
    return records


def records_to_string(records: Iterable[ConvergenceRecord]) -> str:
    buf = io.StringIO()
    emit_csv(records, buf)
    return buf.getvalue()
