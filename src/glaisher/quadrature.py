"""Adaptive Gauss-Legendre quadrature with embedded error estimates.

Each panel is evaluated with a 10-point and a 21-point Gauss-Legendre rule;
|G21 - G10| is the panel error estimate.  Panels are refined by bisection,
worst first, until the summed estimate meets the tolerance or the evaluation
budget runs out.  Both rules use interior nodes only, so integrands never
get evaluated at interval endpoints (removable singularities at 0 are safe).

Semi-infinite integrals are driven by the integrand's declared tail class:
exponential tails are truncated at a point T where the integrand's rigorous
tail bound drops below a tenth of the tolerance; algebraic tails are
compactified on [T, inf) with the map t = 1/u, which turns the tail into a
smooth finite-interval integral.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .integrands import IntegrandSpec

__all__ = [
    "QuadratureResult",
    "TruncationPolicy",
    "QuadratureError",
    "EvaluationFailedError",
    "PolicyInfeasibleError",
    "integrate_finite",
    "integrate_semi_infinite",
    "DEFAULT_MAX_EVALS",
]

DEFAULT_MAX_EVALS = 10_000

# Tail-bound target is tol/10 so 90% of the budget goes to discretization.
TAIL_SAFETY = 10.0

# Nodes/weights on [-1, 1]; 31 evaluations per panel.
_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X21, _W21 = np.polynomial.legendre.leggauss(21)


class QuadratureError(Exception):
    """Base class for integration failures."""


class EvaluationFailedError(QuadratureError):
    """The integrand returned a non-finite value (NaN or inf) at some node."""


class PolicyInfeasibleError(QuadratureError):
    """Truncation was forced where the tail bound cannot meet the tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    truncation_error: float = 0.0
    truncation_T: float = 0.0
    truncation_mode: str = "none"


@dataclass(frozen=True)
class TruncationPolicy:
    """How the semi-infinite domain is cut or compactified."""

    mode: str  # "truncate" | "compactify" | "auto"
    T: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("truncate", "compactify", "auto"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.mode != "auto" and not (self.T is not None and self.T > 0):
            raise ValueError(f"mode {self.mode!r} requires an explicit T > 0")

    @staticmethod
    def auto() -> "TruncationPolicy":
        return TruncationPolicy("auto")

    @staticmethod
    def truncate_at(T: float) -> "TruncationPolicy":
        return TruncationPolicy("truncate", T)

    @staticmethod
    def compactify(T: float) -> "TruncationPolicy":
        return TruncationPolicy("compactify", T)


def _panel(f: Callable[[float], float], a: float, b: float):
    """Return (G21 value, |G21 - G10| estimate) for one panel, 31 evals."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y10 = [f(mid + half * x) for x in _X10]
    y21 = [f(mid + half * x) for x in _X21]
    for y in (*y10, *y21):
        if not math.isfinite(y):
            raise EvaluationFailedError(f"integrand returned {y} on [{a}, {b}]")
    g10 = half * math.fsum(w * y for w, y in zip(_W10, y10))
    g21 = half * math.fsum(w * y for w, y in zip(_W21, y21))
    return g21, abs(g21 - g10)


def _adaptive(f, a, b, tol, max_evals):
    """Bisection-adaptive integration of f on [a, b]."""
    value, err = _panel(f, a, b)
    evals = 31
    # heap entries: (-error, insertion order, a, b, value, error)
    seq = 0
    heap = [(-err, seq, a, b, value, err)]
    total_err = err
    while total_err > tol and evals + 62 <= max_evals:
        neg, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, pm)
        v2, e2 = _panel(f, pm, pb)
        evals += 62
        total_err += e1 + e2 - pe
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, pm, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, pm, pb, v2, e2))
    # Deterministic final summation: panels ordered by position.
    panels = sorted(heap, key=lambda p: p[2])
    value = math.fsum(p[4] for p in panels)
    total_err = math.fsum(p[5] for p in panels)
    return QuadratureResult(
        value=value,
        error_estimate=total_err,
        evaluations=evals,
        converged=total_err <= tol,
    )


# Substitution parameter for log-singular endpoints: x = a + (b-a) e^{-s}
# on s in [0, S].  The dropped sliver has width (b-a) e^{-S} ~ 3e-20 (b-a)
# and contributes O(delta |ln delta|) for log-singular f.
_LOG_SING_S = 45.0


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    endpoint: Optional[str] = None,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    endpoint="log_singular_at_a" selects the substitution x = a + (b-a)e^{-s},
    which converts a log-singular left endpoint into a smooth, exponentially
    decaying integrand on a finite s-interval.
    """
    if not a < b:
        raise ValueError(f"require a < b, got [{a}, {b}]")
    if not (1e-14 <= tol <= 1e-2):
        raise ValueError(f"tol {tol} outside [1e-14, 1e-2]")
    if endpoint not in (None, "log_singular_at_a"):
        raise ValueError(f"unknown endpoint flag {endpoint!r}")
    if endpoint == "log_singular_at_a":
        w = b - a

        def g(s):
            x = w * math.exp(-s)
            return f(a + x) * x

        res = _adaptive(g, 0.0, _LOG_SING_S, tol, max_evals)
        sliver = w * math.exp(-_LOG_SING_S) * (_LOG_SING_S + 2.0)
        return QuadratureResult(
            value=res.value,
            error_estimate=res.error_estimate + sliver,
            evaluations=res.evaluations,
            converged=res.error_estimate + sliver <= tol,
        )
    return _adaptive(f, a, b, tol, max_evals)


def _auto_truncation_point(spec: IntegrandSpec, target: float) -> float:
    """Smallest T on a deterministic ladder with tail_bound(T) <= target."""
    T = 5.0
    while spec.tail_bound(T) > target and T < 800.0:
        T *= 1.25
    return T


def integrate_semi_infinite(
    spec: IntegrandSpec,
    tol: float,
    policy: Optional[TruncationPolicy] = None,
    max_evals: int = DEFAULT_MAX_EVALS,
    strict: bool = True,
) -> QuadratureResult:
    """Integrate spec over (0, inf) to absolute tolerance tol.

    The tolerance is budgeted 90% to discretization, 10% to truncation.
    In strict mode, forcing truncate on an algebraic tail whose bound cannot
    reach tol raises PolicyInfeasibleError (the slow-convergence pathology);
    with strict=False the result is returned flagged converged=False.
    """
    if policy is None:
        policy = TruncationPolicy.auto()
    if not (1e-14 <= tol <= 1e-2):
        raise ValueError(f"tol {tol} outside [1e-14, 1e-2]")

    if policy.mode == "auto":
        if spec.tail_class.kind == "algebraic":
            mode, T = "compactify", 10.0
        else:
            mode, T = "truncate", _auto_truncation_point(spec, tol / TAIL_SAFETY)
    else:
        mode, T = policy.mode, float(policy.T)

    endpoint = "log_singular_at_a" if spec.log_singular_at_zero else None

    if mode == "truncate":
        trunc = spec.tail_bound(T)
        if strict and spec.tail_class.kind == "algebraic" and trunc > tol:
            raise PolicyInfeasibleError(
                f"{spec.id}: algebraic tail bound {trunc:.3e} at T={T} exceeds "
                f"tol {tol:.3e}; use compactification"
            )
        disc_tol = max(tol - trunc, 0.1 * tol)
        res = integrate_finite(spec.eval, 0.0, T, disc_tol, endpoint, max_evals)
        err = res.error_estimate + trunc
        return QuadratureResult(
            value=res.value,
            error_estimate=err,
            evaluations=res.evaluations,
            converged=res.converged and err <= tol,
            truncation_error=trunc,
            truncation_T=T,
            truncation_mode="truncate",
        )

    # compactify: int_0^T f + int_0^{1/T} f(1/u)/u^2 du; no tail is cut.
    head = integrate_finite(spec.eval, 0.0, T, 0.5 * tol, endpoint, max_evals)

    def transformed(u):
        return spec.eval(1.0 / u) / (u * u)

    budget_left = max(max_evals - head.evaluations, 31)
    tail = integrate_finite(transformed, 0.0, 1.0 / T, 0.5 * tol, None, budget_left)
    err = head.error_estimate + tail.error_estimate
    return QuadratureResult(
        value=head.value + tail.value,
        error_estimate=err,
        evaluations=head.evaluations + tail.evaluations,
        converged=head.converged and tail.converged and err <= tol,
        truncation_error=0.0,
        truncation_T=T,
        truncation_mode="compactify",
    )
