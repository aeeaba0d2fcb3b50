"""Adaptive Gauss-Kronrod quadrature with embedded error estimates.

Each panel is evaluated at the 21 nodes of the Gauss-Kronrod rule K21,
which include the nodes of the 10-point Gauss-Legendre rule G10.  The panel
value is K21, and its error estimate is QUADPACK qk21's rescaling of
|K21 - G10| (see _panel).  Panels are refined by bisection, worst first,
until the summed estimate meets the tolerance or the evaluation budget, a
hard cap of at least one panel, runs out.  The rule uses interior nodes
only, so integrands never get evaluated at interval endpoints (removable
singularities at 0 are safe).  integrate_finite(f, a, b, tol) is that
engine on [a, b].

Bisection is deterministic, so a panel's (value, error) depends only on the
integrand and the panel's endpoints.  Both entries take an optional memo,
panels, a dict a caller passes to a series of runs (bench's sweeps) so that
each distinct panel is evaluated once; a panel taken from it still counts
toward evaluations and the budget, so results are the same with or without.
Without one, each panel is evaluated directly: a single run never bisects
into the same panel twice, so a memo of its own would only miss.

integrate(spec, tol, truncate_at) is the one entry that reads an
IntegrandSpec, and it makes exactly one integrate_finite call:

  1. A finite domain [0, domain_upper] is integrated as it is.
  2. On (0, inf) the tail is truncated at T, with tail_bound(T) as the
     truncation error, or compactified as in QUADPACK's QAGI: t = T s/(1-s)
     maps s in [0, 1) onto [0, inf), so int_0^inf f dt = int_0^1 f(t(s))
     T/(1-s)^2 ds with T the scale (t(1/2) = T); a tail like c/t^2 becomes
     the finite limit c/T at s = 1, a node never evaluated.  A caller may
     force truncation at any T in [TRUNCATE_AT_MIN, TRUNCATE_AT_MAX].
     Otherwise the automatic rule decides: a bound that drops below a
     tenth of the tolerance at some T of a fixed ladder up to ~850 (an
     exponential tail) is truncated at the first such T, and any other
     tail (an algebraic one, or one without a bound) is compactified at
     T = 10.  The automatic rule relies on bounds that do not increase with
     T: it reads the top of the ladder first.
  3. A log singularity at 0 on the interval (0, b] that steps 1-2 produced
     is graded away by x = b u^5 on u in (0, 1] (Davis & Rabinowitz, 1984):
     f(x) ~ ln x becomes f(b u^5) 5 b u^4 ~ u^4 ln u, which tends to 0 at
     u = 0, a node never evaluated.  The map covers (0, b] exactly, so
     nothing is dropped.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable
from itertools import repeat

from .integrands import IntegrandSpec

__all__ = [
    "QuadratureResult",
    "EvaluationFailedError",
    "integrate_finite",
    "integrate",
    "DEFAULT_MAX_EVALS",
    "PANEL_EVALS",
    "TRUNCATE_AT_MIN",
    "TRUNCATE_AT_MAX",
]

DEFAULT_MAX_EVALS = 10_000

# Tail-bound target is tol/10 so 90% of the budget goes to discretization.
TAIL_SAFETY = 10.0

# Accepted tolerance range of both integrators.
_TOL_MIN, _TOL_MAX = 1e-14, 1e-2

# Accepted range of a forced truncation point, where every reported bar
# holds: from the ladder's first rung (the classical and Malmsten tail bounds
# need T >= 1) to well below T ~ 3000, where every node of the first panel
# can sit where f is 0 to rounding, so K21 = G10 misses the integral.
TRUNCATE_AT_MIN, TRUNCATE_AT_MAX = 5.0, 500.0

# The 21-point Gauss-Kronrod rule on [-1, 1] extending the 10-point
# Gauss-Legendre rule, as in QUADPACK's qk21 (Piessens et al., 1983),
# frozen as floats.  The Kronrod nodes are the 10 Gauss nodes and the 11
# roots of the Stieltjes polynomial E11, orthogonal to P10(x) x^k for
# k <= 10; the weights solve the 21 moment equations (Laurie, 1997).
# tests/test_quadrature.py rederives every constant in mpmath.
_XK = (
    -0.9956571630258081, -0.9739065285171717, -0.9301574913557082,
    -0.8650633666889845, -0.7808177265864169, -0.6794095682990244,
    -0.5627571346686047, -0.4333953941292472, -0.2943928627014602,
    -0.14887433898163122, 0.0, 0.14887433898163122, 0.2943928627014602,
    0.4333953941292472, 0.5627571346686047, 0.6794095682990244,
    0.7808177265864169, 0.8650633666889845, 0.9301574913557082,
    0.9739065285171717, 0.9956571630258081,
)
_WK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169, 0.14773910490133849,
    0.14277593857706009, 0.13470921731147334, 0.12349197626206584,
    0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
    0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
)
# The G10 weights, and where the G10 nodes sit among _XK: every other node.
_WG = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287, 0.29552422471475287,
    0.26926671930999635, 0.21908636251598204, 0.1494513491505806,
    0.06667134430868814,
)
_GAUSS = slice(1, None, 2)

# Integrand evaluations of one panel: G10 reuses ten of the Kronrod values.
PANEL_EVALS = len(_XK)

# QUADPACK's floor on a panel's error estimate: 50 eps times int |f|.
_ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon


class EvaluationFailedError(Exception):
    """The integrand returned a non-finite value (NaN or inf) at some node."""


QuadratureResult = namedtuple(
    "QuadratureResult",
    "value error_estimate evaluations converged"
    " truncation_error truncation_T truncation_mode",
    defaults=(0.0, 0.0, "none"),
)


def _panel(f: Callable[[float], float], a: float, b: float):
    """Return (K21 value, error estimate) for one panel, as QUADPACK's qk21.

    The raw estimate |K21 - G10| is rescaled by resasc, the rule's
    integral of |f - mean f|: resasc * min(1, (200 |K21 - G10| / resasc)^1.5).
    On an under-resolved panel |K21 - G10| is a sizable share of resasc and
    the estimate grows to resasc itself; on a resolved one the power 1.5
    credits K21 with its higher order.  The estimate is floored at 50 eps
    times the rule's integral of |f|, the rounding of the sum itself.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = [f(mid + half * x) for x in _XK]
    wy = list(map(operator.mul, _WK, y))
    # The weights are positive, so |w y| = w |y| exactly; a NaN or inf in y
    # makes this sum non-finite, and only then is y scanned for the culprit.
    abs_sum = sum(map(abs, wy))
    if not math.isfinite(abs_sum):
        for v in y:
            if not math.isfinite(v):
                raise EvaluationFailedError(f"integrand returned {v} on [{a}, {b}]")
    k21 = math.fsum(wy)
    g10 = math.fsum(map(operator.mul, _WG, y[_GAUSS]))
    mean = 0.5 * k21
    resabs = half * abs_sum
    resasc = half * sum(map(operator.mul, _WK, map(abs, map(operator.sub, y, repeat(mean)))))
    err = half * abs(k21 - g10)
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return half * k21, max(err, _ROUNDING_FLOOR * resabs)


def _check_tol(tol: float) -> None:
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise ValueError(f"tol {tol} outside [{_TOL_MIN}, {_TOL_MAX}]")


def _memoized(f, panels):
    """_panel of f as a function of (a, b), through the memo panels keyed by (a, b).

    A panel whose integrand raised is not stored.
    """

    def panel(a, b):
        key = (a, b)
        hit = panels.get(key)
        if hit is None:
            hit = panels[key] = _panel(f, a, b)
        return hit

    return panel


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_evals: int = DEFAULT_MAX_EVALS,
    *,
    panels: dict | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol, at most max_evals calls.

    panels, if given, is f's panel memo (module docstring): a dict that only
    runs on this f may share.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"require finite a < b, got [{a}, {b}]")
    _check_tol(tol)
    try:
        max_evals = operator.index(max_evals)
    except TypeError:
        raise ValueError(f"max_evals must be an integer, got {max_evals!r}") from None
    if max_evals < PANEL_EVALS:
        raise ValueError(f"max_evals {max_evals} is below one panel ({PANEL_EVALS})")
    panel = functools.partial(_panel, f) if panels is None else _memoized(f, panels)
    value, err = panel(a, b)
    evals = PANEL_EVALS
    # heap entries: (-error, insertion order, a, b, value, error)
    seq = 0
    heap = [(-err, seq, a, b, value, err)]
    total_err = err
    while total_err > tol and evals + 2 * PANEL_EVALS <= max_evals:
        neg, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        v1, e1 = panel(pa, pm)
        v2, e2 = panel(pm, pb)
        evals += 2 * PANEL_EVALS
        total_err += e1 + e2 - pe
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, pm, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, pm, pb, v2, e2))
    value = math.fsum(map(operator.itemgetter(4), heap))
    total_err = math.fsum(map(operator.itemgetter(5), heap))
    # value error_estimate evaluations converged
    return QuadratureResult(value, total_err, evals, total_err <= tol)


# Truncation points of the automatic rule: T = 5 * 1.25^k up to the first
# T >= 800.
_LADDER = [5.0]
while _LADDER[-1] < 800.0:
    _LADDER.append(_LADDER[-1] * 1.25)


def _compactified(f, T):
    """f(t) dt on [0, inf) as a function of s in [0, 1), t = T s/(1-s)."""

    def g(s):
        r = 1.0 / (1.0 - s)
        return f(T * s * r) * T * r * r

    return g


def _graded(f, b):
    """f(x) dx on (0, b] as a function of u in (0, 1], x = b u^5.

    Of the exponents k = 4 ... 12 of x = b u^k, 5 took the fewest evaluations
    of the classical integral on average over a log grid of tol in
    [1e-13, 1e-3].
    """
    scale = 5.0 * b

    def g(u):
        u4 = u * u * u * u
        return f(b * u4 * u) * scale * u4

    return g


def integrate(
    spec: IntegrandSpec,
    tol: float,
    truncate_at: float | None = None,
    max_evals: int = DEFAULT_MAX_EVALS,
    *,
    panels: dict | None = None,
) -> QuadratureResult:
    """Integrate spec over (0, spec.domain_upper) to absolute tolerance tol.

    The steps are those of the module docstring; a forced truncate_at
    applies to (0, inf) only and needs a tail_bound.  Truncation spends what
    the bound leaves of tol on discretization (at least tol/10, never below
    the engine's smallest tol); a forced truncation whose bound exceeds tol
    (the slow-convergence pathology of an algebraic tail) is returned with
    that bound as truncation_error and converged=False.

    panels, if given, is a panel memo (module docstring) that any runs may
    share: its entries are keyed by the integrand integrate_finite sees,
    (spec.eval, compactify scale T or None, graded map's b or None), and
    each holds that integrand's panels.  Truncation keeps spec.eval as it
    is, so runs truncated at different T share panels.
    """
    _check_tol(tol)
    f, b, bound, disc_tol = spec.eval, spec.domain_upper, spec.tail_bound, tol
    mode, T, trunc = "none", 0.0, 0.0
    compact_T = graded_b = None
    if math.isfinite(b):
        if truncate_at is not None:
            raise ValueError(f"the domain [0, {b}] is finite; it takes no truncate_at")
    elif truncate_at is None and (bound is None or not bound(_LADDER[-1]) <= tol / TAIL_SAFETY):
        # "not <=" so that a NaN bound is compactified, never truncated.
        mode, T = "compactify", 10.0
        f, b, compact_T = _compactified(f, T), 1.0, T
    else:
        if truncate_at is None:
            T = next(t for t in _LADDER if bound(t) <= tol / TAIL_SAFETY)
        elif bound is None:
            raise ValueError("a forced truncate_at needs a tail_bound")
        elif TRUNCATE_AT_MIN <= truncate_at <= TRUNCATE_AT_MAX:
            T = float(truncate_at)
        else:
            raise ValueError(f"truncate_at {truncate_at} outside [{TRUNCATE_AT_MIN}, {TRUNCATE_AT_MAX}]")
        mode, trunc = "truncate", bound(T)
        disc_tol = max(tol - trunc, 0.1 * tol, _TOL_MIN)
        b = T
    if spec.log_singular_at_zero:
        f, b, graded_b = _graded(f, b), 1.0, b
    memo = None if panels is None else panels.setdefault((spec.eval, compact_T, graded_b), {})
    res = integrate_finite(f, 0.0, b, disc_tol, max_evals, panels=memo)
    err = res.error_estimate + trunc
    # value error_estimate evaluations converged truncation_error
    # truncation_T truncation_mode
    return QuadratureResult(
        res.value, err, res.evaluations, res.converged and err <= tol, trunc, T, mode
    )
