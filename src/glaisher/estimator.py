"""Assembly of ln A by each route, with cross-validation and error budgets.

Routes:
  classical      ln A = 1/12 - 2 * int_0^inf x ln x / (e^{2 pi x} - 1) dx
  binet          ln A = (1/9) ln 2 + 1/24 + (2/3) * I_theta
  malmsten       ln A = 1/3 + (7/36) ln 2 - (1/6) ln pi + (2/3) * I_M
  direct_lgamma  ln A = (2/3) [int_0^{1/2} ln Gamma(x+1) dx
                               + 1/2 + (7/24) ln 2 - (1/4) ln pi]
  limit_sequence the defining limit term plus its first asymptotic corrections

All closed-form constants are assembled from ln 2 and ln pi at import time,
never as decimal literals.  The frozen reference value of ln A is checked
against two disjoint routes (the corrected limit sequence at n = 800 and
quadrature of the classical integral at tol 1e-13),
which construct_reference() reruns, and against mpmath in the tests.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from collections import namedtuple

from . import specfun
from .integrands import (
    SERIES_SWITCH_T,
    _binet12,
    _binet13,
    _malmsten18,
    _malmsten19,
    get_integrand,
)
from .quadrature import DEFAULT_MAX_EVALS, PANEL_EVALS, integrate

__all__ = [
    "ConstantEstimate",
    "LN_A_REFERENCE",
    "METHODS",
    "ROUTES",
    "TOL_MIN",
    "TOL_MAX",
    "N_MAX",
    "BUDGET_RANGE",
    "MALMSTEN_PREFIX",
    "ln_a",
    "ln_a_limit_sequence",
    "inner_tol",
    "cross_check",
    "identity_suites",
    "construct_reference",
]

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

# closed-form prefix of the Binet route
BINET_PREFIX = LN2 / 9.0 + 1.0 / 24.0
# closed-form prefix of the Malmsten route
MALMSTEN_PREFIX = 1.0 / 3.0 + 7.0 / 36.0 * LN2 - LNPI / 6.0
# constants of the shared definite-integral identity
EQ4_CONSTANT = -0.5 - 7.0 / 24.0 * LN2 + 0.25 * LNPI

# Frozen reference value of ln A (dual-path construction; see module docstring).
LN_A_REFERENCE = 0.2487544770337843

# Every integral route is ln A = offset + scale * int f, with f integrated
# to tol / |scale| so the scaled error budget stays within tol.
# Row: (integrand id, scale, offset).
ROUTES = {
    "classical": ("classical", -2.0, 1.0 / 12.0),
    "binet": ("binet_form13", 2.0 / 3.0, BINET_PREFIX),
    "malmsten": ("malmsten_form19", 2.0 / 3.0, MALMSTEN_PREFIX),
    "direct_lgamma": ("lngamma_direct", 2.0 / 3.0, -(2.0 / 3.0) * EQ4_CONSTANT),
}

METHODS = (*ROUTES, "limit_sequence")

# Accepted tolerance range of every route, the identity suites and the CLI.
TOL_MIN, TOL_MAX = 1e-13, 1e-3

# Largest n of the limit sequence (specfun's bound on its term), its default
# cap.  The n that tol selects is at most 20 on [TOL_MIN, TOL_MAX], so N_MAX
# is a bound, not a working point.
N_MAX = specfun.N_MAX

# Per method, the smallest and the largest max_evals of ln_a (None: no cap).
# A route needs one panel; the limit sequence's max_evals caps its n.
BUDGET_RANGE = {**dict.fromkeys(ROUTES, (PANEL_EVALS, None)), "limit_sequence": (1, N_MAX)}
# The limit sequence's range of n_max, bound once for ln_a_limit_sequence.
_N_MAX_FLOOR, _N_MAX_CAP = BUDGET_RANGE["limit_sequence"]

# ln A = term(n) + sum_k c_k / n^(2k) asymptotically, with c_k =
# B_{2k+2} / (4k(k+1)) (the Barnes G expansion, DLMF 5.17.5).  For real n > 0
# the remainder after any number of terms has the sign of the first omitted
# one and is no larger (Nemes 2014).  ln_a_limit_sequence adds the first
# _SEQ_ORDER of them and bounds the rest by the next.
_SEQ_CORRECTIONS = (-1.0 / 240.0, 1.0 / 1008.0, -1.0 / 1440.0, 1.0 / 1056.0)
_SEQ_ORDER = 3
# The added corrections in Horner order, highest k first.
_SEQ_HORNER = tuple(reversed(_SEQ_CORRECTIONS[:_SEQ_ORDER]))
# Rounding of the corrections' Horner sum at x = 1/n^2 <= 1, per unit of x:
# 2K - 1 operations, k roundings in x^k and one in c_k make at most 3K
# half-ulps of sum_k |c_k| x^k <= x sum_k |c_k|, and one more covers the
# second-order terms.
_SEQ_CORRECTION_ROUNDING = (
    (3 * _SEQ_ORDER + 1) / 2 * sys.float_info.epsilon
    * sum(map(abs, _SEQ_CORRECTIONS[:_SEQ_ORDER]))
)
# Rounding of the term (within half an ulp) and of term + correction: for
# every n >= 1 both lie in [1/8, 1/2), where half an ulp is at most eps/8.
# The bar counts twice their sum.
_SEQ_VALUE_ROUNDING = sys.float_info.epsilon / 2


ConstantEstimate = namedtuple(
    "ConstantEstimate",
    "method ln_A discretization_error truncation_error evaluations converged"
    " truncation_T truncation_mode",
    defaults=(0.0, "none"),
)


def _check_tol(tol: float) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol {tol} outside [{TOL_MIN}, {TOL_MAX}]")


def inner_tol(tol: float) -> float:
    """tol / 10, never below TOL_MIN: the quadratures' tol inside checks and sweeps."""
    return max(tol / 10.0, TOL_MIN)


def ln_a(
    method: str,
    tol: float = 1e-10,
    truncate_at: float | None = None,
    max_evals: int | None = None,
) -> ConstantEstimate:
    """ln A by one method of METHODS, with its error budget.

    max_evals is a hard cap, an integer in BUDGET_RANGE[method]: the integrand
    evaluations of a route, at least one panel (PANEL_EVALS), or the limit
    sequence's n (see ln_a_limit_sequence); None is DEFAULT_MAX_EVALS for a
    route and N_MAX for the sequence.  truncate_at forces a semi-infinite
    route's truncation point T, in [5, 500]; None leaves the tail to the
    automatic rule, and the finite-interval route rejects any T, as does the
    limit sequence.  A route ends on the first level of its quadrature that
    meets tol, so any budget of 87 or more gives the same result.  A route's
    discretization error is |scale| error_estimate plus the rounding of
    offset + scale * integral; its truncation error, |scale| truncation_error.
    """
    if method == "limit_sequence":
        if truncate_at is not None:
            raise ValueError("the limit sequence takes no truncate_at")
        return ln_a_limit_sequence(N_MAX if max_evals is None else max_evals, tol)
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    _check_tol(tol)
    integrand_id, scale, offset = ROUTES[method]
    s = abs(scale)
    budget = DEFAULT_MAX_EVALS if max_evals is None else max_evals
    res = integrate(get_integrand(integrand_id), tol / s, truncate_at, budget)
    scaled = scale * res.value
    disc = s * res.error_estimate + sys.float_info.epsilon * (abs(offset) + abs(scaled))
    trunc = s * res.truncation_error
    # method ln_A discretization_error truncation_error evaluations converged
    # truncation_T truncation_mode
    return ConstantEstimate(
        method, offset + scaled, disc, trunc, res.evaluations,
        res.converged and disc + trunc <= tol, res.truncation_T, res.truncation_mode,
    )


def _seq_bar(n: int) -> float:
    """The limit sequence's error bar at n, which depends on n alone.

    Twice the first omitted correction (the remainder is no larger than it)
    plus the rounding: the corrections' sum within
    _SEQ_CORRECTION_ROUNDING / n^2, and the term and the value within
    _SEQ_VALUE_ROUNDING.
    """
    x = 1.0 / (n * n)
    return (
        2.0 * abs(_SEQ_CORRECTIONS[_SEQ_ORDER]) * x ** (_SEQ_ORDER + 1)
        + _SEQ_VALUE_ROUNDING
        + _SEQ_CORRECTION_ROUNDING * x
    )


# -_seq_bar(n) for n = 1, 2, ..., ascending, up to the first n whose bar is
# at most TOL_MIN (n = 20): every accepted tol is met within the table, so
# one bisection of it finds the smallest n whose bar is at most tol, and a
# longer table would hold only bars that no accepted tol selects.
# _limit_sequence_at reads the bars of these n from it, negated back.
_N_AT_TOL_MIN = next(n for n in itertools.count(1) if _seq_bar(n) <= TOL_MIN)
_NEG_SEQ_BARS = tuple(-_seq_bar(n) for n in range(1, _N_AT_TOL_MIN + 1))


def _limit_sequence_at(n: int, tol: float) -> ConstantEstimate:
    """The corrected limit-sequence term at n, with its bar _seq_bar(n).

    One term, plus the first _SEQ_ORDER asymptotic corrections c_k / n^(2k).
    evaluations is n, and converged means the bar is at most tol.
    """
    term = specfun.glaisher_seq_log_term(n)
    x = 1.0 / (n * n)
    c3, c2, c1 = _SEQ_HORNER
    correction = ((c3 * x + c2) * x + c1) * x
    err = -_NEG_SEQ_BARS[n - 1] if n <= _N_AT_TOL_MIN else _seq_bar(n)
    # All eight fields, as namedtuple's generated __new__ stores them after
    # binding its arguments in Python; that binding costs as much again as
    # tuple.__new__, about a tenth of a warm limit-sequence call.
    # method ln_A discretization_error truncation_error evaluations converged
    # truncation_T truncation_mode
    return tuple.__new__(ConstantEstimate, (
        "limit_sequence", term + correction, err, 0.0, n, err <= tol, 0.0, "none",
    ))


def ln_a_limit_sequence(n_max: int = N_MAX, tol: float = 1e-10) -> ConstantEstimate:
    """ln A from the defining limit sequence; no quadrature code involved.

    The corrected term at the smallest n whose bar (_seq_bar) is at most tol,
    found before any term is evaluated by one bisection of the bars for
    n = 1..20, built at import: n = 2 / 3 / 9 / 15 / 20 at tol 1e-3 / 1e-6
    / 1e-10 / 1e-12 / 1e-13, and a tol equal to a bar selects that n.
    n_max, an integer in [1, N_MAX] (BUDGET_RANGE), is a hard cap on that
    n; ln_a("limit_sequence", tol, max_evals=n_max) calls this.  evaluations
    is the n used (a warm term is a few integer operations), and converged means
    the bar is at most tol, which must lie in [TOL_MIN, TOL_MAX] as for
    ln_a; it is False only when n_max is below the n that tol needs.
    """
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise ValueError(f"n_max must be an integer, got {n_max!r}") from None
    if not _N_MAX_FLOOR <= n_max <= _N_MAX_CAP:
        raise ValueError(f"n_max {n_max} outside [{_N_MAX_FLOOR}, {_N_MAX_CAP}]")
    _check_tol(tol)
    n = bisect.bisect_left(_NEG_SEQ_BARS, -tol) + 1
    return _limit_sequence_at(n if n < n_max else n_max, tol)


def cross_check(tol: float = 1e-10, max_evals: int | None = None) -> tuple:
    """ln_a of each route in ROUTES order, their spread and its limit 4 tol,
    and compare's verdict: every route converged and spread <= limit.
    """
    estimates = [ln_a(m, tol, max_evals=max_evals) for m in ROUTES]
    values = [e.ln_A for e in estimates]
    spread = max(values) - min(values)
    limit = 4.0 * tol
    return estimates, spread, limit, spread <= limit and all(e.converged for e in estimates)


# form_equivalence's grid: of 200 log-spaced t in [1e-3, 10**1.7], the 102
# from SERIES_SWITCH_T on.  Below it both forms of a pair are the same
# series, so only the points above it can differ.
_FORM_TS = tuple(
    t for t in (10.0 ** (-3.0 + 4.7 * i / 199.0) for i in range(200)) if t >= SERIES_SWITCH_T
)


def identity_suites(tol: float = 1e-10) -> tuple[list[dict], list[bool]]:
    """Max residual per identity suite, with its threshold, and whether each passed.

    Eq. (4) is no suite: it is the direct_lgamma row, which compare checks.
    Every quadrature inside a suite runs at inner_tol(tol), and its suite's
    threshold is set for tol = 1e-10 and scales linearly with it.
    form_equivalence compares printed forms, so its residual is rounding
    alone (7.8 eps at worst) and its threshold a fixed 16 eps.  The residual
    is absolute: no form reaches 1/24 in magnitude on its grid (0.0396 at
    most), so a relative one would divide by max(1, |form|) = 1.
    """
    _check_tol(tol)
    scale = tol / 1e-10
    inner = inner_tol(tol)

    binet_grid = (0.25, 0.5, 1.0, 2.0, 5.0)
    r_binet = max(
        abs(
            specfun.log_gamma_plus_one(x)
            - (
                x * math.log(x)
                - x
                + 0.5 * math.log(2.0 * math.pi * x)
                + specfun.binet_theta(x, inner).value
            )
        )
        for x in binet_grid
    )

    malmsten_grid = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    r_malmsten = max(
        abs(specfun.malmsten_log_gamma(z, inner).value - specfun.log_gamma_plus_one(z))
        for z in malmsten_grid
    )

    # The bodies of the public binet_integrand and malmsten_integrand, on
    # points that their checks would pass.
    r_forms = max(
        max(map(abs, map(operator.sub, map(first, _FORM_TS), map(second, _FORM_TS))))
        for first, second in ((_binet12, _binet13), (_malmsten18, _malmsten19))
    )

    suites = [
        {"suite": "binet_identity", "max_residual": r_binet, "threshold": 1e-9 * scale},
        {"suite": "malmsten_vs_lgamma", "max_residual": r_malmsten, "threshold": 1e-9 * scale},
        {"suite": "form_equivalence", "max_residual": r_forms, "threshold": 16 * sys.float_info.epsilon},
    ]
    return suites, [s["max_residual"] <= s["threshold"] for s in suites]


def construct_reference() -> tuple[float, float]:
    """Recompute ln A by the two disjoint oracle-construction paths.

    Returns (sequence_path, quadrature_path): the corrected limit sequence
    at n = 800, and the classical route's offset + scale * integral
    (1/12 - 2x) with the integral at tol 1e-13, whose tail the automatic
    rule truncates (at T = 6.25) with a rigorous bound.
    """
    seq_path = _limit_sequence_at(800, 1e-13).ln_A
    integrand_id, scale, offset = ROUTES["classical"]
    quad_path = offset + scale * integrate(get_integrand(integrand_id), 1e-13).value
    return seq_path, quad_path
