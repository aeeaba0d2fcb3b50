"""Adaptive Gauss-Kronrod quadrature with embedded error estimates.

Each panel is evaluated at the 21 nodes of the Gauss-Kronrod rule K21,
which include the nodes of the 10-point Gauss-Legendre rule G10.  The panel
value is K21, and its error estimate is QUADPACK qk21's rescaling of
|K21 - G10| (see _panel).  A first panel whose estimate misses the
tolerance, and is not saturated (below resasc, the most qk21 reports), is
raised as in QUADPACK's qng to Patterson's (1968) nested 43-point rule and
then to his 87-point rule: each level reuses every value of the one before,
and its estimate is the same rescaling of its difference from it.  Only if
the 87-point level still misses the tolerance (or K21 was saturated) does
the run bisect: the first panel is replaced by two K21 panels, and panels
are refined by bisection, worst first, until the summed estimate meets the
tolerance or the evaluation budget runs out.  A run whose summed estimate
ends above the first panel's own (K21's or its last level's) reports that
panel instead, with every evaluation it spent, so a larger budget never
reports a larger error.  The budget is a hard cap of at least one panel: a
level is taken only if its 43 or 87 evaluations fit, and a bisection only
if its 42 more do.  The rules use interior nodes only, so integrands never
get evaluated at interval endpoints (removable singularities at 0 are
safe).  integrate_finite(f, a, b, tol) is that engine on [a, b].

Bisection is deterministic, so a panel's (value, error) depends only on the
integrand and the panel's endpoints.  Both entries take an optional memo,
panels, a dict a caller passes to a series of runs (bench's sweeps) so that
no integrand value is computed twice: it holds each panel's K21 result and
its node values, to which a first panel's levels append theirs.  A panel
taken from it still counts toward evaluations and the budget, so results
are the same with or without.  Without one, each panel is evaluated
directly: a single run never bisects into the same panel twice, so a memo
of its own would only miss.

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

# Patterson's (1968) nested extensions of K21, as in QUADPACK's qng, frozen
# as floats.  The 43-point rule adds the 22 roots of the even F22 orthogonal
# to P10 E11 x^k for k < 22, and the 87-point rule the 44 roots of the even
# G44 orthogonal to P10 E11 F22 x^k for k < 44; the weights solve the moment
# equations, and the rules are exact to degree 64 and 130.  _W43 weights the
# values at _XK then _X43, and _W87 those at _XK, _X43 then _X87.
# tests/test_quadrature.py rederives every constant in mpmath.
_X43 = (
    -0.999333360901932, -0.9874334029080889, -0.9548079348142663,
    -0.9001486957483283, -0.8251983149831141, -0.732148388989305,
    -0.6228479705377252, -0.4994795740710565, -0.36490166134658075,
    -0.2222549197766013, -0.07465061746138332, 0.07465061746138332,
    0.2222549197766013, 0.36490166134658075, 0.4994795740710565,
    0.6228479705377252, 0.732148388989305, 0.8251983149831141,
    0.9001486957483283, 0.9548079348142663, 0.9874334029080889,
    0.999333360901932,
)
_W43 = (
    0.005768556059769796, 0.016296734289666565, 0.027371890593248842,
    0.0375228761208695, 0.04656082691042883, 0.05469490205825544,
    0.06174499520144257, 0.06735541460947808, 0.07138726726869339,
    0.07387019963239395, 0.07472214751740301, 0.07387019963239395,
    0.07138726726869339, 0.06735541460947808, 0.06174499520144257,
    0.05469490205825544, 0.04656082691042883, 0.0375228761208695,
    0.027371890593248842, 0.016296734289666565, 0.005768556059769796,
    0.001844477640212414, 0.010798689585891651, 0.021895363867795427,
    0.032597463975345686, 0.04216313793519181, 0.050741939600184575,
    0.05837939554261925, 0.06474640495144589, 0.06956619791235648,
    0.07282444147183322, 0.07450775101417512, 0.07450775101417512,
    0.07282444147183322, 0.06956619791235648, 0.06474640495144589,
    0.05837939554261925, 0.050741939600184575, 0.04216313793519181,
    0.032597463975345686, 0.021895363867795427, 0.010798689585891651,
    0.001844477640212414,
)
_X87 = (
    -0.9999029772627293, -0.9979898959866788, -0.9921754978606873,
    -0.9813581635727128, -0.9650576238583847, -0.9431676131336706,
    -0.9158064146855072, -0.8832216577713164, -0.8457107484624157,
    -0.8035576580352309, -0.7570057306854956, -0.7062732097873218,
    -0.6515894665011779, -0.5932233740579611, -0.531493605970832,
    -0.46676362304202285, -0.3994248478592188, -0.3298748771061883,
    -0.25850355920216156, -0.18569539656834666, -0.11184221317990747,
    -0.03735212339461987, 0.03735212339461987, 0.11184221317990747,
    0.18569539656834666, 0.25850355920216156, 0.3298748771061883,
    0.3994248478592188, 0.46676362304202285, 0.531493605970832,
    0.5932233740579611, 0.6515894665011779, 0.7062732097873218,
    0.7570057306854956, 0.8035576580352309, 0.8457107484624157,
    0.8832216577713164, 0.9158064146855072, 0.9431676131336706,
    0.9650576238583847, 0.9813581635727128, 0.9921754978606873,
    0.9979898959866788, 0.9999029772627293,
)
_W87 = (
    0.0028848724302115306, 0.008148377384149173, 0.013685946022712702,
    0.018761438201562824, 0.02328041350288831, 0.027347451050052287,
    0.03087249761171336, 0.03367770731163793, 0.03569363363941877,
    0.036935099820427905, 0.037361073762679026, 0.036935099820427905,
    0.03569363363941877, 0.03367770731163793, 0.03087249761171336,
    0.027347451050052287, 0.02328041350288831, 0.018761438201562824,
    0.013685946022712702, 0.008148377384149173, 0.0028848724302115306,
    0.0009152833452022414, 0.005399280219300471, 0.01094767960111893,
    0.016298731696787336, 0.021081568889203834, 0.025370969769253827,
    0.029189697756475754, 0.03237320246720279, 0.034783098950365146,
    0.03641222073135179, 0.037253875503047706, 0.037253875503047706,
    0.03641222073135179, 0.034783098950365146, 0.03237320246720279,
    0.029189697756475754, 0.025370969769253827, 0.021081568889203834,
    0.016298731696787336, 0.01094767960111893, 0.005399280219300471,
    0.0009152833452022414, 0.00027414556376207234, 0.0018071241550579428,
    0.0040968692827591646, 0.006758290051847379, 0.009549957672201646,
    0.012329447652244854, 0.015010447346388952, 0.01754896798624319,
    0.019938037786440887, 0.022194935961012286, 0.024339147126000805,
    0.026374505414839208, 0.0282869107887712, 0.030052581128092695,
    0.03164675137143993, 0.033050413419978504, 0.034255099704226064,
    0.03526241266015668, 0.0360769896228887, 0.03669860449845609,
    0.037120549269832576, 0.03733422875193504, 0.03733422875193504,
    0.037120549269832576, 0.03669860449845609, 0.0360769896228887,
    0.03526241266015668, 0.034255099704226064, 0.033050413419978504,
    0.03164675137143993, 0.030052581128092695, 0.0282869107887712,
    0.026374505414839208, 0.024339147126000805, 0.022194935961012286,
    0.019938037786440887, 0.01754896798624319, 0.015010447346388952,
    0.012329447652244854, 0.009549957672201646, 0.006758290051847379,
    0.0040968692827591646, 0.0018071241550579428, 0.00027414556376207234,
)
_LEVELS = ((_X43, _W43), (_X87, _W87))

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
    """Return (K21 value, error estimate, y, resabs, resasc, K21 sum) for one panel, as QUADPACK's qk21.

    y is the list of the 21 node values, resabs the rule's integral of |f|
    and resasc its integral of |f - mean f|; the K21 sum is the rule on
    [-1, 1], unscaled, from which _raised starts.  The raw estimate
    |K21 - G10| is rescaled by _error.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = [f(mid + half * x) for x in _XK]
    wy = list(map(operator.mul, _WK, y))
    # The weights are positive, so |w y| = w |y| exactly; a NaN or inf in y
    # makes this sum non-finite, and only then is y scanned for the culprit.
    abs_sum = sum(map(abs, wy))
    if not math.isfinite(abs_sum):
        _scan(y, a, b)
    k21 = math.fsum(wy)
    g10 = math.fsum(map(operator.mul, _WG, y[_GAUSS]))
    mean = 0.5 * k21
    asc = 0.0
    for w, v in zip(_WK, y):
        asc += w * abs(v - mean)
    resabs, resasc = half * abs_sum, half * asc
    return half * k21, _error(half * abs(k21 - g10), resabs, resasc), y, resabs, resasc, k21


def _error(err: float, resabs: float, resasc: float) -> float:
    """QUADPACK's error estimate from a raw one, err = |R - R_coarser|.

    It is rescaled by resasc: resasc * min(1, (200 err / resasc)^1.5).  On an
    under-resolved panel err is a sizable share of resasc and the estimate
    grows to resasc itself; on a resolved one the power 1.5 credits the finer
    rule with its higher order.  The estimate is floored at 50 eps times
    resabs, the rounding of the sum itself.
    """
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, _ROUNDING_FLOOR * resabs)


def _scan(y, a: float, b: float) -> None:
    """Raise EvaluationFailedError at the first non-finite value in y."""
    for v in y:
        if not math.isfinite(v):
            raise EvaluationFailedError(f"integrand returned {v} on [{a}, {b}]")


def _raised(f, a, b, y, resabs, resasc, coarser, tol, max_evals):
    """Raise the panel [a, b] through Patterson's levels while its estimate misses tol.

    y holds the panel's node values, K21's first; each level appends its new
    ones, unless y holds them already (from a memo).  A level is taken only
    if its evaluations fit in max_evals, and at least the 43-point one must.
    Each level's raw estimate is |R - R_coarser|, starting from coarser, the
    K21 sum; resabs and resasc are K21's.  Returns (value, error estimate,
    evaluations) of the last level taken.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    for xs, ws in _LEVELS:
        if len(ws) > max_evals:
            break
        if len(y) < len(ws):
            new = [f(mid + half * x) for x in xs]
            if not math.isfinite(sum(map(abs, new))):
                _scan(new, a, b)
            y += new
        r = math.fsum(map(operator.mul, ws, y))
        value, err = half * r, _error(half * abs(r - coarser), resabs, resasc)
        evals, coarser = len(ws), r
        if err <= tol:
            break
    return value, err, evals


def _check_tol(tol: float) -> None:
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise ValueError(f"tol {tol} outside [{_TOL_MIN}, {_TOL_MAX}]")


def _memoized(f, panels):
    """_panel of f as a function of (a, b), through the memo panels keyed by (a, b).

    A panel whose integrand raised is not stored; its y is the list that
    _raised appends a level's values to, which a level that raised leaves
    as it was.
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
    value, err, y, resabs, resasc, k21 = panel(a, b)
    evals = PANEL_EVALS
    if tol < err < resasc and max_evals >= len(_W43):
        value, err, evals = _raised(f, a, b, y, resabs, resasc, k21, tol, max_evals)
    if err <= tol or evals == len(_W43):
        # Met tol on the first panel, or stopped at the 43-point level: no
        # bisection.  value error_estimate evaluations converged
        return QuadratureResult(value, err, evals, err <= tol)
    # heap entries: (-error, insertion order, a, b, value, error)
    seq = 0
    heap = [(-err, seq, a, b, value, err)]
    total_err = err
    while total_err > tol and evals + 2 * PANEL_EVALS <= max_evals:
        neg, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        v1, e1 = panel(pa, pm)[:2]
        v2, e2 = panel(pm, pb)[:2]
        evals += 2 * PANEL_EVALS
        total_err += e1 + e2 - pe
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, pm, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, pm, pb, v2, e2))
    total_err = math.fsum(map(operator.itemgetter(5), heap))
    if total_err > err:
        # The bisected panels ended worse than the first panel (K21 or its
        # last level), whose err > tol: report that panel, so a larger budget
        # never reports a larger error.  value error_estimate evaluations
        # converged
        return QuadratureResult(value, err, evals, False)
    value = math.fsum(map(operator.itemgetter(4), heap))
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
