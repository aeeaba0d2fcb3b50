"""QUADPACK's QNG: one Gauss-Kronrod panel raised through Patterson's levels.

The integral is first evaluated at the 21 nodes of the Gauss-Kronrod rule
K21, which include the nodes of the 10-point Gauss-Legendre rule G10.  Its
value is K21, and its error estimate is QUADPACK qk21's rescaling of
|K21 - G10| (see _error).  While the estimate misses the tolerance, the rule
is raised as in QUADPACK's qng to Patterson's (1968) nested 43-point rule
and then to his 87-point rule: each level reuses every value of the one
before, and its estimate is the same rescaling of its difference from it.
The run reports the last level it took, converged only if that level's
estimate meets the tolerance.  The budget is a hard cap of at least K21's
21 evaluations: a level is taken only if its 43 or 87 evaluations fit, so
a budget above 87 changes nothing.  The rules use interior nodes only, so
integrands never get evaluated at interval endpoints (removable
singularities at 0 are safe).

integrate_finite(f, a, b, tol) is that engine on [a, b], optionally under a
change of variables: graded, x = b u^4 on u in (0, 1] (a = 0), and tail,
t = 5 x/(1 - x) on [a, b] within [0, 1].  The nodes of a map, and its
Jacobians folded into the rules' weights, are computed once per map and
interval, when its node table is built, so the engine evaluates f at each
node and nothing more.

integrate(spec, tol, truncate_at) is the one entry that reads an
IntegrandSpec.  It makes exactly one integrate_finite call, on spec.eval,
and returns that call's error_estimate as it is, with the tail bound apart:

  1. A finite domain [0, domain_upper] is integrated as it is.
  2. A tail on (0, inf) goes through the map of QUADPACK's QAGI (Piessens
     et al., 1983): t = 5 s/(1-s) takes s in [0, 1) onto [0, inf), so
     int_0^T f dt = int_0^{T/(T+5)} f(t(s)) 5/(1-s)^2 ds.  The tail is
     either truncated at T, with tail_bound(T) as the truncation error and s
     on [0, T/(T+5)], or compactified, with s on [0, 1): a tail like c/t^2
     becomes the finite limit c/5 at s = 1, a node never evaluated.  Either
     way at least half of the nodes lie where t < 5, near the peak of every
     route's integrand, whatever T is.  A caller may force truncation at
     any T in [TRUNCATE_AT_MIN, TRUNCATE_AT_MAX].  Otherwise the automatic
     rule decides from one table: the bound on each of the 21 rungs of a
     fixed ladder over that range, read once per bound (_rungs).  A bound
     that drops below a tenth of the tolerance on some rung (an exponential
     tail) is truncated at the first such rung, which one bisection finds
     as a scan of the ladder would; any other tail (an algebraic one, or
     one without a bound) is compactified, reported as T = 5, the map's
     t(1/2).  So every T the rule picks is one a caller may force.
  3. A log singularity at 0 is graded away by x = b u^4 on u in (0, 1]
     (Davis & Rabinowitz, 1984), where (0, b] is the interval of steps 1-2,
     and composed with step 2's map if there is one: f(x) ~ ln x becomes
     f(b u^4) 4 b u^3 ~ u^3 ln u, which tends to 0 at u = 0, a node never
     evaluated.  The map covers (0, b] exactly, so nothing is dropped.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
# need T >= 1) to 500, past every T that the convergence sweeps use.
TRUNCATE_AT_MIN, TRUNCATE_AT_MAX = 5.0, 500.0


def _mirror(half: tuple, centre: bool = False, sign: float = 1.0) -> tuple:
    """A rule's full table on [-1, 1], in ascending order of node, from its half.

    half is the table at the non-negative nodes, outermost first and the
    centre node 0 last if the rule has one, as QUADPACK stores it.  The full
    table is sign (-1 for nodes) times each entry but the centre's, then the
    half reversed, so the centre is placed once.
    """
    return (*(sign * x for x in (half[:-1] if centre else half)), *reversed(half))


# The 21-point Gauss-Kronrod rule on [-1, 1] extending the 10-point
# Gauss-Legendre rule, as in QUADPACK's qk21 (Piessens et al., 1983),
# frozen as floats.  The Kronrod nodes are the 10 Gauss nodes and the 11
# roots of the Stieltjes polynomial E11, orthogonal to P10(x) x^k for
# k <= 10; the weights solve the 21 moment equations (Laurie, 1997).  Each
# rule is symmetric about 0, so each table is written as its non-negative
# half, as QUADPACK stores it, and mirrored at import by _mirror.
# tests/test_quadrature.py rederives every constant in mpmath.
_XK = _mirror((
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0,
), centre=True, sign=-1.0)
_WK = _mirror((
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169,
), centre=True)
# The G10 weights, and where the G10 nodes sit among _XK: every other node.
_WG = _mirror((
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287,
))
_GAUSS = slice(1, None, 2)

# Integrand evaluations of one panel: G10 reuses ten of the Kronrod values.
PANEL_EVALS = len(_XK)

# Patterson's (1968) nested extensions of K21, as in QUADPACK's qng, frozen
# as floats and written as halves like K21's.  The 43-point rule adds the 22
# roots of the even F22 orthogonal to P10 E11 x^k for k < 22, and the
# 87-point rule the 44 roots of the even G44 orthogonal to P10 E11 F22 x^k
# for k < 44; the weights solve the moment equations, and the rules are
# exact to degree 64 and 130.  _W43 weights the values at _XK then _X43, and
# _W87 those at _XK, _X43 then _X87; each of those segments is mirrored on
# its own.  tests/test_quadrature.py rederives every constant in mpmath.
_X43 = _mirror((
    0.999333360901932, 0.9874334029080889, 0.9548079348142663,
    0.9001486957483283, 0.8251983149831141, 0.732148388989305,
    0.6228479705377252, 0.4994795740710565, 0.36490166134658075,
    0.2222549197766013, 0.07465061746138332,
), sign=-1.0)
_W43 = _mirror((
    0.005768556059769796, 0.016296734289666565, 0.027371890593248842,
    0.0375228761208695, 0.04656082691042883, 0.05469490205825544,
    0.06174499520144257, 0.06735541460947808, 0.07138726726869339,
    0.07387019963239395, 0.07472214751740301,
), centre=True) + _mirror((
    0.001844477640212414, 0.010798689585891651, 0.021895363867795427,
    0.032597463975345686, 0.04216313793519181, 0.050741939600184575,
    0.05837939554261925, 0.06474640495144589, 0.06956619791235648,
    0.07282444147183322, 0.07450775101417512,
))
_X87 = _mirror((
    0.9999029772627293, 0.9979898959866788, 0.9921754978606873,
    0.9813581635727128, 0.9650576238583847, 0.9431676131336706,
    0.9158064146855072, 0.8832216577713164, 0.8457107484624157,
    0.8035576580352309, 0.7570057306854956, 0.7062732097873218,
    0.6515894665011779, 0.5932233740579611, 0.531493605970832,
    0.46676362304202285, 0.3994248478592188, 0.3298748771061883,
    0.25850355920216156, 0.18569539656834666, 0.11184221317990747,
    0.03735212339461987,
), sign=-1.0)
_W87 = _mirror((
    0.0028848724302115306, 0.008148377384149173, 0.013685946022712702,
    0.018761438201562824, 0.02328041350288831, 0.027347451050052287,
    0.03087249761171336, 0.03367770731163793, 0.03569363363941877,
    0.036935099820427905, 0.037361073762679026,
), centre=True) + _mirror((
    0.0009152833452022414, 0.005399280219300471, 0.01094767960111893,
    0.016298731696787336, 0.021081568889203834, 0.025370969769253827,
    0.029189697756475754, 0.03237320246720279, 0.034783098950365146,
    0.03641222073135179, 0.037253875503047706,
)) + _mirror((
    0.00027414556376207234, 0.0018071241550579428, 0.0040968692827591646,
    0.006758290051847379, 0.009549957672201646, 0.012329447652244854,
    0.015010447346388952, 0.01754896798624319, 0.019938037786440887,
    0.022194935961012286, 0.024339147126000805, 0.026374505414839208,
    0.0282869107887712, 0.030052581128092695, 0.03164675137143993,
    0.033050413419978504, 0.034255099704226064, 0.03526241266015668,
    0.0360769896228887, 0.03669860449845609, 0.037120549269832576,
    0.03733422875193504,
))

# QUADPACK's floor on a panel's error estimate: 50 eps times int |f|.
_ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon


class EvaluationFailedError(Exception):
    """The integrand returned a non-finite value (NaN or inf) at some node."""


# error_estimate: the engine's discretization estimate of the last level
# taken, in every record.  truncation_error: the tail bound at truncation_T.
# converged: that level met its tol and, from integrate, the two sum to <= tol.
QuadratureResult = namedtuple(
    "QuadratureResult",
    "value error_estimate evaluations converged"
    " truncation_error truncation_T truncation_mode",
    defaults=(0.0, 0.0, "none"),
)

# The scale c of the tail map t = c s/(1-s), where t(1/2) = c; one constant
# serves both tail modes.  Over 101 log-spaced tols in [1e-13, 1e-3], the
# automatic rule takes 21.4 evaluations of Malmsten's integrand on average
# at c = 5 and 25.4 at c = 10; Binet's compactified tail takes 29.9 and 29.7.
_TAIL_SCALE = 5.0


def _error(err: float, resabs: float, resasc: float) -> float:
    """QUADPACK's error estimate from a raw one, err = |R - R_coarser|.

    It is rescaled by resasc: resasc * min(1, (200 err / resasc)^1.5).  On an
    under-resolved panel err is a sizable share of resasc and the estimate
    grows to resasc itself; on a resolved one the power 1.5 credits the finer
    rule with its higher order.  The estimate is floored at 50 eps times
    resabs, the rounding of the sum itself.
    """
    if resasc and err:
        r = (200.0 * err / resasc) ** 1.5
        err = resasc * r if r < 1.0 else resasc
    floor = _ROUNDING_FLOOR * resabs
    return floor if floor > err else err


def _scan(y, a: float, b: float) -> None:
    """Raise EvaluationFailedError at the first non-finite value in y."""
    for v in y:
        if not math.isfinite(v):
            raise EvaluationFailedError(f"integrand returned {v} on [{a}, {b}]")


def _check_tol(tol: float) -> None:
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise ValueError(f"tol {tol} outside [{_TOL_MIN}, {_TOL_MAX}]")


@functools.lru_cache(maxsize=64)
def _nodes(a: float, b: float, graded: bool, tail: bool):
    """(half, ts, wk, wg, levels): the node table of integrate_finite's map on [a, b].

    ts are K21's nodes in f's variable, and wk and wg the K21 and G10
    weights times the map's Jacobian at their nodes, so that the rules'
    sums are of w j f(t); each of Patterson's levels is (ts, weights) of its
    new nodes and of all its weights.  half is the half-width of the
    interval the rules run on, [0, 1] when graded.  The identity map's
    weights are the rules' own, since its Jacobian is 1.
    """
    end = b
    if graded:
        a, b = 0.0, 1.0
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    ts, js = [], []
    for x in (*_XK, *_X43, *_X87):
        t, j = mid + half * x, 1.0
        if graded:
            u3 = t * t * t
            t, j = end * u3 * t, 4.0 * end * u3
        if tail:
            r = 1.0 / (1.0 - t)
            t, j = _TAIL_SCALE * t * r, j * _TAIL_SCALE * r * r
        ts.append(t)
        js.append(j)

    def weighted(ws, nodes=js):
        return tuple(map(operator.mul, ws, nodes))

    n21, n43 = len(_XK), len(_W43)
    return (
        half, tuple(ts[:n21]), weighted(_WK), weighted(_WG, js[_GAUSS]),
        ((tuple(ts[n21:n43]), weighted(_W43)), (tuple(ts[n43:]), weighted(_W87))),
    )


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_evals: int = DEFAULT_MAX_EVALS,
    *,
    graded: bool = False,
    tail: bool = False,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol, at most max_evals calls.

    graded integrates over x = b u^4 in u on (0, 1] instead, and needs a = 0;
    tail integrates f(t) dt over t = 5 x/(1 - x) for x in [a, b], and needs
    0 <= a < b <= 1.  Both together grade first (module docstring).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"require finite a < b, got [{a}, {b}]")
    if (graded and a != 0.0) or (tail and not 0.0 <= a < b <= 1.0):
        raise ValueError(f"[{a}, {b}] is outside the map's domain")
    _check_tol(tol)
    try:
        max_evals = operator.index(max_evals)
    except TypeError:
        raise ValueError(f"max_evals must be an integer, got {max_evals!r}") from None
    if max_evals < PANEL_EVALS:
        raise ValueError(f"max_evals {max_evals} is below one panel ({PANEL_EVALS})")
    half, ts, wk, wg, levels = _nodes(a, b, graded, tail)
    y = list(map(f, ts))
    wy = list(map(operator.mul, wk, y))
    # The weights are positive, so |w y| = w |y| exactly; a NaN or inf in wy
    # makes this sum non-finite, and only then is wy scanned for the culprit.
    abs_sum = sum(map(abs, wy))
    if not math.isfinite(abs_sum):
        _scan(wy, a, b)
    k21 = math.fsum(wy)
    g10 = math.fsum(map(operator.mul, wg, y[_GAUSS]))
    mean = 0.5 * k21
    # resasc, the rule's integral of |f j - mean|, is the sum of |w j f - w mean|.
    asc = 0.0
    for w, v in zip(_WK, wy):
        asc += abs(v - w * mean)
    resabs, resasc = half * abs_sum, half * asc
    value, err = half * k21, _error(half * abs(k21 - g10), resabs, resasc)
    evals, coarser = PANEL_EVALS, k21
    # Each level's raw estimate is |R - R_coarser|; resabs and resasc are K21's.
    for ts, ws in levels:
        if err <= tol or len(ws) > max_evals:
            break
        new = list(map(f, ts))
        if not math.isfinite(sum(map(abs, new))):
            _scan(new, a, b)
        y += new
        r = math.fsum(map(operator.mul, ws, y))
        value, err = half * r, _error(half * abs(r - coarser), resabs, resasc)
        evals, coarser = len(ws), r
    # value error_estimate evaluations converged
    return QuadratureResult(value, err, evals, err <= tol)


# Truncation points of the automatic rule: T = 5 * 1.25^k up to
# TRUNCATE_AT_MAX, 21 rungs, each of them one a caller may force.
_LADDER = [TRUNCATE_AT_MIN]
while _LADDER[-1] * 1.25 <= TRUNCATE_AT_MAX:
    _LADDER.append(_LADDER[-1] * 1.25)


@functools.lru_cache(maxsize=16)
def _rungs(bound: Callable[[float], float] | None):
    """(values, lows): bound on each rung of _LADDER, read once per bound.

    lows are the negated running minima of values, so they ascend and their
    first entry >= -x (one bisection) is the first rung whose value is <= x,
    as a scan of the ladder would find it; past the end, no rung is.
    min(m, v) keeps m unless v < m, so a NaN value is skipped.  No bound has
    the empty table.
    """
    values = () if bound is None else tuple(map(bound, _LADDER))
    mins = itertools.accumulate(values, min, initial=math.inf)
    return values, tuple(-m for m in itertools.islice(mins, 1, None))


def integrate(
    spec: IntegrandSpec,
    tol: float,
    truncate_at: float | None = None,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integrate spec over (0, spec.domain_upper) to absolute tolerance tol.

    The steps are those of the module docstring.  A forced truncate_at
    applies to (0, inf) only, needs a tail_bound and reads it at T.
    Truncation spends what the bound leaves of tol on discretization (at
    least tol/10, never below the engine's smallest tol).  error_estimate is
    integrate_finite's own and truncation_error the bound, so a forced
    truncation whose bound exceeds tol (the slow-convergence pathology of an
    algebraic tail) is returned with converged=False.
    """
    _check_tol(tol)
    b, bound, disc_tol = spec.domain_upper, spec.tail_bound, tol
    mode, T, trunc = "none", 0.0, 0.0
    tail = not math.isfinite(b)
    if not tail:
        if truncate_at is not None:
            raise ValueError(f"the domain [0, {b}] is finite; it takes no truncate_at")
    elif truncate_at is None:
        values, lows = _rungs(bound)
        k = bisect.bisect_left(lows, -tol / TAIL_SAFETY)
        if k < len(lows):
            mode, T, trunc = "truncate", _LADDER[k], values[k]
        else:
            mode, T, b = "compactify", _TAIL_SCALE, 1.0
    elif bound is None:
        raise ValueError("a forced truncate_at needs a tail_bound")
    elif TRUNCATE_AT_MIN <= truncate_at <= TRUNCATE_AT_MAX:
        mode, T = "truncate", float(truncate_at)
        trunc = bound(T)
    else:
        raise ValueError(f"truncate_at {truncate_at} outside [{TRUNCATE_AT_MIN}, {TRUNCATE_AT_MAX}]")
    if mode == "truncate":
        disc_tol = max(tol - trunc, 0.1 * tol, _TOL_MIN)
        b = T / (T + _TAIL_SCALE)
    res = integrate_finite(
        spec.eval, 0.0, b, disc_tol, max_evals, graded=spec.log_singular_at_zero, tail=tail
    )
    err = res.error_estimate
    # value error_estimate evaluations converged truncation_error
    # truncation_T truncation_mode
    return QuadratureResult(
        res.value, err, res.evaluations, res.converged and err + trunc <= tol, trunc, T, mode
    )
