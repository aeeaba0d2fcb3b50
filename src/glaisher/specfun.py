"""Special functions underlying every representation of ln A.

* log_gamma_plus_one: ln Gamma(x+1) from the standard library's
  math.lgamma, the reference evaluator for every identity check.
* binet_theta: the Stirling remainder theta(x) from its integral
  representation, theta(x) = int_0^inf (1/(e^t-1) - 1/t + 1/2) e^{-xt}/t dt.
* malmsten_log_gamma: ln Gamma(z+1) from the Malmsten integral
  int_0^inf [z - (1-e^{-zt})/(1-e^{-t})] e^{-t}/t dt.
* glaisher_seq_log_term: the log of the defining limit-sequence term
  (2 pi)^{n/2} n^{n^2/2 - 1/12} e^{-3n^2/4 + 1/12} / G(n+1).

The sequence term cancels ~n^2-sized pieces down to an O(1) answer, so it
is computed in fixed point and rounded once: ln G(n+1) = sum_{k<n} (n - k)
ln k comes from two running sums of ln k and k ln k, held as integers scaled
by 2^192 and grown on demand, up to n = N_MAX, by the chain
ln k = ln(k - 1) + 2 acoth(2k - 1).  estimator.ln_a adds the Barnes G
asymptotic corrections to one such term when its method is limit_sequence.
"""

from __future__ import annotations

import math
import operator

import numpy  # noqa: F401  (unused; perfbench's import-time probe expects it)

from .integrands import IntegrandSpec, _binet_kernel
from .quadrature import QuadratureResult, integrate

__all__ = [
    "log_gamma_plus_one",
    "binet_theta",
    "malmsten_log_gamma",
    "glaisher_seq_log_term",
    "N_MAX",
]


def log_gamma_plus_one(x: float) -> float:
    """ln Gamma(x+1) for x > -1; exactly 0 at x = 0 and x = 1."""
    if not x > -1.0:
        raise ValueError(f"log_gamma_plus_one requires x > -1, got {x}")
    return math.lgamma(x + 1.0)


# Taylor coefficients in t^2 of (1/(e^t-1) - 1/t + 1/2)/t, i.e. the even
# Bernoulli series B_{2k} t^{2k-2}/(2k)!.
_THETA_KERNEL_SERIES = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
)
_THETA_KERNEL_SWITCH = 0.25


def _theta_kernel(t: float, c=_THETA_KERNEL_SERIES) -> float:
    """(1/(e^t-1) - 1/t + 1/2)/t, stable down to t = 0.

    Below the switch it is the series in x = t^2, one Horner expression as
    integrands' series are.
    """
    if t < _THETA_KERNEL_SWITCH:
        c0, c1, c2, c3, c4 = c
        x = t * t
        return (((c4 * x + c3) * x + c2) * x + c1) * x + c0
    return _binet_kernel(t) / t


def binet_theta(x: float, tol: float = 1e-10) -> QuadratureResult:
    """Binet's theta(x) by quadrature of its integral representation, 0.1 <= x <= 100.

    Its tail, which has no bound here, is compactified.  Below the domain
    the integrand (~e^{-xt}/(2t)) spreads out to t ~ 1/x, and from x ~ 0.02
    down the 87-point level misses tol 1e-10, unconverged.
    """
    if not 0.1 <= x <= 100.0:
        raise ValueError(f"binet_theta requires 0.1 <= x <= 100, got {x}")

    # t = m u puts the integrand's e^{-xt} decay at the tail map's scale
    # whatever x, though the peak at 0 narrows as x grows.
    m = 2.0 / max(1.0, x)

    def f(u):
        t = m * u
        return _theta_kernel(t) * math.exp(-x * t) * m

    return integrate(IntegrandSpec(eval=f), tol)


# Taylor coefficients in t of [z - (1-e^{-zt})/(1-e^{-t})]/t, each a
# polynomial in z, frozen from a one-off symbolic expansion.
def _malmsten_bracket_series(z: float, t: float) -> float:
    c0 = z * (z - 1.0) / 2.0
    c1 = -(z**3) / 6.0 + z * z / 4.0 - z / 12.0
    c2 = z**4 / 24.0 - z**3 / 12.0 + z * z / 24.0
    c3 = -(z**5) / 120.0 + z**4 / 48.0 - z**3 / 72.0 + z / 720.0
    c4 = z**6 / 720.0 - z**5 / 240.0 + z**4 / 288.0 - z * z / 1440.0
    return (((c4 * t + c3) * t + c2) * t + c1) * t + c0


def malmsten_log_gamma(z: float, tol: float = 1e-10) -> QuadratureResult:
    """ln Gamma(z+1) by quadrature of the Malmsten integral, finite z >= 0.

    The integrand, z(z-1)/2 at t = 0, varies on the scale t ~ 1/z, which
    the 87-point level does not resolve for a large z: the run stops
    unconverged from z ~ 63 at tol 1e-11, from z ~ 70 at 1e-10 and from
    z ~ 195 at 1e-2.  Below 1e-11 the estimate's rounding floor, 50 eps
    times the integral of |f|, exceeds tol first: from z ~ 34 at 1e-12, 7
    at 1e-13 and 2 at 1e-14.  Either way the reported error estimate still
    bounds the error.
    """
    if not 0.0 <= z < math.inf:
        raise ValueError(f"malmsten_log_gamma requires finite z >= 0, got {z}")
    # The bracket cancels to O(t) at 0; series below a z-scaled threshold.
    switch = 0.005 / max(1.0, z)

    def f(t):
        if t < switch:
            return _malmsten_bracket_series(z, t) * math.exp(-t)
        bracket = z - math.expm1(-z * t) / math.expm1(-t)
        return bracket * math.exp(-t) / t

    return integrate(IntegrandSpec(eval=f), tol)


# The limit-sequence term works in fixed point: a logarithm is held as an
# integer near 2^(_BITS + _GUARD) times it (_LN_2PI, frozen at 2^_BITS, is
# shifted up).  The _GUARD bits absorb the floored series terms that each
# ln k accumulates along its chain; see glaisher_seq_log_term for the bound.
_BITS = 160
_GUARD = 32

# Largest n of glaisher_seq_log_term: its error bound is derived up to here,
# and a larger n would grow the running sums (two ints per k) to fit.
N_MAX = 100_000

# ln 2 pi as the integer nearest 2^_BITS times it; tests/test_specfun.py
# rederives it in mpmath.
_LN_2PI = 0x1D67F1C864BEB4A6929792002883240479F611F1A
# ln 2 pi at the running sums' scale, and the scale of 24 times the term.
_LN_2PI_SCALED = _LN_2PI << _GUARD
_SCALE_24 = 24 << (_BITS + _GUARD)

# The limit sequence's running sums (S1, S2): S1[m] = sum_{k<=m} ln k and
# S2[m] = sum_{k<=m} k ln k for m = 0..len - 1, scaled by 2^(_BITS + _GUARD).
# _sums grows them to at least twice their last limit, extending copies and
# then swapping both in.  No entry depends on the limit, so a term has the
# same bits whatever was called before it.
_SUMS = ([0, 0], [0, 0])


def _acoth(m: int) -> int:
    """2^(_BITS + _GUARD) acoth(m) = atanh(1/m) for an integer m > 1.

    The terms are floored, so the result is within about two units per term.
    """
    power = (1 << (_BITS + _GUARD)) // m
    total, k, m2 = power, 1, m * m
    while power:
        power //= m2
        k += 2
        total += power // k
    return total


def _sums(n: int):
    """The running sums (S1, S2), grown first if they stop below n.

    ln k is the chain ln(k - 1) + 2 acoth(2k - 1), from ln 1 = 0.
    """
    global _SUMS
    s1, s2 = _SUMS
    if len(s1) <= n:
        s1, s2 = s1.copy(), s2.copy()
        ln = s1[-1] - s1[-2]
        for k in range(len(s1), max(n, 2 * (len(s1) - 1)) + 1):
            ln += 2 * _acoth(2 * k - 1)
            s1.append(s1[-1] + ln)
            s2.append(s2[-1] + k * ln)
        _SUMS = s1, s2
    return s1, s2


def glaisher_seq_log_term(n: int) -> float:
    """Log of the limit-sequence term at n, to half an ulp; tends to ln A.

    The term is (n/2) ln 2 pi + (n^2/2 - 1/12) ln n - 3n^2/4 + 1/12 -
    ln G(n+1), with ln G(n+1) = sum_{k<n} (n - k) ln k = n S1[n-1] - S2[n-1]
    and ln n = S1[n] - S1[n-1].  24 times the term is then one integer
    scaled by 2^(_BITS + _GUARD), and Python's int / int rounds it
    correctly.  n must be an integer in [1, N_MAX].

    Error: each 2 acoth(2k - 1) has at most 61 series terms (at k = 2), each
    floored low by under 1.4 units, so every link is low by under 2^8 units
    and ln k by under 2^8 k.  ln n enters with weight 12n^2 and ln G(n+1)
    with -24, so their errors have opposite signs, and the larger is under
    12n^2 2^8 n; ln 2 pi adds at most 12n 2^31.  At n = N_MAX that is under
    2^61.5 units, so 24 times the term is within 2^-130.5 of exact (measured:
    2^-136.6).  The float is the correct rounding of a value that close to
    the term, so it is the correctly rounded term unless the term lies that
    close to a rounding boundary; tests/test_specfun.py checks it at every
    n <= 1000.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"glaisher_seq_log_term requires an integer n, got {n!r}") from None
    if not 1 <= n <= N_MAX:
        raise ValueError(f"glaisher_seq_log_term requires n in [1, {N_MAX}], got {n}")
    s1, s2 = _SUMS
    if len(s1) <= n:
        s1, s2 = _sums(n)
    ln_n = s1[n] - s1[n - 1]
    ln_g = n * s1[n - 1] - s2[n - 1]
    total = (12 * n * _LN_2PI_SCALED + (12 * n * n - 2) * ln_n - 24 * ln_g
             - ((18 * n * n - 2) << (_BITS + _GUARD)))
    return total / _SCALE_24
