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
is computed exactly and rounded once: ln G(n+1) is an integer combination of
von Mangoldt's function, summed in O(sqrt n) steps from prefix sums held as
integers scaled by 2^160 in a table that each process builds once (numpy
sieves its primes) and grows on demand, up to n = N_MAX.  estimator.ln_a
adds the Barnes G asymptotic corrections to one such term when its method is
limit_sequence.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator

import numpy as np

from .integrands import IntegrandSpec, _binet_kernel, _horner
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


def _theta_kernel(t: float) -> float:
    """(1/(e^t-1) - 1/t + 1/2)/t, stable down to t = 0."""
    if t < _THETA_KERNEL_SWITCH:
        return _horner(_THETA_KERNEL_SERIES, t * t)
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


# The limit-sequence term works in fixed point: a logarithm is held as the
# integer nearest 2^_BITS times it.  The table is built with _GUARD more bits,
# which absorb the floored series terms that each ln p accumulates through
# the ln p of the factors of p - 1.
_BITS = 160
_GUARD = 32

# Largest n of glaisher_seq_log_term: its half-ulp claim is proved up to here,
# and a larger n would grow the table (and numpy's sieve) to fit.
N_MAX = 100_000

# ln 2 pi as the integer nearest 2^_BITS times it; tests/test_specfun.py
# rederives it in mpmath.
_LN_2PI = 0x1D67F1C864BEB4A6929792002883240479F611F1A

# The limit sequence's table (see _build_table), grown on demand to at least
# twice its last limit.  A growth builds a whole new table in locals and then
# swaps it in.  No entry depends on the limit, so a term has the same bits
# whatever was called before it.
_TABLE = None


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


def _build_table(limit: int):
    """(limit, keys, psi, psi1, factor) for the terms up to limit.

    keys lists the prime powers d <= limit in order; psi[i] and psi1[i] are
    the sums of Lambda(d) and d Lambda(d) (von Mangoldt's Lambda(p^k) = ln p)
    over keys[:i], so psi(x) = psi[bisect_right(keys, x)].  factor views
    the smallest-prime-factor sieve of [0, limit] (0 at 0 and 1), a numpy
    array of 4 bytes per entry.  ln p is 2 atanh(1/(2p - 1)) plus ln(p - 1),
    which the sieve factors over smaller primes (so ln 2 = 2 atanh(1/3)).
    Every logarithm is scaled by 2^_BITS.
    """
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if not spf[p]:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    primes = np.flatnonzero(spf == 0)[2:]
    spf[primes] = primes
    factor = memoryview(spf)  # indexes to a Python int
    ln_p = {}
    keys = primes.tolist()
    for p in keys:
        ln, m = 2 * _acoth(2 * p - 1), p - 1
        while m > 1:
            q = factor[m]
            ln += ln_p[q]
            m //= q
        ln_p[p] = ln
    for p in keys[: bisect.bisect_right(keys, math.isqrt(limit))]:
        power = p * p
        while power <= limit:
            keys.append(power)
            power *= p
    keys.sort()
    half = 1 << (_GUARD - 1)
    lam = [(ln_p[factor[d]] + half) >> _GUARD for d in keys]
    psi = list(itertools.accumulate(lam, initial=0))
    psi1 = list(itertools.accumulate(map(operator.mul, keys, lam), initial=0))
    return limit, keys, psi, psi1, factor


def _table(n: int):
    """The limit sequence's table, grown first if its limit is below n.

    The smallest table holds the primes up to 1024.
    """
    global _TABLE
    table = _TABLE
    limit = 0 if table is None else table[0]
    if limit < n:
        table = _build_table(max(n, 2 * limit, 1024))
        _TABLE = table
    return table


def _ln_prime(keys, psi, p: int) -> int:
    """2^_BITS ln p for a prime p in keys: the step of psi at p."""
    i = bisect.bisect_right(keys, p)
    return psi[i] - psi[i - 1]


def _ln_barnes_g(n: int, keys, psi, psi1) -> int:
    """2^_BITS ln G(n+1) from the table: exactly the integer sum below.

    ln G(n+1) = sum_{k<n} (n - k) ln k, regrouped over the divisors d of k,
    is
        sum_{d<n} Lambda(d) (q n - d q (q+1)/2),  q = N // d,  N = n - 1.
    The prime powers d <= s = isqrt(N) are summed one by one.  Above s, d
    runs in blocks of one q <= Q = N // (s + 1), and summation by parts over
    q turns the blocks into
        n (sum_q psi(N // q) - Q psi(s)) - (sum_q q psi1(N // q) - Q (Q+1)/2 psi1(s)),
    so the sum takes O(sqrt n) lookups.  Every step is exact, so any such
    regrouping gives the same integer.
    """
    big_n = n - 1
    s = math.isqrt(big_n)
    i_s = bisect.bisect_right(keys, s)
    ln_g = 0
    for i in range(i_s):
        d = keys[i]
        q = big_n // d
        ln_g += (q * n - d * (q * (q + 1) // 2)) * (psi[i + 1] - psi[i])
    top_q = big_n // (s + 1)
    sum_psi = sum_psi1 = 0
    hi = len(keys)
    for q in range(1, top_q + 1):
        hi = bisect.bisect_right(keys, big_n // q, i_s, hi)
        sum_psi += psi[hi]
        sum_psi1 += q * psi1[hi]
    ln_g += n * (sum_psi - top_q * psi[i_s])
    return ln_g - (sum_psi1 - top_q * (top_q + 1) // 2 * psi1[i_s])


def glaisher_seq_log_term(n: int) -> float:
    """Log of the limit-sequence term at n, to half an ulp; tends to ln A.

    The term is (n/2) ln 2 pi + (n^2/2 - 1/12) ln n - 3n^2/4 + 1/12 -
    ln G(n+1), with ln G(n+1) from _ln_barnes_g.  24 times the term is then
    one integer scaled by 2^_BITS, within 2^-110 of exact for n <= N_MAX
    (each table entry is within half a unit), and Python's int / int rounds
    it correctly.  n must be an integer in [1, N_MAX].
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"glaisher_seq_log_term requires an integer n, got {n!r}") from None
    if not 1 <= n <= N_MAX:
        raise ValueError(f"glaisher_seq_log_term requires n in [1, {N_MAX}], got {n}")
    _, keys, psi, psi1, factor = _table(n)
    ln_g = _ln_barnes_g(n, keys, psi, psi1)
    ln_n, m = 0, n
    while m > 1:
        p = factor[m]
        ln_n += _ln_prime(keys, psi, p)
        m //= p
    total = 12 * n * _LN_2PI + (12 * n * n - 2) * ln_n - 24 * ln_g - ((18 * n * n - 2) << _BITS)
    return total / (24 << _BITS)
