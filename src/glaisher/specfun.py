"""Special functions underlying every representation of ln A.

* log_gamma_plus_one: ln Gamma(x+1) from the standard library's
  math.lgamma, the reference evaluator for every identity check.
* binet_theta: the Stirling remainder theta(x) from its integral
  representation, theta(x) = int_0^inf (1/(e^t-1) - 1/t + 1/2) e^{-xt}/t dt.
* malmsten_log_gamma: ln Gamma(z+1) from the Malmsten integral
  int_0^inf [z - (1-e^{-zt})/(1-e^{-t})] e^{-t}/t dt.
* glaisher_seq_log_term: the log of the defining limit-sequence term
  (2 pi)^{n/2} n^{n^2/2 - 1/12} e^{-3n^2/4 + 1/12} / G(n+1).

The sequence term cancels ~n^2-sized pieces down to an O(1) answer; at
n = 800 plain double precision cannot even represent ln G(n+1) tightly
enough, so the assembly regroups the cancellation as a weighted sum of
ln(n/k) and accumulates it in extended precision (80-bit on x86).
"""

from __future__ import annotations

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
    "SEQ_TERM_ROUNDING",
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

    Outside it the quadrature's error bar can fail: below x = 0.1, where the
    integrand (~e^{-xt}/(2t)) spreads out to t ~ 1/x, theta(1.6e-4) at tol
    1e-4 errs by 3e-2 against a bar of 2e-6; above, it fails from x ~ 305.
    """
    if not 0.1 <= x <= 100.0:
        raise ValueError(f"binet_theta requires 0.1 <= x <= 100, got {x}")

    def f(t):
        return _theta_kernel(t) * math.exp(-x * t)

    def bound(T):
        # kernel in (0, 1/2), so tail <= int_T^inf e^{-xt}/(2t) <= e^{-xT}/(2xT)
        return math.exp(-x * T) / (2.0 * x * T)

    return integrate(IntegrandSpec(eval=f, tail_bound=bound), tol)


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
    """ln Gamma(z+1) by quadrature of the Malmsten integral, finite z >= 0."""
    if not 0.0 <= z < math.inf:
        raise ValueError(f"malmsten_log_gamma requires finite z >= 0, got {z}")
    # The bracket cancels to O(t) at 0; series below a z-scaled threshold.
    switch = 0.005 / max(1.0, z)

    def f(t):
        if t < switch:
            return _malmsten_bracket_series(z, t) * math.exp(-t)
        bracket = z - math.expm1(-z * t) / math.expm1(-t)
        return bracket * math.exp(-t) / t

    def bound(T):
        # |bracket| <= z + 1/(1-e^{-1}) + 1/2 < z + 2.1 for t >= 1
        return (z + 2.1) * math.exp(-T) / T

    return integrate(IntegrandSpec(eval=f, tail_bound=bound), tol)


_LN_2PI_LD = np.longdouble("1.837877066409345483560659472811")

# glaisher_seq_log_term(n) is within SEQ_TERM_ROUNDING * n^2 of the exact term:
# its ~n^2-sized pieces are summed in long double (80-bit on x86, else double).
# The factor 4 is measured against mpmath on 1503 n in [1e3, 1e5], where it
# keeps ln_a_limit_sequence's error within 0.29 of its bar (2: 0.54, 1: 0.96).
SEQ_TERM_ROUNDING = 4.0 * float(np.finfo(np.longdouble).eps)


def glaisher_seq_log_term(n: int) -> float:
    """Log of the limit-sequence term at n; tends to ln A as n -> inf.

    Regrouped so the n^2-scale cancellation happens inside one extended-
    precision sum:
        (n^2/2) ln n - ln G(n+1) = (n/2) ln n + sum_{k<n} (n-k) ln(n/k),
    which keeps the absolute error near 1e-13 even at n ~ 1000.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"glaisher_seq_log_term requires an integer n, got {n!r}") from None
    if n < 1:
        raise ValueError(f"glaisher_seq_log_term requires n >= 1, got {n}")
    ld = np.longdouble
    nl = ld(n)
    k = np.arange(1, n, dtype=ld)
    weighted = (nl - k) * np.log(nl / k)
    total = (
        (nl / 2) * _LN_2PI_LD
        + (nl / 2 - ld(1) / 12) * np.log(nl)
        - 3 * nl * nl / 4
        + ld(1) / 12
        + np.sum(weighted)
    )
    return float(total)
