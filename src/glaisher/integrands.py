"""The integrands behind each representation of ln A, as self-describing objects.

An IntegrandSpec says what quadrature.integrate needs to know of an
integrand and nothing more: its pointwise evaluator (with a frozen Taylor
branch below a switch threshold, since the printed forms are 0/0 at t = 0),
the upper end of its domain (0, domain_upper), whether it is log-singular at
0, and, on (0, inf) only, an optional tail bound T -> int_T^inf |f| that
does not increase with T and is rigorous for T >= 5, the automatic ladder's
first rung and the smallest T a caller may force (the classical and Malmsten
bounds assume T >= 1).  The automatic truncation rule reads from it alone
whether the tail is cut or compactified (a tail without one is).

Evaluator notes:
  * classical:  x ln x / (e^{2 pi x} - 1), log-singular at 0, exponential tail.
  * binet (two printed forms):
      form 12:  (1/(e^t-1) - 1/t + 1/2) (1 - e^{-t/2}) / t^2
      form 13:  (1 - e^{-t/2}) [t coth(t/2) - 2] / (2 t^3)
    limit 1/24 at 0; decays like 1/(2 t^2) (algebraic, order 2).
  * malmsten (two printed forms):
      form 18:  [1/8 - 1/(2(1-e^{-t})) + 1/(t(1+e^{-t/2}))] e^{-t}/t
      form 19:  e^{-t} [(8-3t) e^t - 8 e^{t/2} - t] / (8 t^2 (e^t - 1))
    limit -1/24 at 0; decays like -3 e^{-t}/(8 t) (exponential).
    Form 19 is rewritten with e^{-t} factored through analytically so no
    intermediate ever exceeds O(1); the printed form overflows near t = 710
    and loses accuracy much earlier.
  * lngamma_direct:  ln Gamma(x+1) on the finite interval [0, 1/2], smooth.

Direct evaluation of the 0/0 forms loses all significant digits below
t ~ 1e-4 even with expm1/tanh rewrites, so each evaluator switches to its
series below t = 0.2, where the rewritten direct forms are still good to
~1e-14 absolute (seam-tested).  A series is one straight-line Horner
expression over its frozen coefficients, unpacked from a default argument
(the body's c), highest power first: the operations and their order are a
loop's from acc = 0.0, whose first step 0.0 * t + c_top is exactly c_top.

The registry holds the four route integrands, with Binet form 13 and
Malmsten form 19; forms 12 and 18 are reached through the form argument.
Its evaluators are bodies without checks, since quadrature evaluates only
interior points of the domain; the public functions check their inputs
(the domain, and the form) and then run the same bodies, as forms 12 and
18 run theirs (estimator's form-equivalence suite calls all four bodies).
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "IntegrandSpec",
    "INTEGRAND_IDS",
    "classical_integrand",
    "binet_integrand",
    "malmsten_integrand",
    "lngamma_direct_integrand",
    "get_integrand",
    "SERIES_SWITCH_T",
]

_TWO_PI = 2.0 * math.pi

# Switch point between the series branch and the rewritten direct forms.
SERIES_SWITCH_T = 0.2

# Taylor coefficients at t = 0 of the (identical) binet forms 12/13,
# frozen from a one-off symbolic expansion:
# 1/24 - t/96 + t^2/960 - t^3/23040 + t^4/107520 - t^5/430080
# + t^6/23224320 + 73 t^7/1857945600 + t^8/8174960640
# - 521 t^9/490497638400 + t^10/4250979532800
_BINET_SERIES = (
    1.0 / 24.0,
    -1.0 / 96.0,
    1.0 / 960.0,
    -1.0 / 23040.0,
    1.0 / 107520.0,
    -1.0 / 430080.0,
    1.0 / 23224320.0,
    73.0 / 1857945600.0,
    1.0 / 8174960640.0,
    -521.0 / 490497638400.0,
    1.0 / 4250979532800.0,
)

# Same, for the (identical) malmsten forms 18/19:
# -1/24 + 5t/128 - 101 t^2/5760 + 77 t^3/15360 - 1003 t^4/967680
# + 1759 t^5/10321920 - 3761 t^6/154828800 + 37 t^7/11796480
# - 43487 t^8/122624409600 + 21829 t^9/653996851200
# - 7677611 t^10/2678117105664000
_MALMSTEN_SERIES = (
    -1.0 / 24.0,
    5.0 / 128.0,
    -101.0 / 5760.0,
    77.0 / 15360.0,
    -1003.0 / 967680.0,
    1759.0 / 10321920.0,
    -3761.0 / 154828800.0,
    37.0 / 11796480.0,
    -43487.0 / 122624409600.0,
    21829.0 / 653996851200.0,
    -7677611.0 / 2678117105664000.0,
)


# eval(x) -> f(x); tail_bound(T) -> int_T^inf |f|, which a forced truncation
# needs; domain_upper is 0.5 for the finite lngamma integrand.
IntegrandSpec = namedtuple(
    "IntegrandSpec",
    "eval tail_bound log_singular_at_zero domain_upper",
    defaults=(None, False, math.inf),
)


def _classical(x: float) -> float:
    u = _TWO_PI * x
    if u > 35.0:
        # e^{-u} underflows harmlessly to 0 for very large x.
        eu = math.exp(-u)
        return x * math.log(x) * eu / (1.0 - eu)
    return x * math.log(x) / math.expm1(u)


def classical_integrand(x: float) -> float:
    """x ln x / (e^{2 pi x} - 1); log-singular (but integrable) at 0."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"classical integrand requires finite x > 0, got {x}")
    return _classical(x)


def _binet_kernel(t: float) -> float:
    """1/(e^t-1) - 1/t + 1/2 for t > 0, which lies in (0, 1/2).

    Shared by Binet's form 12 and specfun's theta kernel; both switch to a
    series well before the cancellation near t = 0 matters.
    """
    if t > 30.0:
        # 1/(e^t - 1) = e^{-t}/(1 - e^{-t}); avoids expm1 overflow
        et = math.exp(-t)
        return et / (1.0 - et) - 1.0 / t + 0.5
    em = math.expm1(t)
    return (t - em) / (t * em) + 0.5


def _binet13(t: float, c=_BINET_SERIES) -> float:
    if t < SERIES_SWITCH_T:
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = c
        return (((((((((c10 * t + c9) * t + c8) * t + c7) * t + c6) * t + c5) * t + c4)
                 * t + c3) * t + c2) * t + c1) * t + c0
    th = math.tanh(t / 2.0)
    bracket = (t - 2.0 * th) / th  # t coth(t/2) - 2
    return (-math.expm1(-t / 2.0)) * bracket / (2.0 * t * t * t)


def _binet12(t: float) -> float:
    if t < SERIES_SWITCH_T:
        return _binet13(t)  # the forms share their series
    return _binet_kernel(t) * (-math.expm1(-t / 2.0)) / (t * t)


def binet_integrand(t: float, form: int = 13) -> float:
    """Either printed form of the Binet-route integrand; limit 1/24 at 0."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"binet integrand requires finite t > 0, got {t}")
    if form not in (12, 13):
        raise ValueError(f"form must be 12 or 13, got {form}")
    return _binet12(t) if form == 12 else _binet13(t)


def _malmsten19(t: float, c=_MALMSTEN_SERIES) -> float:
    if t < SERIES_SWITCH_T:
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = c
        return (((((((((c10 * t + c9) * t + c8) * t + c7) * t + c6) * t + c5) * t + c4)
                 * t + c3) * t + c2) * t + c1) * t + c0
    # form 19 with e^{-t} factored through:
    # (8-3t) - 8 e^{-t/2} - t e^{-t}  ==  -8 expm1(-t/2) - t (3 + e^{-t})
    e = math.exp(-t)
    num = -8.0 * math.expm1(-t / 2.0) - t * (3.0 + e)
    return num * e / (8.0 * t * t * (-math.expm1(-t)))


def _malmsten18(t: float) -> float:
    if t < SERIES_SWITCH_T:
        return _malmsten19(t)  # the forms share their series
    bracket = (
        0.125
        - 1.0 / (2.0 * (-math.expm1(-t)))
        + 1.0 / (t * (1.0 + math.exp(-t / 2.0)))
    )
    return bracket * math.exp(-t) / t


def malmsten_integrand(t: float, form: int = 19) -> float:
    """Either printed form of the Malmsten-route integrand; limit -1/24 at 0."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"malmsten integrand requires finite t > 0, got {t}")
    if form not in (18, 19):
        raise ValueError(f"form must be 18 or 19, got {form}")
    return _malmsten18(t) if form == 18 else _malmsten19(t)


def _lngamma_direct(x: float) -> float:
    return math.lgamma(x + 1.0)


def lngamma_direct_integrand(x: float) -> float:
    """ln Gamma(x+1) on [0, 1/2]; smooth on the closed interval."""
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"lngamma integrand requires x in [0, 1/2], got {x}")
    return _lngamma_direct(x)


# --- rigorous tail bounds ---------------------------------------------------

_CLASSICAL_TAIL_SCALE = 1.0 / (1.0 - math.exp(-_TWO_PI))
_MALMSTEN_TAIL_SCALE = 1.0 / (8.0 * (1.0 - math.exp(-1.0)))


def _classical_tail_bound(T: float) -> float:
    # |f| <= x^2 e^{-2 pi x} / (1 - e^{-2 pi}) for x >= 1 (ln x <= x), and
    # int_T^inf x^2 e^{-2 pi x} dx has the closed form below.
    c = _TWO_PI
    poly = T * T / c + 2.0 * T / (c * c) + 2.0 / (c * c * c)
    return _CLASSICAL_TAIL_SCALE * poly * math.exp(-c * T)


def _binet_tail_bound(T: float) -> float:
    # 0 < f(t) < 1/(2 t^2) since the kernel is in (0, 1/2) and 1-e^{-t/2} < 1.
    return 1.0 / (2.0 * T)


def _malmsten_tail_bound(T: float) -> float:
    # |f(t)| <= (3t+16) e^{-t} / (8 t^2 (1-e^{-1})) for t >= 1, and
    # (3t+16)/t^2 is decreasing there.
    return _MALMSTEN_TAIL_SCALE * (3.0 * T + 16.0) / (T * T) * math.exp(-T)


# Each eval is a body without checks: quadrature evaluates interior points
# of the domain only.
_SPECS = {
    "classical": IntegrandSpec(
        eval=_classical, tail_bound=_classical_tail_bound, log_singular_at_zero=True
    ),
    "binet_form13": IntegrandSpec(eval=_binet13, tail_bound=_binet_tail_bound),
    "malmsten_form19": IntegrandSpec(eval=_malmsten19, tail_bound=_malmsten_tail_bound),
    "lngamma_direct": IntegrandSpec(eval=_lngamma_direct, domain_upper=0.5),
}
INTEGRAND_IDS = tuple(sorted(_SPECS))


def get_integrand(integrand_id: str) -> IntegrandSpec:
    try:
        return _SPECS[integrand_id]
    except KeyError:
        raise KeyError(
            f"unknown integrand {integrand_id!r}; known: {', '.join(INTEGRAND_IDS)}"
        ) from None
