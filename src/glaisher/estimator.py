"""Assembly of ln A by each route, with cross-validation and error budgets.

Routes:
  classical      ln A = 1/12 - 2 * int_0^inf x ln x / (e^{2 pi x} - 1) dx
  binet          ln A = (1/9) ln 2 + 1/24 + (2/3) * I_theta
  malmsten       ln A = 1/3 + (7/36) ln 2 - (1/6) ln pi + (2/3) * I_M
  direct_lgamma  ln A = (2/3) [int_0^{1/2} ln Gamma(x+1) dx
                               + 1/2 + (7/24) ln 2 - (1/4) ln pi]
  limit_sequence the defining limit term, optionally Richardson-accelerated

All closed-form constants are assembled from ln 2 and ln pi at import time,
never as decimal literals.  The frozen reference value of ln A was produced
by two disjoint routes (Richardson-extrapolated limit sequence at
n = 200/400/800 and compactified quadrature of the classical integral at
tol 1e-13); construct_reference() reruns that procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import specfun
from .integrands import (
    binet_integrand,
    get_integrand,
    lngamma_direct_integrand,
    malmsten_integrand,
)
from .quadrature import (
    DEFAULT_MAX_EVALS,
    TruncationPolicy,
    integrate_finite,
    integrate_semi_infinite,
)

__all__ = [
    "ConstantEstimate",
    "LN_A_REFERENCE",
    "METHODS",
    "ROUTES",
    "TOL_MIN",
    "TOL_MAX",
    "BINET_FIRST_INTEGRAL_CONSTANT",
    "BINET_SECOND_INTEGRAL_CONSTANT",
    "MALMSTEN_PREFIX",
    "ln_a",
    "ln_a_limit_sequence",
    "inner_tol",
    "identity_residual_eq4",
    "identity_suites",
    "construct_reference",
]

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

# int_0^{1/2} (x ln x - x) dx = -(1/8)(ln 2 + 3/2)
BINET_FIRST_INTEGRAL_CONSTANT = -(LN2 + 1.5) / 8.0
# int_0^{1/2} ln(2 pi x) dx = (1/2)(ln pi - 1)
BINET_SECOND_INTEGRAL_CONSTANT = 0.5 * (LNPI - 1.0)
# closed-form prefix of the Binet route
BINET_PREFIX = LN2 / 9.0 + 1.0 / 24.0
# closed-form prefix of the Malmsten route
MALMSTEN_PREFIX = 1.0 / 3.0 + 7.0 / 36.0 * LN2 - LNPI / 6.0
# constants of the shared definite-integral identity
EQ4_CONSTANT = -0.5 - 7.0 / 24.0 * LN2 + 0.25 * LNPI

# Frozen reference value of ln A (dual-path construction; see module docstring).
LN_A_REFERENCE = 0.2487544770337843

# Every integral route is ln A = offset + scale * int f, with f integrated
# to tol * tol_factor; tol_factor = 1/|scale| keeps the scaled error budget
# within tol.  Row: (integrand id, scale, offset, tol factor).
ROUTES = {
    "classical": ("classical", -2.0, 1.0 / 12.0, 0.5),
    "binet": ("binet_form13", 2.0 / 3.0, BINET_PREFIX, 1.5),
    "malmsten": ("malmsten_form19", 2.0 / 3.0, MALMSTEN_PREFIX, 1.5),
    "direct_lgamma": (
        "lngamma_direct",
        2.0 / 3.0,
        (2.0 / 3.0) * (0.5 + 7.0 / 24.0 * LN2 - 0.25 * LNPI),
        1.5,
    ),
}

METHODS = (*ROUTES, "limit_sequence")

# Accepted tolerance range of every route, the identity suites and the CLI.
TOL_MIN, TOL_MAX = 1e-13, 1e-3


@dataclass(frozen=True)
class ConstantEstimate:
    method: str
    ln_A: float
    discretization_error: float
    truncation_error: float
    evaluations: int
    converged: bool
    truncation_T: float = 0.0
    truncation_mode: str = "none"


def _check_tol(tol: float) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol {tol} outside [{TOL_MIN}, {TOL_MAX}]")


def inner_tol(tol: float) -> float:
    """The tolerance of the quadratures inside checks and sweeps at tol.

    tol / 10, but never below 1e-12.
    """
    return max(tol / 10.0, 1e-12)


def ln_a(
    method: str,
    tol: float = 1e-10,
    policy: Optional[TruncationPolicy] = None,
    max_evals: int = DEFAULT_MAX_EVALS,
    strict: bool = True,
) -> ConstantEstimate:
    """ln A by one integral route of ROUTES, with its error budget.

    policy and strict apply to the semi-infinite routes; the finite-interval
    route rejects a policy.  The limit sequence is ln_a_limit_sequence.
    """
    if method not in ROUTES:
        raise ValueError(f"unknown route {method!r}; known: {', '.join(ROUTES)}")
    _check_tol(tol)
    integrand_id, scale, offset, tol_factor = ROUTES[method]
    spec = get_integrand(integrand_id)
    if math.isinf(spec.domain_upper):
        res = integrate_semi_infinite(spec, tol * tol_factor, policy, max_evals, strict)
    elif policy is not None:
        raise ValueError(f"{method} integrates a finite interval; it takes no policy")
    else:
        res = integrate_finite(
            spec.eval, 0.0, spec.domain_upper, tol * tol_factor, None, max_evals
        )
    s = abs(scale)
    return ConstantEstimate(
        method=method,
        ln_A=offset + scale * res.value,
        discretization_error=s * (res.error_estimate - res.truncation_error),
        truncation_error=s * res.truncation_error,
        evaluations=res.evaluations,
        converged=res.converged,
        truncation_T=res.truncation_T,
        truncation_mode=res.truncation_mode,
    )


def ln_a_limit_sequence(n_max: int = 1000, richardson: bool = True) -> ConstantEstimate:
    """ln A from the defining limit sequence; no quadrature code involved.

    With richardson=True one extrapolation step in 1/n^2 is applied across
    (n_max/2, n_max); the step size |extrapolated - raw| is reported as the
    (certainly conservative) error estimate.
    """
    if not 1 <= n_max <= 100_000:
        raise ValueError(f"n_max {n_max} outside [1, 1e5]")
    raw = specfun.glaisher_seq_log_term(n_max)
    if richardson and n_max >= 2:
        half = specfun.glaisher_seq_log_term(n_max // 2)
        value = (4.0 * raw - half) / 3.0
        err = abs(value - raw)
        evals = n_max + n_max // 2
    else:
        value = raw
        # leading error is ~1/(240 n^2); double it for headroom
        err = 1.0 / (120.0 * n_max * n_max)
        evals = n_max
    return ConstantEstimate(
        method="limit_sequence",
        ln_A=value,
        discretization_error=err,
        truncation_error=0.0,
        evaluations=evals,
        converged=True,
    )


def identity_residual_eq4(tol: float = 1e-10) -> float:
    """LHS-minus-RHS residual of the shared definite-integral identity.

    LHS: direct quadrature of int_0^{1/2} ln Gamma(x+1) dx.
    RHS: the closed form -1/2 - (7/24) ln 2 + (1/4) ln pi + (3/2) ln A,
    with ln A taken from the Malmsten route at the same tolerance.
    """
    _check_tol(tol)
    lhs = integrate_finite(lngamma_direct_integrand, 0.0, 0.5, tol).value
    rhs = EQ4_CONSTANT + 1.5 * ln_a("malmsten", tol).ln_A
    return lhs - rhs


def identity_suites(tol: float = 1e-10) -> list[dict]:
    """Max residual per identity suite, with thresholds scaled to tol.

    Every quadrature inside a suite runs at inner_tol(tol).  The thresholds
    are set for tol = 1e-10 and scale linearly with it.
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

    r_eq4 = abs(identity_residual_eq4(inner))

    ts = [10.0 ** (-3.0 + 4.7 * i / 199.0) for i in range(200)]
    r_forms = 0.0
    for t in ts:
        b12 = binet_integrand(t, 12)
        b13 = binet_integrand(t, 13)
        m18 = malmsten_integrand(t, 18)
        m19 = malmsten_integrand(t, 19)
        r_forms = max(
            r_forms,
            abs(b12 - b13) / max(1.0, abs(b13)),
            abs(m18 - m19) / max(1.0, abs(m19)),
        )

    return [
        {"suite": "binet_identity", "max_residual": r_binet, "threshold": 1e-9 * scale},
        {"suite": "malmsten_vs_lgamma", "max_residual": r_malmsten, "threshold": 1e-9 * scale},
        {"suite": "eq4_identity", "max_residual": r_eq4, "threshold": 1e-9 * scale},
        {"suite": "form_equivalence", "max_residual": r_forms, "threshold": 1e-12 * scale},
    ]


def construct_reference() -> tuple[float, float]:
    """Recompute ln A by the two disjoint oracle-construction paths.

    Returns (sequence_path, quadrature_path): a two-level Richardson
    extrapolation in 1/n^2 of the limit sequence at n = 200, 400, 800, and
    1/12 - 2x the compactified classical integral at tol 1e-13.
    """
    t200 = specfun.glaisher_seq_log_term(200)
    t400 = specfun.glaisher_seq_log_term(400)
    t800 = specfun.glaisher_seq_log_term(800)
    r1 = (4.0 * t400 - t200) / 3.0
    r2 = (4.0 * t800 - t400) / 3.0
    seq_path = (16.0 * r2 - r1) / 15.0

    res = integrate_semi_infinite(
        get_integrand("classical"), 1e-13, TruncationPolicy.compactify(5.0)
    )
    quad_path = 1.0 / 12.0 - 2.0 * res.value
    return seq_path, quad_path
