"""Cross-validated computation of ln A, the log of the Glaisher-Kinkelin constant.

Four independent routes (a classical integral, a Binet-derived integral, a
Malmsten-derived integral, and direct quadrature of the ln-Gamma definite
integral) plus the defining limit sequence, with explicit error budgets and
convergence benchmarking of the Binet-vs-Malmsten tail behavior.
"""

from .estimator import (
    LN_A_REFERENCE,
    ConstantEstimate,
    construct_reference,
    identity_residual_eq4,
    identity_suites,
    ln_a,
    ln_a_limit_sequence,
)
from .integrands import (
    IntegrandSpec,
    TailClass,
    binet_integrand,
    classical_integrand,
    get_integrand,
    lngamma_direct_integrand,
    malmsten_integrand,
    tail_bound,
)
from .quadrature import (
    EvaluationFailedError,
    PolicyInfeasibleError,
    QuadratureError,
    QuadratureResult,
    TruncationPolicy,
    integrate_finite,
    integrate_semi_infinite,
)
from .specfun import (
    barnes_g_log,
    binet_theta,
    glaisher_seq_log_term,
    log_gamma_plus_one,
    malmsten_log_gamma,
)

__version__ = "0.1.0"
