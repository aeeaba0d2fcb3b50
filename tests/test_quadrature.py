import math

import pytest

from glaisher.integrands import IntegrandSpec, TailClass, get_integrand
from glaisher.quadrature import (
    EvaluationFailedError,
    PolicyInfeasibleError,
    TruncationPolicy,
    integrate_finite,
    integrate_semi_infinite,
)


def _exp_spec():
    return IntegrandSpec(
        id="exp_toy",
        eval=lambda t: math.exp(-t),
        limit_at_zero=1.0,
        log_singular_at_zero=False,
        tail_class=TailClass("exponential", rate=1.0),
        tail_bound=lambda T: math.exp(-T),
    )


@pytest.mark.parametrize("k", range(9))
def test_polynomials_exact(k):
    res = integrate_finite(lambda x: x**k, 0.0, 1.0, 1e-13)
    assert res.converged
    assert abs(res.value - 1.0 / (k + 1)) <= 1e-13


def test_x_squared():
    res = integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert abs(res.value - 1.0 / 3.0) <= 1e-12


def test_log_singular_endpoint():
    res = integrate_finite(math.log, 0.0, 1.0, 1e-10, "log_singular_at_a")
    assert res.converged
    assert abs(res.value - (-1.0)) <= 1e-10


def test_exponential_tail_toy():
    res = integrate_semi_infinite(_exp_spec(), 1e-12)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-12
    assert res.truncation_mode == "truncate"
    assert res.truncation_error <= 1e-13


def test_error_estimate_honesty():
    # true error <= 10x the reported estimate whenever converged
    cases = [
        (integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12), 1.0 / 3.0),
        (integrate_finite(math.log, 0.0, 1.0, 1e-10, "log_singular_at_a"), -1.0),
        (integrate_semi_infinite(_exp_spec(), 1e-12), 1.0),
        (integrate_semi_infinite(get_integrand("classical"), 1e-12), -0.08271057185022546),
        (integrate_semi_infinite(get_integrand("binet_form13"), 1e-11), 0.19510718545735218),
        (integrate_semi_infinite(get_integrand("malmsten_form19"), 1e-12), -0.042853740650290945),
    ]
    for res, truth in cases:
        assert res.converged
        assert abs(res.value - truth) <= 10.0 * max(res.error_estimate, 1e-16)


def test_monotone_cost():
    f = get_integrand("malmsten_form19")
    evals = []
    tol = 1e-6
    while tol >= 1e-12:
        evals.append(integrate_semi_infinite(f, tol).evaluations)
        tol /= 2.0
    assert all(b >= a for a, b in zip(evals, evals[1:]))


def test_compactification_agreement():
    spec = get_integrand("binet_form13")
    a = integrate_semi_infinite(spec, 1e-11, TruncationPolicy.compactify(10.0))
    b = integrate_semi_infinite(spec, 1e-11, TruncationPolicy.compactify(50.0))
    assert abs(a.value - b.value) <= 1e-10


def test_semi_infinite_examples():
    spec = get_integrand("malmsten_form19")
    res = integrate_semi_infinite(spec, 1e-11)
    assert abs(res.value - (-0.0428537406)) <= 1e-9

    spec = get_integrand("binet_form13")
    res = integrate_semi_infinite(spec, 1e-10)
    assert res.truncation_mode == "compactify"
    assert abs(res.value - 0.1951071854) <= 1e-9


def test_budget_exhaustion_flags_not_raises():
    spec = get_integrand("classical")
    res = integrate_semi_infinite(spec, 1e-12, max_evals=93, strict=False)
    assert not res.converged
    assert res.evaluations > 0


def test_nan_propagates_as_error():
    with pytest.raises(EvaluationFailedError):
        integrate_finite(lambda x: math.nan, 0.0, 1.0, 1e-8)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_value_is_an_error(value):
    with pytest.raises(EvaluationFailedError):
        integrate_finite(lambda x: value, 0.0, 1.0, 1e-8)


def test_policy_infeasible_for_algebraic_truncation():
    spec = get_integrand("binet_form13")
    with pytest.raises(PolicyInfeasibleError):
        integrate_semi_infinite(spec, 1e-9, TruncationPolicy.truncate_at(50.0))
    # non-strict mode records the pathology instead of raising
    res = integrate_semi_infinite(
        spec, 1e-9, TruncationPolicy.truncate_at(50.0), strict=False
    )
    assert not res.converged
    assert res.truncation_error == pytest.approx(1.0 / 100.0)


def test_result_invariants():
    res = integrate_finite(lambda x: x, 0.0, 1.0, 1e-10)
    assert res.evaluations > 0
    assert res.error_estimate >= 0.0
    assert res.truncation_error == 0.0


def test_bad_arguments():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        TruncationPolicy("truncate")
    with pytest.raises(ValueError):
        TruncationPolicy("nonsense", 1.0)
