import math

import pytest

from glaisher import quadrature
from glaisher.integrands import IntegrandSpec, get_integrand
from glaisher.quadrature import (
    PANEL_EVALS,
    TRUNCATE_AT_MAX,
    TRUNCATE_AT_MIN,
    EvaluationFailedError,
    integrate,
    integrate_finite,
)


def _exp_spec():
    return IntegrandSpec(
        eval=lambda t: math.exp(-t),
        tail_bound=lambda T: math.exp(-T),
    )


def _log_spec():
    return IntegrandSpec(eval=math.log, log_singular_at_zero=True, domain_upper=1.0)


def test_kronrod_constants_match_an_mpmath_derivation():
    """Rederive the G10/K21 rule at 60 digits; the frozen floats are its rounding."""
    mpmath = pytest.importorskip("mpmath")

    def moment(k):  # int x^k on [-1, 1]
        return 0 if k % 2 else mpmath.mpf(2) / (k + 1)

    def solve_moments(xs):
        """Weights integrating x^k exactly on [-1, 1] for k < len(xs)."""
        vandermonde = mpmath.matrix([[x**k for x in xs] for k in range(len(xs))])
        moments = mpmath.matrix([moment(k) for k in range(len(xs))])
        return list(mpmath.lu_solve(vandermonde, moments))

    def real_roots(coeffs):
        """Roots of sum c_k x^k, given c_0 first."""
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        return [mpmath.re(r) for r in roots]

    with mpmath.workdps(60):
        p10 = mpmath.taylor(lambda x: mpmath.legendre(10, x), 0, 10)
        gauss = sorted(real_roots(p10))
        wg = solve_moments(gauss)
        # The Stieltjes polynomial E11 = x^11 + sum c_m x^m over odd m is
        # orthogonal to P10 x^k for odd k <= 9 (even k hold by parity).
        odd = range(1, 11, 2)

        def inner(k):  # int P10 x^k on [-1, 1]
            return mpmath.fsum(c * moment(k + j) for j, c in enumerate(p10))

        c = mpmath.lu_solve(
            mpmath.matrix([[inner(k + m) for m in odd] for k in odd]),
            mpmath.matrix([-inner(k + 11) for k in odd]),
        )
        # E11 = x q(x^2): its roots are 0 and the square roots of q's.
        ys = real_roots([*c, 1])
        stieltjes = [mpmath.mpf(0)] + [s * mpmath.sqrt(y) for y in ys for s in (-1, 1)]
        xk = sorted(gauss + stieltjes)
        wk = solve_moments(xk)

    assert tuple(map(float, xk)) == quadrature._XK
    assert tuple(map(float, wk)) == quadrature._WK
    assert tuple(map(float, wg)) == quadrature._WG
    assert quadrature._XK[quadrature._GAUSS] == tuple(map(float, gauss))
    # QUADPACK qk21's published xgk(1) and wgk(1).
    assert quadrature._XK[-1] == 0.9956571630258081
    assert quadrature._WK[-1] == 0.011694638867371874
    assert PANEL_EVALS == 21


@pytest.mark.parametrize("k", range(9))
def test_polynomials_exact(k):
    res = integrate_finite(lambda x: x**k, 0.0, 1.0, 1e-13)
    assert res.converged
    assert abs(res.value - 1.0 / (k + 1)) <= 1e-13


def test_x_squared():
    res = integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert abs(res.value - 1.0 / 3.0) <= 1e-12


def test_log_singular_endpoint():
    res = integrate(_log_spec(), 1e-10)
    assert res.converged
    assert abs(res.value - (-1.0)) <= 1e-10


def test_exponential_tail_toy():
    res = integrate(_exp_spec(), 1e-12)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-12
    assert res.truncation_mode == "truncate"
    assert res.truncation_error <= 1e-13


def test_error_estimate_honesty():
    # true error <= 10x the reported estimate whenever converged
    cases = [
        (integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12), 1.0 / 3.0),
        (integrate(_log_spec(), 1e-10), -1.0),
        (integrate(_exp_spec(), 1e-12), 1.0),
        (integrate(get_integrand("classical"), 1e-12), -0.08271057185022546),
        (integrate(get_integrand("binet_form13"), 1e-11), 0.19510718545735218),
        (integrate(get_integrand("malmsten_form19"), 1e-12), -0.042853740650290945),
    ]
    for res, truth in cases:
        assert res.converged
        assert abs(res.value - truth) <= 10.0 * max(res.error_estimate, 1e-16)


def test_monotone_cost():
    f = get_integrand("malmsten_form19")
    evals = []
    tol = 1e-6
    while tol >= 1e-12:
        evals.append(integrate(f, tol).evaluations)
        tol /= 2.0
    assert all(b >= a for a, b in zip(evals, evals[1:]))


def test_automatic_rule_reads_the_tail_bound():
    # A bound of 1/T misses tol/10 on the whole ladder: compactified at T = 10.
    algebraic = IntegrandSpec(
        eval=lambda t: 1.0 / (1.0 + t) ** 2,
        tail_bound=lambda T: 1.0 / T,
    )
    res = integrate(algebraic, 1e-8)
    assert (res.truncation_mode, res.truncation_T) == ("compactify", 10.0)
    assert res.truncation_error == 0.0
    assert res.converged and abs(res.value - 1.0) <= 1e-8
    # A bound of e^{-T} first meets 1e-9 on the ladder 5 * 1.25^k at k = 7.
    assert math.exp(-5.0 * 1.25**6) > 1e-9 >= math.exp(-5.0 * 1.25**7)
    res = integrate(_exp_spec(), 1e-8)
    assert (res.truncation_mode, res.truncation_T) == ("truncate", 5.0 * 1.25**7)
    assert res.truncation_error == math.exp(-5.0 * 1.25**7)


def test_compactification_agreement():
    # The automatic rule maps Binet's tail at T = 10; any other scale agrees.
    f = get_integrand("binet_form13").eval
    a, b = (
        integrate_finite(quadrature._compactified(f, T), 0.0, 1.0, 1e-11) for T in (10.0, 50.0)
    )
    assert abs(a.value - b.value) <= 1e-10


def test_semi_infinite_examples():
    spec = get_integrand("malmsten_form19")
    res = integrate(spec, 1e-11)
    assert abs(res.value - (-0.0428537406)) <= 1e-9

    spec = get_integrand("binet_form13")
    res = integrate(spec, 1e-10)
    assert res.truncation_mode == "compactify"
    assert abs(res.value - 0.1951071854) <= 1e-9


def test_budget_exhaustion_flags_not_raises():
    spec = get_integrand("classical")
    res = integrate(spec, 1e-12, max_evals=93)
    assert not res.converged
    assert res.evaluations > 0


def test_budget_below_one_panel_is_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, 1e-8, max_evals=PANEL_EVALS - 1)


@pytest.mark.parametrize(
    "spec_id, truncate_at",
    [
        ("binet_form13", None),
        ("classical", None),
        ("malmsten_form19", 30.0),
        ("lngamma_direct", None),
    ],
)
def test_one_finite_integral(monkeypatch, spec_id, truncate_at):
    calls = []
    real = quadrature.integrate_finite

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_finite", counting)
    spec = get_integrand(spec_id)
    res = integrate(spec, 1e-10, truncate_at)
    if spec.log_singular_at_zero:
        upper = 1.0  # x = b u^5 on u in (0, 1]
    elif res.truncation_mode == "compactify":
        upper = 1.0
    elif res.truncation_mode == "truncate":
        upper = res.truncation_T
    else:
        upper = spec.domain_upper
    assert calls == [(0.0, upper)]


def test_finite_domain_spec():
    spec = get_integrand("lngamma_direct")
    res = integrate(spec, 1e-8)
    ref = integrate_finite(spec.eval, 0.0, 0.5, 1e-8)
    assert (res.value, res.error_estimate, res.evaluations) == (
        ref.value,
        ref.error_estimate,
        ref.evaluations,
    )
    assert (res.truncation_mode, res.truncation_T, res.truncation_error) == ("none", 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(spec, 1e-8, 5.0)


def test_algebraic_bound_is_read_once_before_compactifying():
    reads = []

    def bound(T):
        reads.append(T)
        return 1.0 / (2.0 * T)

    spec = IntegrandSpec(eval=lambda t: 1.0 / (1.0 + t) ** 2, tail_bound=bound)
    res = integrate(spec, 1e-8)
    assert (res.truncation_mode, res.truncation_T) == ("compactify", 10.0)
    assert len(reads) == 1


def test_nan_propagates_as_error():
    with pytest.raises(EvaluationFailedError):
        integrate_finite(lambda x: math.nan, 0.0, 1.0, 1e-8)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_value_is_an_error(value):
    with pytest.raises(EvaluationFailedError):
        integrate_finite(lambda x: value, 0.0, 1.0, 1e-8)


def test_panel_memo_keeps_no_failed_panel():
    # The root panel's smallest node is 0.0022; the left child's is 0.0011.
    def f(x):
        return math.nan if x < 0.002 else math.sqrt(x)

    panels = {}
    for _ in range(2):
        with pytest.raises(EvaluationFailedError):
            integrate_finite(f, 0.0, 1.0, 1e-10, panels=panels)
        assert list(panels) == [(0.0, 1.0)]


def test_panel_memo_changes_no_result():
    spec = get_integrand("malmsten_form19")
    panels = {}
    for tol in (1e-6, 1e-12, 1e-9):
        for truncate_at in (None, 20.0, 40.0):
            for max_evals in (63, 10_000):
                ref = integrate(spec, tol, truncate_at, max_evals)
                assert integrate(spec, tol, truncate_at, max_evals, panels=panels) == ref
    # Truncation keeps the integrand; the automatic rule truncates here too.
    assert list(panels) == [(spec.eval, None, None)]


def test_policy_infeasible_for_algebraic_truncation():
    spec = get_integrand("binet_form13")
    # the pathology is recorded, with the tail bound, instead of raising
    res = integrate(spec, 1e-9, 50.0)
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
        integrate_finite(lambda x: x, 0.0, math.inf, 1e-10)


@pytest.mark.parametrize(
    "spec_id, truncate_at",
    [
        # The first panel over [0, 3162] sees Malmsten's f as 0: K21 = G10.
        ("malmsten_form19", 3162.0),
        # The classical tail bound holds for T >= 1 only.
        ("classical", 0.5),
        ("binet_form13", 4.99),
        ("malmsten_form19", 500.01),
        ("classical", math.nan),
        ("binet_form13", math.inf),
    ],
)
def test_truncate_at_outside_the_contract_is_rejected(spec_id, truncate_at):
    with pytest.raises(ValueError, match="truncate_at"):
        integrate(get_integrand(spec_id), 1e-6, truncate_at)


def test_truncate_at_range_ends_are_accepted():
    assert (TRUNCATE_AT_MIN, TRUNCATE_AT_MAX) == (5.0, 500.0)
    for T in (TRUNCATE_AT_MIN, TRUNCATE_AT_MAX):
        res = integrate(get_integrand("malmsten_form19"), 1e-6, T)
        assert (res.truncation_mode, res.truncation_T) == ("truncate", T)
