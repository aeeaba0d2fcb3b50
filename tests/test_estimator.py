import math

import pytest

from glaisher.estimator import (
    BINET_FIRST_INTEGRAL_CONSTANT,
    BINET_SECOND_INTEGRAL_CONSTANT,
    EQ4_CONSTANT,
    LN_A_REFERENCE,
    MALMSTEN_PREFIX,
    METHODS,
    ROUTES,
    construct_reference,
    identity_residual_eq4,
    ln_a,
    ln_a_limit_sequence,
)
from glaisher.integrands import get_integrand, lngamma_direct_integrand
from glaisher.quadrature import (
    PolicyInfeasibleError,
    TruncationPolicy,
    integrate_finite,
    integrate_semi_infinite,
)


class TestClosedFormConstants:
    def test_first_binet_integral(self):
        # int_0^{1/2} (x ln x - x) dx = -(1/8)(ln 2 + 3/2)
        assert BINET_FIRST_INTEGRAL_CONSTANT == -(math.log(2.0) + 1.5) / 8.0
        assert BINET_FIRST_INTEGRAL_CONSTANT == pytest.approx(
            -0.27414339756999316, abs=1e-15
        )

    def test_second_binet_integral(self):
        assert BINET_SECOND_INTEGRAL_CONSTANT == 0.5 * (math.log(math.pi) - 1.0)

    def test_malmsten_prefix(self):
        # 1/3 + (7/36) ln 2 - (1/6) ln pi
        assert MALMSTEN_PREFIX == pytest.approx(0.2773236374673116, abs=1e-15)


class TestRoutes:
    def test_classical(self):
        est = ln_a("classical", 1e-10)
        assert est.converged
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-10
        assert est.discretization_error + est.truncation_error <= 1e-10

    def test_classical_intermediate_integral(self):
        res = integrate_semi_infinite(get_integrand("classical"), 1e-11)
        assert res.value == pytest.approx(-0.0827105719, abs=1e-9)

    def test_classical_monotone_cost(self):
        loose = ln_a("classical", 1e-4)
        tight = ln_a("classical", 1e-10)
        assert abs(loose.ln_A - LN_A_REFERENCE) <= 1e-4
        assert loose.evaluations < tight.evaluations

    def test_binet(self):
        est = ln_a("binet", 1e-9)
        assert est.converged
        assert est.truncation_mode == "compactify"
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-9

    def test_binet_intermediate_integral(self):
        res = integrate_semi_infinite(get_integrand("binet_form13"), 1e-11)
        assert res.value == pytest.approx(0.1951071854, abs=1e-9)

    def test_binet_truncate_only_is_infeasible(self):
        with pytest.raises(PolicyInfeasibleError):
            ln_a("binet", 1e-9, TruncationPolicy.truncate_at(100.0))

    def test_malmsten(self):
        est = ln_a("malmsten", 1e-11)
        assert est.converged
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-11

    def test_malmsten_intermediate_integral(self):
        res = integrate_semi_infinite(get_integrand("malmsten_form19"), 1e-11)
        assert res.value == pytest.approx(-0.0428537406, abs=1e-9)

    def test_direct_lgamma(self):
        est = ln_a("direct_lgamma", 1e-11)
        assert est.converged
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-11

    def test_direct_lgamma_intermediate(self):
        res = integrate_finite(lngamma_direct_integrand, 0.0, 0.5, 1e-11)
        assert res.value == pytest.approx(-0.0428537406, abs=1e-9)

    def test_direct_vs_malmsten_consistency(self):
        a = ln_a("direct_lgamma", 1e-10)
        b = ln_a("malmsten", 1e-10)
        budget = (
            a.discretization_error
            + a.truncation_error
            + b.discretization_error
            + b.truncation_error
        )
        assert abs(a.ln_A - b.ln_A) <= 2.0 * max(budget, 1e-14)

    def test_dispatch(self):
        assert ln_a("malmsten", 1e-9).method == "malmsten"
        with pytest.raises(ValueError):
            ln_a("nonsense")

    def test_route_table(self):
        assert METHODS == (*ROUTES, "limit_sequence")
        with pytest.raises(ValueError):
            ln_a("limit_sequence")
        with pytest.raises(ValueError):
            ln_a("direct_lgamma", 1e-9, TruncationPolicy.compactify(5.0))

    def test_tol_domain(self):
        with pytest.raises(ValueError):
            ln_a("classical", 1e-2)
        with pytest.raises(ValueError):
            ln_a("malmsten", 1e-14)


class TestLimitSequence:
    def test_raw_first_term(self):
        est = ln_a_limit_sequence(1, richardson=False)
        assert est.ln_A == pytest.approx(0.2522718665, abs=1e-9)

    def test_n100(self):
        est = ln_a_limit_sequence(100, richardson=False)
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-4

    def test_richardson_100_200(self):
        est = ln_a_limit_sequence(200)
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-7

    def test_shares_no_quadrature(self):
        est = ln_a_limit_sequence(500)
        assert est.truncation_error == 0.0
        assert est.converged

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_a_limit_sequence(0)


class TestCrossValidation:
    def test_four_way_agreement(self):
        values = [
            ln_a("classical", 1e-9).ln_A,
            ln_a("binet", 1e-9).ln_A,
            ln_a("malmsten", 1e-9).ln_A,
            ln_a("direct_lgamma", 1e-9).ln_A,
        ]
        assert max(values) - min(values) <= 4e-9
        for v in values:
            assert abs(v - LN_A_REFERENCE) <= 4e-9

    def test_reference_dual_construction(self):
        seq_path, quad_path = construct_reference()
        assert abs(seq_path - quad_path) <= 1e-11
        assert abs(seq_path - LN_A_REFERENCE) <= 1e-11
        assert abs(quad_path - LN_A_REFERENCE) <= 1e-11

    def test_error_budget_decomposition(self):
        # pushing the truncation point further out moves ln_A by no more
        # than the previously reported truncation error
        for method in ("classical", "malmsten"):
            base = ln_a(method, 1e-9)
            policy = TruncationPolicy.truncate_at(base.truncation_T * 1.5)
            pushed = ln_a(method, 1e-9, policy)
            slack = base.discretization_error + pushed.discretization_error
            assert abs(pushed.ln_A - base.ln_A) <= base.truncation_error + slack


class TestEq4Identity:
    def test_residual_tight(self):
        assert abs(identity_residual_eq4(1e-10)) <= 1e-9

    def test_residual_loose(self):
        assert abs(identity_residual_eq4(1e-6)) <= 1e-5

    def test_sensitivity_to_corrupted_constant(self):
        # rebuilding the RHS with 7/24 -> 7/25 must blow the residual up
        lhs = integrate_finite(lngamma_direct_integrand, 0.0, 0.5, 1e-10).value
        ln_a_val = ln_a("malmsten", 1e-10).ln_A
        corrupted = -0.5 - 7.0 / 25.0 * math.log(2.0) + 0.25 * math.log(math.pi)
        residual = lhs - (corrupted + 1.5 * ln_a_val)
        assert abs(residual) >= 1e-3

    def test_constant_assembly(self):
        assert EQ4_CONSTANT == pytest.approx(
            -0.5 - 7.0 / 24.0 * math.log(2.0) + 0.25 * math.log(math.pi), abs=0.0
        )
