"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import pytest

from glaisher.bench import sweep_truncation
from glaisher.cli import main
from glaisher.estimator import LN_A_REFERENCE, construct_reference, ln_a
from glaisher.integrands import IntegrandSpec, binet_integrand, malmsten_integrand
from glaisher.quadrature import integrate, integrate_finite
from glaisher.specfun import binet_theta, log_gamma_plus_one, malmsten_log_gamma

PASS = "PASS"
FAIL = "FAIL"


def report(criterion, ok, detail):
    print(f"{PASS if ok else FAIL}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_dual_path_oracle():
    seq_path, quad_path = construct_reference()
    d_paths = abs(seq_path - quad_path)
    d_seq = abs(seq_path - LN_A_REFERENCE)
    d_quad = abs(quad_path - LN_A_REFERENCE)
    ok = d_paths <= 1e-11 and d_seq <= 1e-11 and d_quad <= 1e-11
    report(1, ok, f"paths differ by {d_paths:.2e}, vs frozen "
                  f"{d_seq:.2e}/{d_quad:.2e} (limits 1e-11)")


def test_criterion_2_four_way_agreement():
    values = {
        "classical": ln_a("classical", 1e-9).ln_A,
        "binet": ln_a("binet", 1e-9).ln_A,
        "malmsten": ln_a("malmsten", 1e-9).ln_A,
        "direct_lgamma": ln_a("direct_lgamma", 1e-9).ln_A,
    }
    spread = max(values.values()) - min(values.values())
    worst = max(abs(v - LN_A_REFERENCE) for v in values.values())
    ok = spread <= 4e-9 and worst <= 4e-9
    report(2, ok, f"spread {spread:.2e}, worst vs oracle {worst:.2e} (limit 4e-9)")


def test_criterion_3_definite_integral_identity():
    # The direct_lgamma route is eq. (4) solved for ln A, so eq. (4)'s LHS
    # minus its RHS, with ln A from the Malmsten route, is 1.5 x the routes'
    # difference.
    residual = 1.5 * (ln_a("direct_lgamma", 1e-10).ln_A - ln_a("malmsten", 1e-10).ln_A)
    ok = abs(residual) <= 1e-9
    report(3, ok, f"identity residual {residual:.2e} (limit 1e-9)")


def test_criterion_4_binet_identity():
    worst = 0.0
    for x in (0.25, 0.5, 1.0, 2.0, 5.0):
        theta = binet_theta(x, 1e-11).value
        rhs = x * math.log(x) - x + 0.5 * math.log(2.0 * math.pi * x) + theta
        worst = max(worst, abs(log_gamma_plus_one(x) - rhs))
    spot = abs(binet_theta(0.5, 1e-11).value - 0.1534264098)
    ok = worst <= 1e-9 and spot <= 1e-8
    report(4, ok, f"max identity residual {worst:.2e} (limit 1e-9), "
                  f"theta(0.5) off by {spot:.2e} (limit 1e-8)")


def test_criterion_5_malmsten_formula():
    worst = max(
        abs(malmsten_log_gamma(z, 1e-11).value - log_gamma_plus_one(z))
        for z in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    )
    ok = worst <= 1e-9
    report(5, ok, f"max |malmsten - lgamma| {worst:.2e} (limit 1e-9)")


def test_criterion_6_form_equivalence():
    worst = 0.0
    lo, hi = math.log10(1e-3), math.log10(50.0)
    for i in range(1000):
        t = 10.0 ** (lo + (hi - lo) * i / 999.0)
        b12, b13 = binet_integrand(t, 12), binet_integrand(t, 13)
        m18, m19 = malmsten_integrand(t, 18), malmsten_integrand(t, 19)
        worst = max(
            worst,
            abs(b12 - b13) / max(1.0, abs(b13)),
            abs(m18 - m19) / max(1.0, abs(m19)),
        )
    lim_b = abs(binet_integrand(1e-9, 13) - 1.0 / 24.0)
    lim_m = abs(malmsten_integrand(1e-9, 19) - (-1.0 / 24.0))
    ok = worst <= 1e-12 and lim_b <= 1e-10 and lim_m <= 1e-10
    report(6, ok, f"worst form mismatch {worst:.2e} (limit 1e-12), "
                  f"near-zero limits off by {lim_b:.2e}/{lim_m:.2e} (limit 1e-10)")


def test_criterion_7_convergence_claim():
    binet = sweep_truncation("binet", [25.0, 50.0, 100.0, 200.0], tol=1e-12)
    e100 = next(r.abs_error for r in binet if r.truncation_T == 100.0)
    within_factor_2 = 3.3e-3 / 2.0 <= e100 <= 3.3e-3 * 2.0

    xs = [1.0 / r.truncation_T for r in binet]
    ys = [r.abs_error for r in binet]
    slope = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    slope_ok = abs(slope - 1.0 / 3.0) <= 0.25 / 3.0

    b40 = sweep_truncation("binet", [40.0], tol=1e-12)[0].abs_error
    m40 = sweep_truncation("malmsten", [40.0], tol=1e-12)[0].abs_error
    malm_ok = m40 <= 1e-12 and m40 <= 1e-6 * b40

    ok = within_factor_2 and slope_ok and malm_ok
    report(7, ok, f"binet err(T=100)={e100:.2e} (target ~3.3e-3), 1/T slope "
                  f"{slope:.3f} (target 1/3 +-25%), malmsten err(T=40)={m40:.2e} "
                  f"vs binet {b40:.2e}")


def test_criterion_8_quadrature_unit_suite():
    r1 = integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12)
    r2 = integrate(
        IntegrandSpec(eval=math.log, log_singular_at_zero=True, domain_upper=1.0), 1e-10
    )
    toy = IntegrandSpec(
        eval=lambda t: math.exp(-t),
        tail_bound=lambda T: math.exp(-T),
    )
    r3 = integrate(toy, 1e-12)
    basics = (
        abs(r1.value - 1.0 / 3.0) <= 1e-12
        and abs(r2.value + 1.0) <= 1e-10
        and abs(r3.value - 1.0) <= 1e-12
    )
    honesty_cases = [
        (r1, 1.0 / 3.0),
        (r2, -1.0),
        (r3, 1.0),
        (integrate(get_classical(), 1e-12), -0.08271057185022546),
        (integrate(get_binet(), 1e-11), 0.19510718545735218),
        (integrate(get_malmsten(), 1e-12), -0.042853740650290945),
    ]
    honesty = all(
        res.converged
        and abs(res.value - truth) <= 10.0 * max(res.error_estimate + res.truncation_error, 1e-16)
        for res, truth in honesty_cases
    )
    ok = basics and honesty
    report(8, ok, f"unit integrals ok={basics}, error-estimate honesty "
                  f"(factor <= 10) ok={honesty}")


def get_classical():
    from glaisher.integrands import get_integrand
    return get_integrand("classical")


def get_binet():
    from glaisher.integrands import get_integrand
    return get_integrand("binet_form13")


def get_malmsten():
    from glaisher.integrands import get_integrand
    return get_integrand("malmsten_form19")


def test_criterion_9_cli_contract(capsys, tmp_path):
    code = main(["compare", "--tol", "1e-9", "--format", "json"])
    out1 = capsys.readouterr().out
    import json as _json
    spread = _json.loads(out1)["max_spread"]
    compare_ok = code == 0 and spread <= 4e-9

    code = main(["convergence", "--T-list", "25,50", "--budgets", "64,128"])
    conv_out = capsys.readouterr().out
    header_ok = conv_out.splitlines()[0] == (
        "method,truncation_mode,truncation_T,node_budget,"
        "evaluations_used,abs_error,converged"
    )

    main(["compare", "--tol", "1e-9", "--format", "json"])
    out2 = capsys.readouterr().out
    main(["convergence", "--T-list", "25,50", "--budgets", "64,128"])
    conv_out2 = capsys.readouterr().out
    determinism_ok = out1 == out2 and conv_out == conv_out2

    ok = compare_ok and header_ok and determinism_ok
    report(9, ok, f"compare exit/spread ok={compare_ok}, CSV header ok={header_ok}, "
                  f"byte-identical reruns ok={determinism_ok}")
