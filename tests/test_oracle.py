"""Every route's error budget, checked against an mpmath oracle.

mpmath computes ln A independently of this package (from its own Glaisher
constant at 40 digits); it is a test-only dependency.  A hypothesis test
checks over (route, tol, truncate_at, budget) that every evaluation budget
is a hard cap and that every reported bound holds; the limit sequence's
bound is checked at every n up to 1000 and on a grid up to N_MAX.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaisher.estimator import N_MAX, ROUTES, TOL_MAX, TOL_MIN, ln_a, ln_a_limit_sequence
from glaisher.integrands import get_integrand
from glaisher.quadrature import (
    PANEL_EVALS,
    TRUNCATE_AT_MAX,
    TRUNCATE_AT_MIN,
    _compactified,
    integrate_finite,
)

mpmath = pytest.importorskip("mpmath")

with mpmath.workdps(40):
    LN_A = float(mpmath.log(mpmath.glaisher))
    # The Binet route's integral: ln A = ln 2 / 9 + 1/24 + (2/3) I_BINET.
    I_BINET = float(
        (mpmath.log(mpmath.glaisher) - mpmath.log(2) / 9 - mpmath.mpf(1) / 24) * 3 / 2
    )

# 1, 2, 5 per decade across the accepted range, both ends included.
TOLS = [
    float(f"{m}e{e}")
    for e in range(round(math.log10(TOL_MIN)), round(math.log10(TOL_MAX)))
    for m in (1, 2, 5)
] + [TOL_MAX]

SEMI_INFINITE = [r for r in ROUTES if math.isinf(get_integrand(ROUTES[r][0]).domain_upper)]


def test_grid_spans_the_accepted_range():
    assert TOLS[0] == TOL_MIN and TOLS[-1] == TOL_MAX


def _assert_budget_holds(est, tol):
    budget = est.discretization_error + est.truncation_error
    assert abs(est.ln_A - LN_A) <= budget
    if est.converged:
        assert budget <= tol


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("route", list(ROUTES))
def test_error_budget_holds(route, tol):
    _assert_budget_holds(ln_a(route, tol), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("T", [1.0, 3.0, 10.0, 30.0, 100.0])
def test_error_budget_holds_binet_compactified(T, tol):
    # The automatic rule compactifies Binet's tail at T = 10; the engine's
    # bar on the mapped integrand must hold at every scale T.
    f = _compactified(get_integrand(ROUTES["binet"][0]).eval, T)
    res = integrate_finite(f, 0.0, 1.0, tol)
    assert abs(res.value - I_BINET) <= res.error_estimate
    if res.converged:
        assert res.error_estimate <= tol


@pytest.mark.parametrize(
    "route, tol, truncate_at, max_evals",
    [
        # A budget of one panel over the whole truncated domain.
        ("classical", 1e-13, None, 31),
        # Truncated at T = 50 at a loose tolerance: few, wide panels.
        ("classical", 1e-3, 50.0, 10_000),
        # A bound near the rounding of offset + scale * integral.
        ("malmsten", 1e-13, 60.0, 10_000),
    ],
)
def test_error_budget_holds_where_a_panel_estimate_was_too_small(
    route, tol, truncate_at, max_evals
):
    _assert_budget_holds(ln_a(route, tol, truncate_at, max_evals), tol)


def test_limit_sequence_bar_holds():
    # Every n up to 1000 (the bar is tightest at n = 3, where the error is
    # 0.56 of it), 200 log-spaced n in [1e3, 1e5], and three n at the top.
    ns = set(range(1, 1001)) | {round(1e3 * 100.0 ** (i / 199)) for i in range(200)}
    ns |= {77777, 99991, N_MAX}
    misses = []
    for n in sorted(ns):
        est = ln_a_limit_sequence(n)
        if not abs(est.ln_A - LN_A) <= est.discretization_error + est.truncation_error:
            misses.append(n)
    assert not misses


@st.composite
def _calls(draw):
    route = draw(st.sampled_from(list(ROUTES)))
    exponent = draw(st.floats(math.log10(TOL_MIN), math.log10(TOL_MAX)))
    tol = min(max(10.0**exponent, TOL_MIN), TOL_MAX)
    max_evals = draw(st.integers(PANEL_EVALS, 10_000))
    kind = draw(st.sampled_from(["auto", "truncate"]))
    truncate_at = None
    if route in SEMI_INFINITE and kind == "truncate":
        truncate_at = draw(st.floats(TRUNCATE_AT_MIN, TRUNCATE_AT_MAX))
    return route, tol, truncate_at, max_evals


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_calls())
def test_evaluation_budget_is_a_hard_cap(call):
    route, tol, truncate_at, max_evals = call
    est = ln_a(route, tol, truncate_at, max_evals)
    assert est.evaluations <= max_evals
    _assert_budget_holds(est, tol)
