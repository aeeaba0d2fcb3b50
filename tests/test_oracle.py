"""Every integral route's error budget, checked against an mpmath oracle.

mpmath computes ln A independently of this package (from its own Glaisher
constant at 40 digits); it is a test-only dependency.  A hypothesis test
checks over (route, tol, policy, budget) that every evaluation budget is a
hard cap and that every reported bound holds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaisher.estimator import ROUTES, TOL_MAX, TOL_MIN, ln_a
from glaisher.integrands import get_integrand
from glaisher.quadrature import PANEL_EVALS, TruncationPolicy

mpmath = pytest.importorskip("mpmath")

with mpmath.workdps(40):
    LN_A = float(mpmath.log(mpmath.glaisher))

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
    _assert_budget_holds(ln_a("binet", tol, TruncationPolicy("compactify", T)), tol)


@pytest.mark.parametrize(
    "route, tol, policy, max_evals",
    [
        # A budget of one panel over the whole compactified domain.
        ("classical", 1e-13, None, 31),
        # Truncated at T = 50 at a loose tolerance: few, wide panels.
        ("classical", 1e-3, TruncationPolicy("truncate", 50.0), 10_000),
        # A bound near the rounding of offset + scale * integral.
        ("malmsten", 1e-13, TruncationPolicy("truncate", 60.0), 10_000),
    ],
)
def test_error_budget_holds_where_a_panel_estimate_was_too_small(
    route, tol, policy, max_evals
):
    _assert_budget_holds(ln_a(route, tol, policy, max_evals), tol)


@st.composite
def _calls(draw):
    route = draw(st.sampled_from(list(ROUTES)))
    exponent = draw(st.floats(math.log10(TOL_MIN), math.log10(TOL_MAX)))
    tol = min(max(10.0**exponent, TOL_MIN), TOL_MAX)
    max_evals = draw(st.integers(PANEL_EVALS, 10_000))
    kind = draw(st.sampled_from(["auto", "compactify", "truncate"]))
    policy = None
    if route in SEMI_INFINITE and kind == "compactify":
        policy = TruncationPolicy("compactify", draw(st.floats(1.0, 100.0)))
    elif route in SEMI_INFINITE and kind == "truncate":
        policy = TruncationPolicy("truncate", draw(st.floats(5.0, 500.0)))
    return route, tol, policy, max_evals


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_calls())
def test_evaluation_budget_is_a_hard_cap(call):
    route, tol, policy, max_evals = call
    est = ln_a(route, tol, policy, max_evals)
    assert est.evaluations <= max_evals
    _assert_budget_holds(est, tol)
