"""Every integral route's error budget, checked against an mpmath oracle.

mpmath computes ln A independently of this package (from its own Glaisher
constant at 40 digits); it is a test-only dependency.
"""

import math

import pytest

from glaisher.estimator import ROUTES, TOL_MAX, TOL_MIN, ln_a

mpmath = pytest.importorskip("mpmath")

with mpmath.workdps(40):
    LN_A = float(mpmath.log(mpmath.glaisher))

# 1, 2, 5 per decade across the accepted range, both ends included.
TOLS = [
    float(f"{m}e{e}")
    for e in range(round(math.log10(TOL_MIN)), round(math.log10(TOL_MAX)))
    for m in (1, 2, 5)
] + [TOL_MAX]


def test_grid_spans_the_accepted_range():
    assert TOLS[0] == TOL_MIN and TOLS[-1] == TOL_MAX


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("route", list(ROUTES))
def test_error_budget_holds(route, tol):
    est = ln_a(route, tol)
    budget = est.discretization_error + est.truncation_error
    assert abs(est.ln_A - LN_A) <= budget
    if est.converged:
        assert budget <= tol
