"""The paper's claim that the Malmsten expression is easier to evaluate than
the Binet one, measured in the two regimes this library can run.

Truncated at T, the Binet route errs by its tail, which the integrand's
(t - 2)/(2 t^3) decay fixes at (2/3)(1/(2T) - 1/(2T^2)) = 1/(3T) - 1/(3T^2)
up to e^{-T/2} terms, while the Malmsten route's e^{-t} tail is gone by
T = 25: there the claim holds.  It holds under the automatic rule too, which
compactifies Binet's tail and truncates Malmsten's, both through the same
tail map: Malmsten never takes more evaluations than Binet, and fewer at 39
of 101 tols.
"""

import pytest

from glaisher.bench import sweep_truncation
from glaisher.estimator import ln_a

T_GRID = [25.0, 35.0, 50.0, 70.0, 100.0, 150.0, 200.0, 300.0, 500.0]


def test_truncated_binet_errs_by_its_two_term_tail():
    # tol 1e-11 is what `glaisher convergence --tol 1e-10` sweeps at.
    binet = sweep_truncation("binet", T_GRID, tol=1e-11)
    for rec in binet:
        T = rec.truncation_T
        assert rec.abs_error == pytest.approx(1 / (3 * T) - 1 / (3 * T * T), rel=1e-5), T
        assert not rec.converged
    # The bound separates the two-term tail from the one-term 1/(3T), 4% off
    # at T = 25.
    assert binet[0].abs_error != pytest.approx(1 / 75, rel=1e-5)
    malmsten = sweep_truncation("malmsten", T_GRID, tol=1e-11)
    assert all(rec.converged and rec.abs_error <= 2e-13 for rec in malmsten)


# 101 log-spaced tols over the accepted range [1e-13, 1e-3], and the
# evaluations each route's automatic rule takes at each, pinned so that a
# change in either route's cost shows up as an edit here.  Both routes meet
# every tol with K21 or its 43-point extension.  Binet takes 43 from 1e-13 up
# to 1e-9 and Malmsten only at 1e-13 and 1.26e-13.
TOLS = [10.0 ** (-13 + i / 10) for i in range(101)]
BINET_EVALS = [43] * 41 + [21] * 60
MALMSTEN_EVALS = [43] * 2 + [21] * 99


def test_malmsten_is_never_dearer_than_compactified_binet():
    binet = [ln_a("binet", tol).evaluations for tol in TOLS]
    malmsten = [ln_a("malmsten", tol).evaluations for tol in TOLS]
    assert binet == BINET_EVALS
    assert malmsten == MALMSTEN_EVALS
    assert all(m <= b for b, m in zip(binet, malmsten, strict=True))
    assert sum(m < b for b, m in zip(binet, malmsten, strict=True)) == 39
