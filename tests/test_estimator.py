import itertools
import math
import random
import sys

import pytest

from glaisher import estimator, quadrature
from glaisher.estimator import (
    BUDGET_RANGE,
    EQ4_CONSTANT,
    LN_A_REFERENCE,
    MALMSTEN_PREFIX,
    METHODS,
    N_MAX,
    ROUTES,
    TOL_MAX,
    TOL_MIN,
    ConstantEstimate,
    _FORM_TS,
    _limit_sequence_at,
    _seq_bar,
    construct_reference,
    cross_check,
    identity_suites,
    inner_tol,
    ln_a,
    ln_a_limit_sequence,
)
from glaisher.integrands import (
    SERIES_SWITCH_T,
    _binet12,
    _binet13,
    _malmsten18,
    _malmsten19,
    binet_integrand,
    get_integrand,
    lngamma_direct_integrand,
    malmsten_integrand,
)
from glaisher.quadrature import integrate, integrate_finite
from glaisher.specfun import binet_theta, glaisher_seq_log_term, malmsten_log_gamma


class TestClosedFormConstants:
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
        res = integrate(get_integrand("classical"), 1e-11)
        assert res.value == pytest.approx(-0.0827105719, abs=1e-9)

    def test_classical_monotone_cost(self):
        loose = ln_a("classical", 1e-3)
        tight = ln_a("classical", 1e-12)
        assert abs(loose.ln_A - LN_A_REFERENCE) <= 1e-3
        assert loose.evaluations < tight.evaluations

    def test_binet(self):
        est = ln_a("binet", 1e-9)
        assert est.converged
        assert est.truncation_mode == "compactify"
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-9

    def test_binet_intermediate_integral(self):
        res = integrate(get_integrand("binet_form13"), 1e-11)
        assert res.value == pytest.approx(0.1951071854, abs=1e-9)

    def test_binet_truncate_only_is_infeasible(self):
        est = ln_a("binet", 1e-9, 100.0)
        assert not est.converged
        assert est.truncation_error == pytest.approx((2.0 / 3.0) / (2.0 * 100.0))

    def test_lowest_tol_forced_truncation(self):
        # tol - trunc falls below the engine's tol range; the discretization
        # tol stays inside it and the result is flagged, not raised
        est = ln_a("classical", 1e-13, 5.0)
        assert not est.converged
        assert abs(est.ln_A - LN_A_REFERENCE) <= est.discretization_error + est.truncation_error

    def test_malmsten(self):
        est = ln_a("malmsten", 1e-11)
        assert est.converged
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-11

    def test_malmsten_intermediate_integral(self):
        res = integrate(get_integrand("malmsten_form19"), 1e-11)
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
        assert set(BUDGET_RANGE) == set(METHODS)
        with pytest.raises(ValueError):
            ln_a("direct_lgamma", 1e-9, 5.0)

    # lib_grid's n_max (None: the default cap, N_MAX) and tols
    @pytest.mark.parametrize("n_max", [None, 1, 5, 20, 1000, N_MAX])
    @pytest.mark.parametrize(
        "tol", [1e-13, 3e-13, 1e-12, 1e-11, 1e-10, 1e-9, 3e-8, 1e-6, 1e-4, 1e-3]
    )
    def test_limit_sequence_is_a_method(self, n_max, tol):
        est = ln_a("limit_sequence", tol, max_evals=n_max)
        expected = ln_a_limit_sequence(N_MAX if n_max is None else n_max, tol)
        assert est == expected
        assert est.ln_A.hex() == expected.ln_A.hex()

    @pytest.mark.parametrize("option", [{"truncate_at": 10.0}, {"panels": {}}])
    def test_limit_sequence_takes_no_route_option(self, option):
        # truncate_at is a route's option; panels is no option of ln_a at all.
        with pytest.raises(TypeError if "panels" in option else ValueError):
            ln_a("limit_sequence", 1e-10, **option)

    @pytest.mark.parametrize(
        "method, truncate_at",
        [
            ("malmsten", 3162.0),
            ("classical", 0.5),
            ("binet", 4.99),
            ("malmsten", 500.01),
            ("classical", math.nan),
            ("binet", math.inf),
        ],
    )
    def test_truncate_at_outside_the_contract(self, method, truncate_at):
        with pytest.raises(ValueError):
            ln_a(method, 1e-6, truncate_at)

    def test_tol_domain(self):
        with pytest.raises(ValueError):
            ln_a("classical", 1e-2)
        with pytest.raises(ValueError):
            ln_a("malmsten", 1e-14)

    @pytest.mark.parametrize("max_evals", [math.nan, 40.5])
    def test_budget_must_be_an_integer(self, max_evals):
        with pytest.raises(ValueError):
            ln_a("binet", 1e-10, max_evals=max_evals)


# 4 log-spaced tols per decade over the accepted range, both ends included.
SCAN_TOLS = [min(TOL_MAX, 10.0 ** (-13 + i / 4)) for i in range(41)]


class TestFirstPanel:
    """Every route's quadrature is K21, raised at most to the 87-point level."""

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_every_run_ends_within_the_87_point_level(self, route):
        # The automatic rule, and each forced T from the bottom of the range
        # to its top, at every tol: the tail map keeps each run on one panel.
        semi_infinite = math.isinf(get_integrand(ROUTES[route][0]).domain_upper)
        Ts = [None, 5.0, 25.0, 500.0] if semi_infinite else [None]
        evals = {ln_a(route, tol, T).evaluations for T in Ts for tol in SCAN_TOLS}
        assert evals <= {21, 43, 87}

    def test_classical_mean_cost(self):
        # The automatic rule's classical runs over SCAN_TOLS average 48.9
        # evaluations with the log singularity graded by s = e u^4; the
        # gradings s = e u^3 and e u^5 take 51.0 and 62.3.  Every run's bar
        # holds against mpmath.
        mpmath = pytest.importorskip("mpmath")
        runs = [ln_a("classical", tol) for tol in SCAN_TOLS]
        assert sum(run.evaluations for run in runs) / len(runs) <= 49.0
        with mpmath.workdps(40):
            truth = mpmath.log(mpmath.glaisher)
            for run in runs:
                assert abs(run.ln_A - truth) <= run.discretization_error + run.truncation_error

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6, 1e-3])
    def test_a_budget_past_the_last_level_changes_nothing(self, route, tol):
        runs = [ln_a(route, tol, max_evals=b) for b in (87, 88, 10_000, None)]
        assert all(run == runs[0] for run in runs)
        assert ln_a(route, tol, max_evals=21).evaluations == 21


SEQUENCE_TOLS = [10.0 ** (-13 + i / 20) for i in range(201)]
# Each bar in the accepted range (n = 2..19) and its two float neighbours.
TIE_TOLS = [
    tol
    for bar in map(_seq_bar, range(2, 20))
    for tol in (math.nextafter(bar, 0.0), bar, math.nextafter(bar, 1.0))
]


def _smallest_n_meeting(tol):
    return next(n for n in itertools.count(1) if _seq_bar(n) <= tol)


class TestLimitSequence:
    def test_corrected_first_term(self):
        # term(1) = ln(2 pi)/2 - 2/3, plus c_1 + c_2 + c_3.
        est = _limit_sequence_at(1, 1e-10)
        expected = 0.5 * math.log(2.0 * math.pi) - 2.0 / 3.0 - 1 / 240 + 1 / 1008 - 1 / 1440
        assert est.ln_A == pytest.approx(expected, abs=1e-15)
        assert abs(est.ln_A - LN_A_REFERENCE) <= est.discretization_error
        assert est.evaluations == 1
        assert not est.converged  # the bar, ~1.9e-3, exceeds every accepted tol

    def test_n100(self):
        assert abs(glaisher_seq_log_term(100) - LN_A_REFERENCE) <= 1e-4

    def test_corrected_200(self):
        est = _limit_sequence_at(200, 1e-10)
        assert abs(est.ln_A - LN_A_REFERENCE) <= 1e-15
        assert est.evaluations == 200

    def test_bar_at_n_max(self):
        # Twice the first omitted correction, ~2e-43, plus the rounding.
        assert _limit_sequence_at(N_MAX, 1e-10).discretization_error < 2e-16

    def test_corrections_match_an_mpmath_derivation(self):
        """c_k = B_{2k+2} / (4k(k+1)), each the float nearest it."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            derived = tuple(
                float(mpmath.bernoulli(2 * k + 2) / (4 * k * (k + 1))) for k in range(1, 5)
            )
        assert estimator._SEQ_CORRECTIONS == derived

    def test_converged_honours_tol(self):
        # The bar at n = 5 is ~4.8e-9: tol 1e-8 needs n = 5, and 1e-9 more
        # than the cap n_max = 5 allows.
        est = ln_a_limit_sequence(5, tol=1e-8)
        assert est.converged
        assert est == ln_a_limit_sequence(tol=1e-8)
        capped = ln_a_limit_sequence(5, tol=1e-9)
        assert capped.evaluations == 5
        assert not capped.converged
        for tol in (TOL_MIN / 2, TOL_MAX * 2):
            with pytest.raises(ValueError):
                ln_a_limit_sequence(1000, tol)

    def test_shares_no_quadrature(self):
        est = _limit_sequence_at(500, 1e-10)
        assert est.truncation_error == 0.0
        assert est.converged

    # The n the bar needs at five tols across the accepted range.
    @pytest.mark.parametrize(
        "tol, n", [(1e-3, 2), (1e-6, 3), (1e-10, 9), (1e-12, 15), (1e-13, 20)]
    )
    def test_n_from_tol(self, tol, n):
        est = ln_a_limit_sequence(tol=tol)
        assert est.evaluations == n
        assert est.converged
        assert est == _limit_sequence_at(n, tol)

    def test_n_is_the_smallest_whose_bar_meets_tol(self):
        assert len(TIE_TOLS) == 54
        assert all(TOL_MIN <= tol <= TOL_MAX for tol in TIE_TOLS)
        for tol in SEQUENCE_TOLS + TIE_TOLS:
            n = _smallest_n_meeting(tol)
            est = ln_a_limit_sequence(tol=tol)
            assert est.evaluations == n
            assert est.discretization_error <= tol
            assert est.converged
            assert n == 1 or _limit_sequence_at(n - 1, tol).discretization_error > tol
            for n_max in {1, max(n - 1, 1), n, N_MAX}:
                assert ln_a_limit_sequence(n_max, tol).evaluations == min(n, n_max)

    def test_bar_table(self):
        table = estimator._NEG_SEQ_BARS
        assert len(table) == 20
        assert [b.hex() for b in table] == [(-_seq_bar(n)).hex() for n in range(1, 21)]
        assert all(a < b for a, b in itertools.pairwise(table))
        assert -table[-1] <= TOL_MIN < -table[-2]

    def test_bar_and_correction_at_n_are_bit_for_bit(self):
        # The bar comes from the table up to n = 20 and from _seq_bar above;
        # the corrections' Horner sum is a loop's, highest k first.
        for n in [*range(1, 41), 1000, N_MAX]:
            x = 1.0 / (n * n)
            correction = 0.0
            for c in reversed(estimator._SEQ_CORRECTIONS[:3]):
                correction = (correction + c) * x
            est = _limit_sequence_at(n, 1e-10)
            assert est.discretization_error.hex() == _seq_bar(n).hex(), n
            assert est.ln_A.hex() == (glaisher_seq_log_term(n) + correction).hex(), n
            # The record is built without namedtuple's __new__; it must be
            # the one that constructor would build, defaults included.
            assert type(est) is ConstantEstimate
            assert len(est) == 8
            assert est == ConstantEstimate(
                est.method, est.ln_A, est.discretization_error, est.truncation_error,
                est.evaluations, est.converged,
            )

    def test_one_term_per_call(self, monkeypatch):
        calls = []
        term = estimator.specfun.glaisher_seq_log_term

        def counted(n):
            calls.append(n)
            return term(n)

        monkeypatch.setattr(estimator.specfun, "glaisher_seq_log_term", counted)
        for n_max in (1, 5, 20, 1000, N_MAX):
            for tol in SEQUENCE_TOLS[::20]:
                calls.clear()
                est = ln_a_limit_sequence(n_max, tol)
                assert calls == [est.evaluations]

    def test_domain(self):
        with pytest.raises(ValueError, match=r"^n_max 0 outside \[1, 100000\]$"):
            ln_a_limit_sequence(0)
        with pytest.raises(ValueError, match=r"^n_max 100001 outside \[1, 100000\]$"):
            ln_a_limit_sequence(N_MAX + 1)
        for n in (1000.5, 1000.0):
            with pytest.raises(ValueError):
                ln_a_limit_sequence(n)
            with pytest.raises(ValueError):
                glaisher_seq_log_term(n)


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

    @pytest.mark.parametrize("tol", [TOL_MIN, 1e-9, TOL_MAX])
    @pytest.mark.parametrize("max_evals", [None, 21, 64])
    def test_cross_check_runs_ln_a_on_every_route(self, tol, max_evals):
        estimates, spread, limit, ok = cross_check(tol, max_evals)
        expected = [ln_a(m, tol, max_evals=max_evals) for m in ROUTES]
        assert [repr(e) for e in estimates] == [repr(e) for e in expected]
        values = [e.ln_A for e in expected]
        assert spread == max(values) - min(values)
        assert limit == 4.0 * tol
        assert ok is (spread <= limit and all(e.converged for e in expected))

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
            pushed = ln_a(method, 1e-9, base.truncation_T * 1.5)
            slack = base.discretization_error + pushed.discretization_error
            assert abs(pushed.ln_A - base.ln_A) <= base.truncation_error + slack

    def test_discretization_error_is_the_engines_estimate(self, monkeypatch):
        # A seeded scan of the three semi-infinite routes, half automatic and
        # half with T forced log-uniform in [5, 500]: integrate returns the
        # engine's error_estimate as it is, and discretization_error is
        # |scale| times it plus the rounding of offset + scale * value, bit
        # for bit, however large the truncation error beside it.
        engine, route_integrate, runs = quadrature.integrate_finite, estimator.integrate, []

        def recorded(*args, **kwargs):
            runs.append(engine(*args, **kwargs))
            return runs[-1]

        def integrate_recorded(*args):
            runs.append(route_integrate(*args))
            return runs[-1]

        monkeypatch.setattr(quadrature, "integrate_finite", recorded)
        monkeypatch.setattr(estimator, "integrate", integrate_recorded)
        rng, truncated = random.Random(38), 0
        for i in range(300):
            method = rng.choice(["classical", "binet", "malmsten"])
            tol = 10.0 ** rng.uniform(-13.0, -3.0)
            truncate_at = None if i % 2 else 5.0 * 100.0 ** rng.random()
            max_evals = rng.choice([None, 21, 43, 87])
            del runs[:]
            est = ln_a(method, tol, truncate_at, max_evals)
            engine_run, route_run = runs
            assert route_run.error_estimate == engine_run.error_estimate
            assert route_run.value == engine_run.value
            _, scale, offset = ROUTES[method]
            rounding = sys.float_info.epsilon * (abs(offset) + abs(scale * engine_run.value))
            assert est.discretization_error == abs(scale) * engine_run.error_estimate + rounding
            truncated += est.truncation_mode == "truncate"
        assert truncated >= 150


def eq4_residual(tol):
    """Eq. (4)'s LHS minus its RHS with ln A from the Malmsten route.

    The direct_lgamma row is eq. (4) solved for ln A, so the residual is
    1.5 x that route's difference from the Malmsten route.
    """
    return 1.5 * (ln_a("direct_lgamma", tol).ln_A - ln_a("malmsten", tol).ln_A)


class TestEq4Identity:
    def test_residual_tight(self):
        assert abs(eq4_residual(1e-10)) <= 1e-9

    def test_residual_loose(self):
        assert abs(eq4_residual(1e-6)) <= 1e-5

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


class TestIdentitySuites:
    # Evaluations summed over the 12 special-function calls of
    # identity_suites (theta at 5 x, Malmsten at 7 z, each at inner_tol(tol))
    # on 101 log-spaced tols over [1e-13, 1e-3], pinned so that a change in
    # their cost shows up as an edit here.  The second list is what the
    # engine took when it bisected K21 panels only, before the first panel
    # was raised to Patterson's levels, and the third what the hand-derived
    # tail bounds, which the compactified tails replaced, took: each change
    # was never dearer.  Moving the tail map's scale from 10 to 5 (and
    # theta's to 10/max(1, x)) then saved up to 44 at 38 tols and cost 22 at
    # the 7 tols in [2.5e-8, 1e-7]: 413.4 evaluations on average, now 404.3.
    TOLS = [10.0 ** (-13 + i / 10) for i in range(101)]
    EVALS = (
        [516] * 20 + [472] * 36 + [450] * 5 + [428] * 2 + [384] + [362] * 2 + [296] * 5
        + [274] * 12 + [252] * 18
    )
    K21_EVALS = (
        [1008] * 11 + [966] + [924] + [882] * 3 + [840] * 9 + [798] * 11 + [756] * 3
        + [714] * 13 + [672] * 2 + [630] + [588] * 11 + [504] + [462] * 2 + [378] * 2
        + [336] * 12 + [294] * 18
    )
    BOUNDED_TAIL_EVALS = (
        [1386] * 12 + [1344] + [1302] * 12 + [1260] * 3 + [1218] + [1176] * 2
        + [1134] * 2 + [1092] * 2 + [1050] * 2 + [966] * 8 + [924] * 2 + [882] * 7
        + [840] * 3 + [798] * 3 + [756] + [714] + [630] * 7 + [588] * 3 + [546] * 6
        + [504] + [462] * 6 + [420] + [378] * 4 + [336] * 8 + [294] * 3
    )

    def test_form_equivalence_is_the_full_grid_maximum(self):
        # The suite compares the forms only from SERIES_SWITCH_T on; below it
        # both forms of a pair are one series, and their residual is 0.
        residuals = []
        for i in range(200):
            t = 10.0 ** (-3.0 + 4.7 * i / 199.0)
            b13, m19 = binet_integrand(t, 13), malmsten_integrand(t, 19)
            r = max(
                abs(binet_integrand(t, 12) - b13) / max(1.0, abs(b13)),
                abs(malmsten_integrand(t, 18) - m19) / max(1.0, abs(m19)),
            )
            assert t >= SERIES_SWITCH_T or r == 0.0
            residuals.append(r)
        suites = {s["suite"]: s for s in identity_suites(1e-10)[0]}
        assert suites["form_equivalence"]["max_residual"] == max(residuals)

    @pytest.mark.parametrize("form", [_binet12, _binet13, _malmsten18, _malmsten19])
    def test_every_form_is_below_one_24th_on_the_grid(self, form):
        # Why form_equivalence's absolute residual equals the relative one
        # above: max(1, |form|) is 1 at every point of the grid.
        assert all(abs(form(t)) < 1 / 24 for t in _FORM_TS)

    def test_special_function_evaluations(self):
        evals = []
        for tol in self.TOLS:
            inner = inner_tol(tol)
            n = sum(binet_theta(x, inner).evaluations for x in (0.25, 0.5, 1.0, 2.0, 5.0))
            n += sum(
                malmsten_log_gamma(z, inner).evaluations
                for z in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
            )
            evals.append(n)
        assert evals == self.EVALS
        ceilings = zip(evals, self.K21_EVALS, self.BOUNDED_TAIL_EVALS, strict=True)
        assert all(e <= k21 <= b for e, k21, b in ceilings)
