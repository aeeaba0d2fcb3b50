"""Every route's error budget, checked against an mpmath oracle.

mpmath computes ln A independently of this package (from its own Glaisher
constant at 40 digits); it is a test-only dependency.

Enumerated: the automatic rule's results.  Each is fixed by its truncation
rung (one of the 21 a caller may force, or the compactified tail) and its
quadrature level, so every accepted (tol, budget) returns one of the results
of 201 forced runs at TOL_MIN, whose bars are checked against mpmath at 50
digits.  A sample of (tol, budget) checks that claim, that every budget is a
hard cap and that a converged bar is within tol.  The limit sequence's bar,
and the Barnes G remainder bound it rests on, are checked at every n up to
1000, past any n a tol selects.

Still sampled, since their inputs are continuous: a forced truncate_at (any
T in [5, 500]; a hypothesis test over (route, tol, truncate_at, budget) and
three T at every level edge), the engine's bar on the two mapped integrands
(Binet's compactified tail at other scales, and the classical route's
truncated tail map with its log singularity graded), specfun's binet_theta(x)
and malmsten_log_gamma(z), whose tails have no bound, and the limit sequence
above n = 1000.

The enumeration and a sample of forced truncate_at run again under a libm
whose five functions that the integrands call are each moved by up to
PERTURBED_ULPS ulps: the bars' assumption on the platform.
"""

import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaisher import integrands, quadrature
from glaisher.estimator import (
    _SEQ_ORDER,
    N_MAX,
    ROUTES,
    TOL_MAX,
    TOL_MIN,
    _limit_sequence_at,
    ln_a,
)
from glaisher.integrands import get_integrand
from glaisher.quadrature import (
    _LADDER,
    PANEL_EVALS,
    TRUNCATE_AT_MAX,
    TRUNCATE_AT_MIN,
    integrate_finite,
)
from glaisher.specfun import binet_theta, malmsten_log_gamma

mpmath = pytest.importorskip("mpmath")

with mpmath.workdps(40):
    LN_A = float(mpmath.log(mpmath.glaisher))
    # The Binet route's integral: ln A = ln 2 / 9 + 1/24 + (2/3) I_BINET.
    I_BINET = float(
        (mpmath.log(mpmath.glaisher) - mpmath.log(2) / 9 - mpmath.mpf(1) / 24) * 3 / 2
    )
with mpmath.workdps(50):
    LN_A_50 = mpmath.log(mpmath.glaisher)


def _classical_integral_to(T):
    """int_0^T x ln x / (e^{2 pi x} - 1) dx: ln A = 1/12 - 2 int_0^inf, less the tail."""
    with mpmath.workdps(40):
        tail = mpmath.quad(
            lambda x: x * mpmath.log(x) / mpmath.expm1(2 * mpmath.pi * x), [T, mpmath.inf]
        )
        return float((mpmath.mpf(1) / 12 - mpmath.log(mpmath.glaisher)) / 2 - tail)

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
@pytest.mark.parametrize("T", [1.0, 3.0, 10.0, 30.0, 100.0])
def test_error_budget_holds_binet_compactified(T, tol):
    # The automatic rule compactifies Binet's tail at the map's scale, 5;
    # the engine's bar must hold at every scale T, which t = (T/5) u gives.
    f, c = get_integrand(ROUTES["binet"][0]).eval, T / 5.0
    res = integrate_finite(lambda u: f(c * u) * c, 0.0, 1.0, tol, tail=True)
    assert abs(res.value - I_BINET) <= res.error_estimate
    if res.converged:
        assert res.error_estimate <= tol


@pytest.mark.parametrize("T", [5.0, 6.25, 25.0, 100.0, 500.0])
def test_error_budget_holds_classical_graded(T):
    # The classical route truncates its tail map at s = T/(T+5) and grades
    # its log singularity away by s = (T/(T+5)) u^4; the engine's bar on the
    # mapped integrand must hold at every T a caller may force and at every
    # tol.
    exact = _classical_integral_to(T)
    f = get_integrand("classical").eval
    for tol in TOLS:
        res = integrate_finite(f, 0.0, T / (T + 5.0), tol, graded=True, tail=True)
        assert abs(res.value - exact) <= res.error_estimate, tol
        if res.converged:
            assert res.error_estimate <= tol


# Classical evaluations of the automatic rule at each tol of TOLS, pinned so
# that a change in cost shows up as an edit here: K21 is raised to
# Patterson's 43- or 87-point rule.  The tail map graded by s = e u^4 takes
# 43 from tol 5e-12 to 5e-4, and K21's 21 alone at 1e-3, where the grading
# s = e u^5 took 87 up to 5e-9 and 43 above.  The second column is what the
# engine took when it bisected K21 panels only, and the third what the map
# x = b e^{-s} on s in [0, 45], which the grading replaced, took: each change
# was never dearer.
CLASSICAL_EVALS = dict(zip(TOLS, [87] * 5 + [43] * 25 + [21], strict=True))
CLASSICAL_K21_EVALS = list(
    zip(
        TOLS,
        [189] * 4 + [147] * 5 + [105] * 12 + [63] * 10,
        [231] * 17 + [189] * 14,
        strict=True,
    )
)


@pytest.mark.parametrize("tol, k21_evals, exp_map_evals", CLASSICAL_K21_EVALS)
def test_classical_evaluation_count(tol, k21_evals, exp_map_evals):
    evals = ln_a("classical", tol).evaluations
    assert evals == CLASSICAL_EVALS[tol]
    assert evals <= k21_evals <= exp_map_evals


# Every tol the engine accepts, 1e-2 down to 1e-14, one per decade.
ENGINE_TOLS = [10.0**-k for k in range(2, 15)]


def _assert_bars_hold(results, truths):
    """Each result's bar covers its error, and a converged bar is within tol.

    Returns the worst error / bar, for a margin check.
    """
    worst, misses = 0.0, []
    for (arg, tol), res in results:
        error = abs(res.value - truths[arg])
        if not error <= res.error_estimate or (res.converged and res.error_estimate > tol):
            misses.append((arg, tol))
        elif error:
            worst = max(worst, error / res.error_estimate)
    assert not misses
    return worst


def test_binet_theta_bar_holds():
    # theta(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 at 39 x over the
    # whole domain [0.1, 100], 10^0.5 among them.  With its tail compactified
    # the worst error is 0.11 of the bar (x = 3.79, tol 1e-9); the
    # hand-derived tail bound it replaced left 0.95.
    xs = [10.0 ** (-1 + 3 * i / 38) for i in range(39)]
    truths = {}
    with mpmath.workdps(40):
        for x in xs:
            m = mpmath.mpf(x)
            stirling = (m - 0.5) * mpmath.log(m) - m + mpmath.log(2 * mpmath.pi) / 2
            truths[x] = float(mpmath.loggamma(m) - stirling)
    calls = [(x, tol) for x in xs for tol in ENGINE_TOLS]
    assert _assert_bars_hold([(c, binet_theta(*c)) for c in calls], truths) <= 0.75


def test_malmsten_log_gamma_bar_holds():
    # ln Gamma(z + 1) at z = 0, 13 z log-spaced over [1e-3, 1e3] and eight z
    # near 1, where the integrand's bracket is near 0 at every t and a form
    # that cancels there misses its bar (96-fold at z = 1.001, tol 1e-10);
    # the worst error is 0.18 of the bar (z = 1.01).
    zs = ([0.0] + [10.0 ** (-3 + i / 2) for i in range(13)]
          + [0.96, 0.99, 0.999, 1 - 1e-6, 1 + 1e-6, 1.001, 1.01, 1.06])
    with mpmath.workdps(40):
        truths = {z: float(mpmath.loggamma(mpmath.mpf(z) + 1)) for z in zs}
    calls = [(z, tol) for z in zs for tol in ENGINE_TOLS]
    assert _assert_bars_hold([(c, malmsten_log_gamma(*c)) for c in calls], truths) <= 0.5


@pytest.mark.parametrize(
    "route, tol, truncate_at, max_evals",
    [
        # A budget of one panel over the whole truncated domain.
        ("classical", 1e-13, None, 31),
        # Truncated at T = 50 at a loose tolerance.
        ("classical", 1e-3, 50.0, 10_000),
        # A bound near the rounding of offset + scale * integral.
        ("malmsten", 1e-13, 60.0, 10_000),
    ],
)
def test_error_budget_holds_where_a_panel_estimate_was_too_small(
    route, tol, truncate_at, max_evals
):
    _assert_budget_holds(ln_a(route, tol, truncate_at, max_evals), tol)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@pytest.mark.parametrize("max_evals", [43, 87])
@pytest.mark.parametrize("truncate_at", [20.997616733203287, 8.3266])
def test_error_budget_holds_in_the_classical_narrows(truncate_at, max_evals):
    # Near these T the K21 error of the graded classical route changes
    # sign, the 43-point estimate falls to its rounding floor, and the bar
    # (2.09e-15 and 1.89e-15) is 36.5x and 31.2x short of the error.
    _assert_budget_holds(ln_a("classical", 1e-6, truncate_at, max_evals), 1e-6)


def test_limit_sequence_bar_holds():
    # Every n up to 1000 (the bar is tightest near n = 19, where the error
    # is 0.50 of it), 200 log-spaced n in [1e3, 1e5], and three n at the top.
    ns = set(range(1, 1001)) | {round(1e3 * 100.0 ** (i / 199)) for i in range(200)}
    ns |= {77777, 99991, N_MAX}
    misses = []
    worst = 0.0
    for n in sorted(ns):
        est = _limit_sequence_at(n, TOL_MIN)
        bar = est.discretization_error + est.truncation_error
        if not abs(est.ln_A - LN_A) <= bar:
            misses.append(n)
        worst = max(worst, abs(est.ln_A - LN_A) / bar)
    assert not misses
    assert worst <= 0.6


def _barnes_g_remainder(n, order):
    """The remainder of ln A - term(n) after `order` corrections, and the next.

    Both in mpmath at the working precision, with the corrections c_k / n^(2k)
    of estimator._SEQ_CORRECTIONS rederived from the Bernoulli numbers.
    """
    m = mpmath.mpf(n)
    term = (
        m / 2 * mpmath.log(2 * mpmath.pi)
        + (m * m / 2 - mpmath.mpf(1) / 12) * mpmath.log(m)
        - 3 * m * m / 4
        + mpmath.mpf(1) / 12
        - mpmath.log(mpmath.barnesg(m + 1))
    )
    c = [
        mpmath.bernoulli(2 * k + 2) / (4 * k * (k + 1)) / m ** (2 * k)
        for k in range(1, order + 2)
    ]
    return mpmath.log(mpmath.glaisher) - term - sum(c[:order]), c[order]


@pytest.mark.parametrize("order", [_SEQ_ORDER, _SEQ_ORDER + 1])
def test_limit_sequence_remainder_is_bounded_by_the_next_term(order):
    # Nemes (2014): the remainder has the next term's sign and is no larger.
    # The pieces of term(n) are ~n^2 ln n and the remainder ~n^-(2 order + 2),
    # so 50 digits resolve it up to n = 1000 and 90 digits up to 1e5; too few
    # digits would show as a ratio far outside (0, 1].
    ns = [(n, 50) for n in range(1, 1001)]
    ns += [(round(1e3 * 100.0 ** (i / 49)), 90) for i in range(1, 50)]
    bad = []
    for n, dps in ns:
        with mpmath.workdps(dps):
            remainder, nxt = _barnes_g_remainder(n, order)
            if not 0 < remainder / nxt <= 1:
                bad.append(n)
    assert not bad


# Budgets on each side of the levels: 42 and 43 around the 43-point rule, 86
# and 87 around the 87-point one, and 128 and 129, where no level is left.
LEVEL_EDGE_BUDGETS = [None, 42, 43, 86, 87, 128, 129]
# 5 log-spaced tols per decade over the accepted range, both ends included.
LEVEL_EDGE_TOLS = [min(TOL_MAX, max(TOL_MIN, 10.0 ** (-13 + i / 5))) for i in range(51)]


@pytest.mark.parametrize("route", SEMI_INFINITE)
def test_error_budget_holds_at_the_level_edges(route):
    # Forced T in {5, 25, 500}, at every budget edge and tol: the budget is a
    # hard cap, the bar covers the error and a converged bar is within tol.
    # The automatic rule's column runs in test_error_budget_holds.
    misses, worst = [], 0.0
    for T in (5.0, 25.0, 500.0):
        for max_evals in LEVEL_EDGE_BUDGETS:
            for tol in LEVEL_EDGE_TOLS:
                est = ln_a(route, tol, T, max_evals)
                bar = est.discretization_error + est.truncation_error
                error = abs(est.ln_A - LN_A)
                if max_evals is not None and est.evaluations > max_evals:
                    misses.append(("budget", T, max_evals, tol))
                if not error <= bar or (est.converged and bar > tol):
                    misses.append(("bar", T, max_evals, tol))
                elif error:
                    worst = max(worst, error / bar)
    assert not misses
    # Binet truncated at T = 500 meets its bar's 1/(2 t^2) tail bound to 0.2%.
    assert worst <= (1.0 if route == "binet" else 0.5)


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


# The quadrature levels: K21 and Patterson's 43- and 87-point rules.
LEVELS = (21, 43, 87)
# Every rung of the automatic rule that a caller may force.
FORCIBLE_RUNGS = [T for T in _LADDER if T <= TRUNCATE_AT_MAX]


def _outcome(est):
    """ln_a's result less converged, the one field that tol changes."""
    return est._replace(converged=None)


def _enumerated():
    """route -> [(T, L, ln_a(route, TOL_MIN, T, L))], T None for the automatic rule.

    A route's automatic result at any accepted (tol, budget) is fixed by its
    rung T and the level it stops on, and the discretization tol at TOL_MIN
    is the smallest there is.  So a run forced to that rung at TOL_MIN, with
    the level as its budget, passes the same levels and stops on the same
    one.  The automatic runs at TOL_MIN add the compactified tail.  201
    calls in all.
    """
    found = {}
    for route in ROUTES:
        calls = [(None, L) for L in LEVELS]
        if route in SEMI_INFINITE:
            calls += [(T, L) for T in FORCIBLE_RUNGS for L in LEVELS]
        found[route] = [(T, L, ln_a(route, TOL_MIN, T, L)) for T, L in calls]
    return found


ENUMERATED = _enumerated()


def test_enumeration_forces_every_rung_up_to_500():
    # The automatic rule picks only rungs of _LADDER, so it picks none that
    # the enumeration could not force.
    assert FORCIBLE_RUNGS == _LADDER and len(_LADDER) == 21
    assert sum(map(len, ENUMERATED.values())) == 201


@pytest.mark.parametrize("route", list(ROUTES))
def test_error_budget_holds_at_every_enumerated_input(route):
    # Each bar against mpmath at 50 digits.  For Binet only a ratio <= 1 is
    # asserted: forced to T >= 277 it comes within 0.4% of its bar, whose
    # 1/(2T) tail bound is nearly the exact tail there (and those runs do
    # not converge at TOL_MIN).  The other routes' worst is 0.44 (Malmsten).
    misses, worst = [], 0.0
    with mpmath.workdps(50):
        for T, L, est in ENUMERATED[route]:
            bar = est.discretization_error + est.truncation_error
            error = abs(mpmath.mpf(est.ln_A) - LN_A_50)
            if est.evaluations > L or not error <= bar:
                misses.append((T, L, est.evaluations, est.ln_A, bar))
            elif error:
                worst = max(worst, float(error / bar))
    assert not misses, f"{len(misses)} violations: {misses}"
    assert worst <= (1.0 if route == "binet" else 0.5)


# TOLS, the level-edge tols and two log-spaced tols per decade, and a budget
# on each side of every level: a sample of the automatic rule's inputs, for
# the claim that the enumeration holds every result the rule can return.
COVER_TOLS = sorted({
    *TOLS,
    *LEVEL_EDGE_TOLS,
    *(min(TOL_MAX, max(TOL_MIN, 10.0 ** (-13 + i / 2))) for i in range(21)),
})
COVER_BUDGETS = [None, 21, 42, 43, 86, 87, 100, 128, 129]
OUTCOMES = {route: {_outcome(est) for _, _, est in runs} for route, runs in ENUMERATED.items()}


@pytest.mark.parametrize("tol", COVER_TOLS)
@pytest.mark.parametrize("route", list(ROUTES))
def test_error_budget_holds(route, tol):
    # The automatic rule at every budget: each result is an enumerated one,
    # so its bar covers its error; the budget is a hard cap, and a converged
    # bar is within tol.
    misses = []
    for max_evals in COVER_BUDGETS:
        est = ln_a(route, tol, None, max_evals)
        bar = est.discretization_error + est.truncation_error
        if (
            _outcome(est) not in OUTCOMES[route]
            or (max_evals is not None and est.evaluations > max_evals)
            or (est.converged and bar > tol)
        ):
            misses.append(max_evals)
    assert not misses


# The bars assume a libm within PERTURBED_ULPS ulps on the five functions
# that the integrands call (README states it).  Each is replaced by the
# platform's value moved by a seeded random integer in [-k, k] ulps.  At
# k = 1 every enumerated bar holds at 30 seeds, and so does every forced
# run of 270 per seed but those that miss at k = 0 too: the classical route
# forced near T = 8.33 or 21.0 and stopping on the 43-point level has a bar
# up to 36x too small whatever the libm (none of the draws below lands
# there).  k = 2 is not shown to hold:
# at seed 1, Malmsten forced to T = 58.2 at tol 2.1e-13 with budget 86 stops
# on the 43-point level, 1.03x over its bar (the rounding floor, 3.85e-16).
# At k = 4, six of 2010 enumerated runs over 10 seeds miss, all Malmsten,
# by up to 1.32x.
PERTURBED_ULPS = 1
PERTURBED = ("exp", "expm1", "tanh", "log", "lgamma")
# The seeded sample of forced truncation points, per seed: with the
# enumeration, about 0.03 s a seed.
PERTURBED_FORCED_RUNS = 40


def _moved(f, k, rng):
    """f, its value moved by a random integer in [-k, k] ulps drawn from rng."""

    def moved(x):
        value, steps = f(x), rng.randint(-k, k)
        toward = math.inf if steps > 0 else -math.inf
        for _ in range(abs(steps)):
            value = math.nextafter(value, toward)
        return value

    return moved


@pytest.fixture(params=[1, 2, 3], ids=lambda seed: f"seed{seed}")
def perturbed_libm(request, monkeypatch):
    """The seed, with integrands' PERTURBED functions moved for the test."""
    rng = random.Random(request.param)
    perturbed = types.SimpleNamespace(**vars(math))
    for name in PERTURBED:
        setattr(perturbed, name, _moved(getattr(math, name), PERTURBED_ULPS, rng))
    # The rung tables hold tail bounds, which read integrands' math too.
    quadrature._rungs.cache_clear()
    monkeypatch.setattr(integrands, "math", perturbed)
    yield request.param
    monkeypatch.undo()
    quadrature._rungs.cache_clear()


def test_error_budget_holds_under_a_perturbed_libm(perturbed_libm):
    # The 201 enumerated runs, and a seeded sample of forced truncate_at in
    # [5, 500] x tol x budget; each bar against mpmath at 50 digits.
    runs = [
        (L, TOL_MIN, est) for results in _enumerated().values() for _, L, est in results
    ]
    rng = random.Random(f"forced:{perturbed_libm}")
    for _ in range(PERTURBED_FORCED_RUNS):
        route = rng.choice(SEMI_INFINITE)
        tol = min(TOL_MAX, max(TOL_MIN, 10.0 ** rng.uniform(-13.0, -3.0)))
        T = min(TRUNCATE_AT_MAX, max(TRUNCATE_AT_MIN, 5.0 * 100.0 ** rng.random()))
        max_evals = rng.choice(LEVEL_EDGE_BUDGETS)
        runs.append((max_evals, tol, ln_a(route, tol, T, max_evals)))
    misses = []
    with mpmath.workdps(50):
        for max_evals, tol, est in runs:
            bar = est.discretization_error + est.truncation_error
            if (
                not abs(mpmath.mpf(est.ln_A) - LN_A_50) <= bar
                or (max_evals is not None and est.evaluations > max_evals)
                or (est.converged and bar > tol)
            ):
                misses.append((est, tol))
    assert not misses, f"{len(misses)} violations: {misses}"
