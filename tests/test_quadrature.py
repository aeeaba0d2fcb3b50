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


def _moment(k):
    """int x^k on [-1, 1], exactly (an mpmath mpf or 0)."""
    mpmath = pytest.importorskip("mpmath")
    return 0 if k % 2 else mpmath.mpf(2) / (k + 1)


def _times(p, q):
    """The product of two polynomials, coefficients c_0 first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _orthogonal(weight, n):
    """The monic x^n + sum c_m x^m orthogonal to weight(x) x^k on [-1, 1] for k < n.

    weight has a parity (P10, P10 E11, ...), and so has the result: m runs
    over n's parity and k over the parity that leaves weight x^(k+n) even,
    the conditions that do not hold by symmetry alone.  Coefficients c_0
    first.
    """
    mpmath = pytest.importorskip("mpmath")
    parity = (len(weight) - 1 + n) % 2

    def inner(k):  # int weight x^k on [-1, 1]
        return mpmath.fsum(c * _moment(k + j) for j, c in enumerate(weight))

    ks, ms = range(parity, n, 2), range(n % 2, n, 2)
    c = mpmath.lu_solve(
        mpmath.matrix([[inner(k + m) for m in ms] for k in ks]),
        mpmath.matrix([-inner(k + n) for k in ks]),
    )
    coeffs = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
    for m, cm in zip(ms, c):
        coeffs[m] = cm
    return coeffs


def test_kronrod_constants_match_an_mpmath_derivation():
    """Rederive the G10/K21 rule at 60 digits; the frozen floats are its rounding."""
    mpmath = pytest.importorskip("mpmath")

    def solve_moments(xs):
        """Weights integrating x^k exactly on [-1, 1] for k < len(xs)."""
        vandermonde = mpmath.matrix([[x**k for x in xs] for k in range(len(xs))])
        moments = mpmath.matrix([_moment(k) for k in range(len(xs))])
        return list(mpmath.lu_solve(vandermonde, moments))

    def real_roots(coeffs):
        """Roots of sum c_k x^k, given c_0 first."""
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        return [mpmath.re(r) for r in roots]

    with mpmath.workdps(60):
        p10 = mpmath.taylor(lambda x: mpmath.legendre(10, x), 0, 10)
        gauss = sorted(real_roots(p10))
        wg = solve_moments(gauss)
        # The Stieltjes polynomial E11, orthogonal to P10 x^k for k <= 10, is
        # x q(x^2): its roots are 0 and the square roots of q's.
        ys = real_roots(_orthogonal(p10, 11)[1::2])
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


def test_patterson_constants_match_an_mpmath_derivation():
    """Rederive the 43- and 87-point rules at 100 digits; the frozen floats are their rounding.

    The new nodes of each level are the roots of an even polynomial, F22
    orthogonal to P10 E11 x^k and then G44 to P10 E11 F22 x^k.  Each frozen
    node (K21's too) is Newton-refined to a root of its polynomial, and the
    refined roots are distinct, so they are all of its roots; polyroots
    would find the same in seconds.  The weights solve the moment equations
    in the Legendre basis, which stays well conditioned at 87 nodes where a
    monomial Vandermonde does not.
    """
    mpmath = pytest.importorskip("mpmath")

    def newton(coeffs, x):
        """The root of the even sum c_k x^k that Newton's method finds from x > 0."""
        q = coeffs[::-2]  # q(z), z = x^2, highest power first
        z = mpmath.mpf(x) ** 2
        for _ in range(100):
            value, slope = mpmath.polyval(q, z, derivative=True)
            step = value / slope
            z -= step
            if abs(step) <= abs(z) * mpmath.mpf(10) ** -50:
                return mpmath.sqrt(z)
        raise AssertionError(f"no convergence from {x}")

    def legendre_sums(nodes, weights, n):
        """sum w P_k(x) over the symmetric rule of the given x >= 0, for k < n."""
        sums = [mpmath.mpf(0)] * n
        for x, w in zip(nodes, weights):
            scale = w if x == 0 else 2 * w
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(n):
                sums[k] += scale * cur
                prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return sums

    def symmetric_weights(nodes):
        """Weights of 0 and the x > 0 in nodes, exact for P_0, P_2, ... of the right count."""
        rows = [legendre_sums([x], [1], 2 * len(nodes))[::2] for x in nodes]
        a = mpmath.matrix([[row[k] for row in rows] for k in range(len(nodes))])
        return list(mpmath.lu_solve(a, mpmath.matrix([2] + [0] * (len(nodes) - 1))))

    levels = ((quadrature._X43, quadrature._W43, 64), (quadrature._X87, quadrature._W87, 130))
    with mpmath.workdps(100):
        p10 = mpmath.taylor(lambda x: mpmath.legendre(10, x), 0, 10)
        e11 = _orthogonal(p10, 11)
        weight = _times(p10, e11)
        # K21's nodes: 0, the roots of P10 and those of the even E11 / x.
        gauss = quadrature._XK[quadrature._GAUSS]
        nodes = [mpmath.mpf(0)] + [
            newton(p10 if x in gauss else e11[1:], x) for x in quadrature._XK if x > 0
        ]
        assert tuple(map(float, nodes)) == quadrature._XK[10:]
        order = list(quadrature._XK)  # the node of each weight of a level
        for xs, ws, degree in levels:
            extension = _orthogonal(weight, len(xs))
            roots = [newton(extension, x) for x in xs if x > 0]
            assert len(set(roots)) == len(xs) // 2
            assert tuple(sorted(map(float, roots))) == tuple(x for x in xs if x > 0)
            nodes += roots
            order += xs
            w = symmetric_weights(nodes)
            assert all(v > 0 for v in w)
            # Exact for P_k up to the rule's degree: odd k by symmetry, even k
            # below 2 len(nodes) by the equations, and the even k above them
            # only because the new nodes are the extension's roots.
            sums = legendre_sums(nodes, w, degree + 1)[::2]
            assert abs(sums[0] - 2) < mpmath.mpf(10) ** -40
            assert all(abs(v) < mpmath.mpf(10) ** -40 for v in sums[1:])
            of = {float(x): float(v) for x, v in zip(nodes, w)}
            assert ws == tuple(of[abs(x)] for x in order)
            weight = _times(weight, extension)
    # 66 new nodes, none of them K21's: 87 distinct values at most per panel.
    assert len({*quadrature._XK, *quadrature._X43, *quadrature._X87}) == 87
    # QUADPACK qng's published x3(1) and x4(1).
    assert max(quadrature._X43) == 0.999333360901932
    assert max(quadrature._X87) == 0.9999029772627293


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
    # true error <= 10x the reported bar whenever converged; the bar of a
    # truncated tail is error_estimate + truncation_error
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
        bar = res.error_estimate + res.truncation_error
        assert abs(res.value - truth) <= 10.0 * max(bar, 1e-16)


def test_monotone_cost():
    f = get_integrand("malmsten_form19")
    evals = []
    tol = 1e-6
    while tol >= 1e-12:
        evals.append(integrate(f, tol).evaluations)
        tol /= 2.0
    assert all(b >= a for a, b in zip(evals, evals[1:]))


def test_automatic_rule_reads_the_tail_bound():
    # A bound of 1/T misses tol/10 on the whole ladder: compactified, and
    # reported at the tail map's scale, T = 5.
    algebraic = IntegrandSpec(
        eval=lambda t: 1.0 / (1.0 + t) ** 2,
        tail_bound=lambda T: 1.0 / T,
    )
    res = integrate(algebraic, 1e-8)
    assert (res.truncation_mode, res.truncation_T) == ("compactify", 5.0)
    assert res.truncation_error == 0.0
    assert res.converged and abs(res.value - 1.0) <= 1e-8
    # A bound of e^{-T} first meets 1e-9 on the ladder 5 * 1.25^k at k = 7.
    assert math.exp(-5.0 * 1.25**6) > 1e-9 >= math.exp(-5.0 * 1.25**7)
    res = integrate(_exp_spec(), 1e-8)
    assert (res.truncation_mode, res.truncation_T) == ("truncate", 5.0 * 1.25**7)
    assert res.truncation_error == math.exp(-5.0 * 1.25**7)


def test_compactification_agreement():
    # The automatic rule maps Binet's tail at scale 5; t = c u moves the
    # scale to 5 c, and any scale agrees.
    f = get_integrand("binet_form13").eval
    a, b = (
        integrate_finite(lambda u: f(c * u) * c, 0.0, 1.0, 1e-11, tail=True) for c in (1.0, 10.0)
    )
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= 1e-10
    assert a[:4] == integrate(get_integrand("binet_form13"), 1e-11)[:4]


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
    # Classical needs the 87-point level at tol 1e-12; 64 affords the 43.
    res = integrate(spec, 1e-12, max_evals=64)
    assert not res.converged
    assert res.evaluations > 0


def _error(err, resabs, resasc):
    """QUADPACK's error estimate written with min and max, as qk21 writes it."""
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, quadrature._ROUNDING_FLOOR * resabs)


def _k21(f, a, b, tol=None, graded=False, tail=False):
    """(value, error estimate, resasc) of the K21 rule on [a, b], summed as the engine does.

    The nodes and weights are those of the engine's node table for the map.
    Given a tol, the rule is raised through Patterson's levels while its
    estimate misses tol, as integrate_finite raises it with no budget cap.
    """
    half, ts, wk, wg, levels = quadrature._nodes(a, b, graded, tail)
    y = [f(t) for t in ts]
    wy = [w * v for w, v in zip(wk, y)]
    k21 = math.fsum(wy)
    g10 = math.fsum(w * v for w, v in zip(wg, y[1::2]))
    mean, asc = 0.5 * k21, 0.0
    for w, v in zip(quadrature._WK, wy):
        asc += abs(v - w * mean)
    resabs, resasc = half * sum(map(abs, wy)), half * asc
    value, err, coarser = half * k21, _error(half * abs(k21 - g10), resabs, resasc), k21
    for ts, ws in levels if tol is not None else ():
        if err <= tol:
            break
        y += [f(t) for t in ts]
        r = math.fsum(w * v for w, v in zip(ws, y))
        value, err, coarser = half * r, _error(half * abs(r - coarser), resabs, resasc), r
    return value, err, resasc


def test_one_panel_run_is_the_k21_panel():
    res = integrate_finite(math.exp, 0.0, 1.0, 1e-10)
    value, err, _ = _k21(math.exp, 0.0, 1.0)
    assert tuple(res) == (value, err, PANEL_EVALS, True, 0.0, 0.0, "none")


@pytest.mark.parametrize(
    "spec_id", ["classical", "binet_form13", "malmsten_form19", "lngamma_direct"]
)
@pytest.mark.parametrize("tol", [10.0**-k for k in range(2, 15)])
def test_route_runs_match_the_reference_bit_for_bit(spec_id, tol):
    # Each route integrand on the interval and map the automatic rule picks
    # at every tol the engine accepts: the engine's value and estimate are
    # the reference's to the last bit.
    spec = get_integrand(spec_id)
    run = integrate(spec, tol)
    b = {"none": spec.domain_upper, "compactify": 1.0}.get(
        run.truncation_mode, run.truncation_T / (run.truncation_T + 5.0)
    )
    maps = {"graded": spec.log_singular_at_zero, "tail": run.truncation_mode != "none"}
    res = integrate_finite(spec.eval, 0.0, b, tol, **maps)
    reference = _k21(spec.eval, 0.0, b, tol, **maps)[:2]
    assert (res.value.hex(), res.error_estimate.hex()) == tuple(x.hex() for x in reference)


def test_first_panel_is_raised_through_the_levels_within_the_budget():
    # sqrt misses tol 1e-12 on K21 and on both of Patterson's levels.  A
    # level is taken only if all of its evaluations fit, and after the
    # 87-point level the run stops, unconverged, whatever the budget.
    runs = [
        integrate_finite(math.sqrt, 0.0, 1.0, 1e-12, b) for b in (21, 42, 43, 86, 87, 88, 10_000)
    ]
    assert [r.evaluations for r in runs] == [21, 21, 43, 43, 87, 87, 87]
    assert not any(r.converged for r in runs)
    errors = [runs[i].error_estimate for i in (0, 2, 4)]
    assert errors == sorted(errors, reverse=True)
    assert runs[0].error_estimate == _k21(math.sqrt, 0.0, 1.0)[1]
    assert runs[4] == runs[5] == runs[6]


def test_a_larger_budget_never_reports_a_larger_error_than_the_87_point_level():
    # A larger budget takes the same levels or more, and every budget from
    # 87 on ends on the 87-point level itself.
    classical = get_integrand("classical")
    for run in (
        lambda b: integrate_finite(math.sqrt, 0.0, 1.0, 1e-12, b),
        lambda b: integrate(classical, 1e-12, 200.0, b),
    ):
        level = run(87)
        assert level.evaluations == 87
        runs = [run(b) for b in range(21, 301)]
        errors = [r.error_estimate for r in runs]
        assert errors == sorted(errors, reverse=True)
        assert all(r == level for r in runs[87 - 21 :])


def test_saturated_first_panel_is_raised_through_the_levels():
    # K21 does not resolve sin(50 x) on [0, 1]: its estimate is resasc, and
    # the levels are taken as for any other K21 that misses tol.
    def f(x):
        return math.sin(50.0 * x)

    _, err, resasc = _k21(f, 0.0, 1.0)
    assert err == resasc
    runs = [integrate_finite(f, 0.0, 1.0, 1e-10, b) for b in (42, 43, 87, 105)]
    assert [r.evaluations for r in runs] == [21, 43, 87, 87]
    assert runs[0].error_estimate == err


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
        calls.append((*args[:3], kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_finite", counting)
    spec = get_integrand(spec_id)
    res = integrate(spec, 1e-10, truncate_at)
    # The raw evaluator goes first: the map is the engine's, in its node table.
    if res.truncation_mode == "compactify":
        upper = 1.0
    elif res.truncation_mode == "truncate":
        upper = res.truncation_T / (res.truncation_T + 5.0)
    else:
        upper = spec.domain_upper
    tail = res.truncation_mode != "none"
    assert calls == [
        (spec.eval, 0.0, upper, {"graded": spec.log_singular_at_zero, "tail": tail})
    ]


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


def _live_scan(bound, tol):
    """The automatic rule's truncation point and bound read rung by rung, or "compactify"."""
    for T in quadrature._LADDER if bound else ():
        if bound(T) <= tol / quadrature.TAIL_SAFETY:
            return T, bound(T)
    return "compactify"


# A bound that is NaN on the first rungs and rises again between 20 and 40:
# the rung table must still pick the first rung whose value meets tol/10.
_IRREGULAR = IntegrandSpec(
    eval=lambda t: math.exp(-t),
    tail_bound=lambda T: math.nan if T < 7.0 else math.exp(-T) * (1e3 if 20.0 < T < 40.0 else 1.0),
)


_SPECS = {
    "irregular": _IRREGULAR,
    "no_bound": IntegrandSpec(eval=lambda t: 1.0 / (1.0 + t) ** 2),
    "nan_bound": IntegrandSpec(eval=lambda t: 1.0 / (1.0 + t) ** 2, tail_bound=lambda T: math.nan),
}
# Tails that no rung truncates at any tol: an algebraic bound, none, and NaN.
_COMPACTIFIED = ["binet_form13", "no_bound", "nan_bound"]


@pytest.mark.parametrize("spec_id", ["classical", "malmsten_form19", "irregular", *_COMPACTIFIED])
def test_rung_table_picks_what_a_live_scan_picks(spec_id):
    spec = _SPECS.get(spec_id) or get_integrand(spec_id)
    mode = "compactify" if spec_id in _COMPACTIFIED else "truncate"
    for i in range(401):
        tol = 10.0 ** (-14.0 + 12.0 * i / 400)
        res = integrate(spec, tol)
        assert res.truncation_mode == mode, tol
        picked = (res.truncation_T, res.truncation_error) if mode == "truncate" else mode
        assert picked == _live_scan(spec.tail_bound, tol), tol


@pytest.mark.parametrize("mode", ["compactify", "truncate"])
def test_a_bound_is_read_once_on_each_rung(mode):
    # An algebraic and an exponential bound: a cold automatic call reads the
    # bound on every rung, into its table, and a warm one reads nothing.
    reads = []

    def bound(T):
        reads.append(T)
        return 1.0 / (2.0 * T) if mode == "compactify" else math.exp(-T)

    spec = IntegrandSpec(eval=lambda t: 1.0 / (1.0 + t) ** 2, tail_bound=bound)
    cold = integrate(spec, 1e-8)
    assert cold.truncation_mode == mode and reads == quadrature._LADDER
    reads.clear()
    assert [integrate(spec, tol).truncation_mode for tol in (1e-6, 1e-12)] == [mode] * 2
    assert integrate(spec, 1e-8) == cold and reads == []


def test_nan_propagates_as_error():
    with pytest.raises(EvaluationFailedError):
        integrate_finite(lambda x: math.nan, 0.0, 1.0, 1e-8)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_value_is_an_error(value):
    with pytest.raises(EvaluationFailedError):
        integrate_finite(lambda x: value, 0.0, 1.0, 1e-8)


def test_a_non_finite_value_at_a_level_is_an_error():
    # K21's smallest node on [0, 1] is 0.0022 and the 43-point level's is
    # 0.00033: the value there raises once the level is taken, and a budget
    # that stops at K21 never evaluates it.
    def f(x):
        return math.nan if x < 0.002 else math.sqrt(x)

    with pytest.raises(EvaluationFailedError):
        integrate_finite(f, 0.0, 1.0, 1e-10)
    res = integrate_finite(f, 0.0, 1.0, 1e-10, 42)
    assert res.evaluations == PANEL_EVALS and not res.converged


def test_node_tables_change_no_result():
    # A node table is built once per map and interval; a run on a cached
    # table is the run on a fresh one.
    spec = get_integrand("classical")
    for tol in (1e-6, 1e-12, 1e-9):
        for truncate_at in (None, 20.0, 40.0):
            for max_evals in (42, 86, 10_000):
                quadrature._nodes.cache_clear()
                fresh = integrate(spec, tol, truncate_at, max_evals)
                assert quadrature._nodes.cache_info().misses == 1
                assert integrate(spec, tol, truncate_at, max_evals) == fresh
                assert quadrature._nodes.cache_info().hits == 1


def test_a_map_needs_its_domain():
    with pytest.raises(ValueError):
        integrate_finite(math.log, 0.5, 1.0, 1e-8, graded=True)
    with pytest.raises(ValueError):
        integrate_finite(math.exp, 0.0, 1.5, 1e-8, tail=True)
    assert integrate_finite(lambda t: math.exp(-t), 0.0, 1.0, 1e-12, tail=True).converged


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
        # Past the top of the forced range.
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
