import math

import pytest

from glaisher import estimator, integrands, specfun
from glaisher.integrands import (
    INTEGRAND_IDS,
    IntegrandSpec,
    SERIES_SWITCH_T,
    binet_integrand,
    classical_integrand,
    get_integrand,
    lngamma_direct_integrand,
    malmsten_integrand,
)
from glaisher.quadrature import integrate, integrate_finite


def _log_grid(lo, hi, n):
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + (b - a) * i / (n - 1)) for i in range(n)]


class TestClassical:
    def test_zero_at_one(self):
        assert classical_integrand(1.0) == 0.0

    def test_half(self):
        # 0.5 ln(0.5) / (e^pi - 1)
        assert classical_integrand(0.5) == pytest.approx(
            -0.015653240665419422, abs=1e-12
        )

    def test_near_zero_log_behavior(self):
        x = 1e-8
        assert classical_integrand(x) == pytest.approx(
            math.log(x) / (2.0 * math.pi), rel=1e-6
        )

    def test_large_x_no_overflow(self):
        assert classical_integrand(1000.0) == 0.0  # underflows cleanly

    def test_domain(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite x > 0"):
                classical_integrand(x)


class TestBinetForms:
    def test_limit_at_zero(self):
        assert binet_integrand(1e-4, 12) == pytest.approx(1.0 / 24.0, abs=2e-6)

    def test_at_one(self):
        # (1 - e^{-1/2})(coth(1/2) - 2)/2, coth(1/2) = 2.1639534...
        assert binet_integrand(1.0, 13) == pytest.approx(0.0322553208, abs=1e-9)
        assert binet_integrand(1.0, 12) == pytest.approx(0.0322553208, abs=1e-9)

    def test_at_hundred(self):
        expected = (1.0 - math.exp(-50.0)) * 98.0 / (2.0 * 1e6)
        assert binet_integrand(100.0, 13) == pytest.approx(expected, rel=1e-12)

    def test_form_equivalence(self):
        for t in _log_grid(1e-3, 50.0, 1000):
            a = binet_integrand(t, 12)
            b = binet_integrand(t, 13)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_seam_continuity(self):
        t0 = SERIES_SWITCH_T
        below = binet_integrand(t0 * (1.0 - 1e-16), 13)
        for form in (12, 13):
            above = binet_integrand(t0, form)
            assert abs(above - below) <= 1e-14

    def test_positive(self):
        for t in _log_grid(1e-6, 200.0, 400):
            assert binet_integrand(t, 13) > 0.0

    def test_domain(self):
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite t > 0"):
                binet_integrand(t)
        with pytest.raises(ValueError):
            binet_integrand(1.0, form=11)


class TestMalmstenForms:
    def test_limit_at_zero(self):
        assert malmsten_integrand(1e-4, 19) == pytest.approx(-1.0 / 24.0, abs=1e-5)

    def test_at_one(self):
        assert malmsten_integrand(1.0, 19) == pytest.approx(
            -0.016013432373744934, abs=1e-12
        )

    def test_form_equivalence(self):
        for t in _log_grid(1e-3, 50.0, 1000):
            a = malmsten_integrand(t, 18)
            b = malmsten_integrand(t, 19)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_seam_continuity(self):
        t0 = SERIES_SWITCH_T
        below = malmsten_integrand(t0 * (1.0 - 1e-16), 19)
        for form in (18, 19):
            above = malmsten_integrand(t0, form)
            assert abs(above - below) <= 1e-14

    def test_negative(self):
        for t in _log_grid(1e-6, 200.0, 400):
            assert malmsten_integrand(t, 19) < 0.0

    def test_no_overflow_far_out(self):
        # printed form 19 would overflow near t = 710
        assert malmsten_integrand(800.0, 19) == 0.0
        assert math.isfinite(malmsten_integrand(700.0, 18))

    def test_domain(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite t > 0"):
                malmsten_integrand(t)
        with pytest.raises(ValueError):
            malmsten_integrand(1.0, form=20)


class TestLnGammaDirect:
    def test_endpoints(self):
        assert lngamma_direct_integrand(0.0) == 0.0
        assert lngamma_direct_integrand(0.5) == pytest.approx(
            -0.1207822376, abs=1e-8
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            lngamma_direct_integrand(-0.01)
        with pytest.raises(ValueError):
            lngamma_direct_integrand(0.51)


# printed forms outside the registry -> (registered form, evaluator)
_UNREGISTERED_FORMS = {
    "binet_form12": ("binet_form13", lambda t: binet_integrand(t, 12)),
    "malmsten_form18": ("malmsten_form19", lambda t: malmsten_integrand(t, 18)),
}


class TestTailBounds:
    def test_example_values(self):
        b = get_integrand("binet_form13").tail_bound(100.0)
        assert 5e-3 <= b <= 2e-2
        assert get_integrand("malmsten_form19").tail_bound(40.0) <= 1e-15
        assert get_integrand("classical").tail_bound(5.0) <= 1e-12

    def test_binet_true_tail_near_bound(self):
        # true tail at T=100 is ~4.95e-3 (frozen from a compactified
        # high-precision run); the 1/(2T) bound sits just above it
        assert get_integrand("binet_form13").tail_bound(100.0) >= 4.95e-3

    def test_nonincreasing(self):
        for iid in INTEGRAND_IDS:
            if iid == "lngamma_direct":
                continue
            bound = get_integrand(iid).tail_bound
            bounds = [bound(T) for T in (1.0, 2.0, 5.0, 10.0, 40.0, 100.0)]
            assert all(b <= a for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize(
        "iid", ["classical", "binet_form12", "binet_form13", "malmsten_form18", "malmsten_form19"]
    )
    @pytest.mark.parametrize("T", [5.0, 10.0, 20.0, 50.0, 100.0])
    def test_soundness_on_segments(self, iid, T):
        # bound(T) must dominate the measured |integral over [T, 10T]|;
        # forms 12 and 18 are held to the bound of the registered form 13/19
        registered, f = _UNREGISTERED_FORMS.get(iid, (iid, None))
        spec = get_integrand(registered)
        seg = integrate_finite(f or spec.eval, T, 10.0 * T, 1e-14, max_evals=40000)
        assert spec.tail_bound(T) >= abs(seg.value)

    def test_domain(self):
        with pytest.raises(KeyError):
            get_integrand("nonsense")

    def test_a_bound_is_needed_only_to_force_truncation(self):
        # Without a bound the automatic rule compactifies the tail, as it does
        # Binet's, whose bound never meets tol/10 on the ladder.
        bare = integrate(IntegrandSpec(eval=binet_integrand), 1e-10)
        assert (bare.truncation_mode, bare.truncation_T) == ("compactify", 5.0)
        assert bare == integrate(get_integrand("binet_form13"), 1e-10)
        with pytest.raises(ValueError, match="tail_bound"):
            integrate(IntegrandSpec(eval=binet_integrand), 1e-10, 10.0)
        finite = IntegrandSpec(eval=lngamma_direct_integrand, domain_upper=0.5)
        assert finite.tail_bound is None
        assert integrate(finite, 1e-10).converged


# registered id or unregistered form -> the public function that checks its
# inputs, then runs the body
_PUBLIC = {
    "classical": classical_integrand,
    "binet_form13": binet_integrand,
    "malmsten_form19": malmsten_integrand,
    "lngamma_direct": lngamma_direct_integrand,
    **{form: f for form, (_, f) in _UNREGISTERED_FORMS.items()},
}
# unregistered form -> its body, which estimator's form-equivalence suite calls
_BODIES = {"binet_form12": integrands._binet12, "malmsten_form18": integrands._malmsten18}


@pytest.mark.parametrize("iid", [*INTEGRAND_IDS, *_BODIES])
def test_registered_body_is_the_public_function_bit_for_bit(iid):
    body = _BODIES[iid] if iid in _BODIES else get_integrand(iid).eval
    if iid == "lngamma_direct":
        points = [0.5 * i / 1000 for i in range(1001)]
    else:
        # each side of the series switch, of classical's u = 2 pi x > 35 and
        # of the t > 30 of Binet's kernel, on a log grid over [1e-8, 700]
        edges = [SERIES_SWITCH_T, 35.0 / (2.0 * math.pi), 30.0]
        points = _log_grid(1e-8, 700.0, 2000) + [
            math.nextafter(e, d) for e in edges for d in (0.0, math.inf)
        ] + edges
    assert body is not _PUBLIC[iid]
    for x in points:
        assert body(x).hex() == _PUBLIC[iid](x).hex(), x


def test_routes_evaluate_the_bodies_inside_their_domains(monkeypatch):
    # The bodies check nothing, so the routes must only ever pass finite
    # t > 0, or x in (0, 1/2] for lngamma_direct.
    calls = dict.fromkeys(INTEGRAND_IDS, 0)

    def checked(iid, spec):
        def f(x):
            assert 0.0 < x <= spec.domain_upper and math.isfinite(x), f"{iid} at {x!r}"
            calls[iid] += 1
            return spec.eval(x)

        return spec._replace(eval=f)

    for iid in INTEGRAND_IDS:
        monkeypatch.setitem(integrands._SPECS, iid, checked(iid, get_integrand(iid)))
    for route in estimator.ROUTES:
        ts = [None] if route == "direct_lgamma" else [None, 5.0, 25.0, 500.0]
        for k in range(11):
            for truncate_at in ts:
                for budget in (None, 42, 129):
                    estimator.ln_a(route, 10.0 ** (-13 + k), truncate_at, budget)
    assert all(calls.values())


def _loop_horner(coeffs, x):
    """The reference Horner loop, highest power first, from acc = 0.0."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize(
    "body, coeffs, switch, x_of_t",
    [
        (integrands._binet13, integrands._BINET_SERIES, SERIES_SWITCH_T, lambda t: t),
        (integrands._malmsten19, integrands._MALMSTEN_SERIES, SERIES_SWITCH_T, lambda t: t),
        (specfun._theta_kernel, specfun._THETA_KERNEL_SERIES, specfun._THETA_KERNEL_SWITCH,
         lambda t: t * t),
    ],
    ids=["binet", "malmsten", "theta_kernel"],
)
def test_straight_line_series_is_the_loop_bit_for_bit(body, coeffs, switch, x_of_t):
    # 10^4 points below the switch: 5000 evenly spaced, 5000 log-spaced from
    # 1e-12, and the switch's lower float neighbour.
    points = [switch * (i + 1) / 5001 for i in range(5000)]
    points += _log_grid(1e-12, switch, 5000)[:-1] + [math.nextafter(switch, 0.0)]
    assert len(points) == 10_000 and max(points) < switch
    for t in points:
        assert body(t).hex() == _loop_horner(coeffs, x_of_t(t)).hex(), t
