import math

import pytest

from glaisher import specfun
from glaisher.specfun import (
    _theta_kernel,
    binet_theta,
    glaisher_seq_log_term,
    log_gamma_plus_one,
    malmsten_log_gamma,
)

LN_A = 0.2487544770337843


class TestLogGamma:
    def test_exact_zeros(self):
        assert log_gamma_plus_one(0.0) == 0.0
        assert log_gamma_plus_one(1.0) == 0.0

    def test_half(self):
        # Gamma(3/2) = sqrt(pi)/2
        expected = 0.5 * math.log(math.pi) - math.log(2.0)
        assert log_gamma_plus_one(0.5) == pytest.approx(expected, abs=1e-13)

    def test_against_stdlib(self):
        mpmath = pytest.importorskip("mpmath")
        for i in range(1, 200):
            x = i * 0.05
            mine = log_gamma_plus_one(x)
            with mpmath.workdps(30):
                ref = float(mpmath.loggamma(x + 1.0))
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_recurrence(self):
        # lnGamma(x+1) - lnGamma(x) = ln x on 100 points of (0, 10]
        for i in range(1, 101):
            x = i * 0.1
            lhs = log_gamma_plus_one(x) - log_gamma_plus_one(x - 1.0)
            assert abs(lhs - math.log(x)) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_plus_one(-1.0)
        with pytest.raises(ValueError):
            log_gamma_plus_one(-2.5)

    def test_deterministic(self):
        assert log_gamma_plus_one(3.7) == log_gamma_plus_one(3.7)


class TestBinetTheta:
    def test_kernel_at_one(self):
        # (1/(e-1) - 1 + 1/2) at t = 1
        assert _theta_kernel(1.0) == pytest.approx(0.08197670686932642, abs=1e-15)

    def test_kernel_seam(self):
        t0 = 0.25
        series = _theta_kernel(t0 * (1.0 - 1e-16))
        em = math.expm1(t0)
        direct = ((t0 - em) / (t0 * em) + 0.5) / t0
        assert abs(series - direct) <= 1e-14

    def test_theta_half(self):
        res = binet_theta(0.5, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.1534264098, abs=1e-8)
        assert res.error_estimate <= 1e-10

    def test_theta_large_x_stirling(self):
        res = binet_theta(50.0, 1e-8)
        assert abs(res.value - 1.0 / 600.0) <= 1e-4

    def test_binet_identity_grid(self):
        # lnGamma(x+1) = x ln x - x + (1/2) ln(2 pi x) + theta(x)
        for x in (0.25, 0.5, 1.0, 2.0, 5.0):
            theta = binet_theta(x, 1e-11).value
            rhs = x * math.log(x) - x + 0.5 * math.log(2.0 * math.pi * x) + theta
            assert abs(log_gamma_plus_one(x) - rhs) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13])
    def test_theta_100_against_mpmath(self, tol):
        # x = 100 is the top of the domain; the bar still holds there.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.mpf(100)
            stirling = (x - 0.5) * mpmath.log(x) - x + mpmath.log(2 * mpmath.pi) / 2
            truth = float(mpmath.loggamma(x) - stirling)
        res = binet_theta(100.0, tol)
        assert res.converged
        assert abs(res.value - truth) <= res.error_estimate <= tol

    def test_domain(self):
        # Above x = 100 the bar fails from x ~ 150 (theta(1000) at tol 1e-6
        # misses it by 2e7x), and below x = 0.1 too: theta(1.6e-4) at tol 1e-4
        # and theta(1e-9) at tol 1e-12 return converged=True with an error
        # 1.5e4x and 38x their bar.
        for x in (0.0, 1e-9, 0.0999, -1.0, 100.5, 1000.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                binet_theta(x)
        for x, tol in ((0.0001625512117582549, 1e-4), (0.01744652134969198, 1e-4), (1e-9, 1e-12)):
            with pytest.raises(ValueError):
                binet_theta(x, tol)
        with pytest.raises(ValueError):
            binet_theta(1.0, tol=0.5)

    def test_bar_holds_near_the_lower_end(self):
        # Where the bar is tightest: 91 points of [0.1, 1] at every decade of tol.
        mpmath = pytest.importorskip("mpmath")
        misses = []
        for i in range(91):
            x = 0.1 + 0.01 * i
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                stirling = (xm - 0.5) * mpmath.log(xm) - xm + mpmath.log(2 * mpmath.pi) / 2
                truth = float(mpmath.loggamma(xm) - stirling)
            for k in range(2, 15):
                res = binet_theta(x, 10.0**-k)
                if not abs(res.value - truth) <= res.error_estimate:
                    misses.append((x, k))
                if res.converged and res.error_estimate > 10.0**-k:
                    misses.append((x, k))
        assert not misses


class TestMalmstenLogGamma:
    def test_trivial_zeros(self):
        assert malmsten_log_gamma(0.0, 1e-10).value == pytest.approx(0.0, abs=1e-12)
        assert malmsten_log_gamma(1.0, 1e-10).value == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        res = malmsten_log_gamma(0.5, 1e-10)
        assert res.value == pytest.approx(-0.1207822376, abs=1e-7)
        assert res.value == pytest.approx(log_gamma_plus_one(0.5), abs=1e-9)

    def test_agreement_grid(self):
        for z in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            res = malmsten_log_gamma(z, 1e-11)
            assert res.converged
            assert abs(res.value - log_gamma_plus_one(z)) <= 1e-9

    def test_domain(self):
        for z in (-0.1, -math.inf, math.nan, math.inf):
            with pytest.raises(ValueError):
                malmsten_log_gamma(z)


def _exact_term(mpmath, n, ln_g):
    """The limit-sequence term at n in mpmath, given ln G(n+1)."""
    m = mpmath.mpf(n)
    return (
        m / 2 * mpmath.log(2 * mpmath.pi)
        + (m * m / 2 - mpmath.mpf(1) / 12) * mpmath.log(m)
        - 3 * m * m / 4
        + mpmath.mpf(1) / 12
        - ln_g
    )


class TestGlaisherSequence:
    def test_first_term_closed_form(self):
        expected = 0.5 * math.log(2.0 * math.pi) - 2.0 / 3.0
        assert glaisher_seq_log_term(1) == pytest.approx(expected, abs=1e-14)

    def test_term_100(self):
        assert abs(glaisher_seq_log_term(100) - LN_A) <= 1e-4

    def test_error_monotone(self):
        errs = [abs(glaisher_seq_log_term(n) - LN_A) for n in (10, 20, 50, 100)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_all_finite(self):
        for n in (1, 2, 3, 7, 31):
            assert math.isfinite(glaisher_seq_log_term(n))

    def test_domain(self):
        with pytest.raises(ValueError):
            glaisher_seq_log_term(0)

    @pytest.mark.parametrize("n", [100_001, 10**9])
    def test_rejects_n_above_n_max_before_any_table(self, n, monkeypatch):
        empty = ([0, 0], [0, 0])
        monkeypatch.setattr(specfun, "_SUMS", empty)
        with pytest.raises(ValueError):
            glaisher_seq_log_term(n)
        assert specfun._SUMS is empty
        assert empty == ([0, 0], [0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 1000, 1024, 4096, 77777, 99991, 100000])
    def test_within_one_ulp_of_mpmath(self, n):
        """The term is the exact value correctly rounded (within half an ulp)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            exact = _exact_term(mpmath, n, mpmath.log(mpmath.barnesg(n + 1)))
            assert glaisher_seq_log_term(n) == float(exact)

    def test_correctly_rounded_at_every_n_to_1000(self):
        """As above at every n <= 1000, with ln G(n+1) = sum_{k<n} ln k! in mpmath."""
        mpmath = pytest.importorskip("mpmath")
        misses = []
        with mpmath.workdps(60):
            ln_fact = ln_g = mpmath.mpf(0)  # ln (n-1)! and ln G(n+1)
            for n in range(1, 1001):
                ln_g += ln_fact
                if glaisher_seq_log_term(n) != float(_exact_term(mpmath, n, ln_g)):
                    misses.append(n)
                ln_fact += mpmath.log(n)
        assert not misses

    def test_independent_of_earlier_calls(self, monkeypatch):
        # A call at 1e5 grows the running sums past 77777; fresh sums are
        # grown to 77777 itself.  Both hold the same entries and give the
        # same bits.
        monkeypatch.setattr(specfun, "_SUMS", ([0, 0], [0, 0]))
        glaisher_seq_log_term(100_000)
        after_growth = glaisher_seq_log_term(77777)
        grown = specfun._SUMS
        monkeypatch.setattr(specfun, "_SUMS", ([0, 0], [0, 0]))
        fresh = glaisher_seq_log_term(77777)
        s1, s2 = specfun._SUMS
        assert len(s1) == 77778
        assert (s1, s2) == (grown[0][:77778], grown[1][:77778])
        assert after_growth.hex() == fresh.hex()

    def test_ln_2pi_matches_an_mpmath_derivation(self):
        """The frozen 2^_BITS ln 2 pi is the integer nearest it at 320 bits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(320):
            exact = mpmath.ldexp(mpmath.log(2 * mpmath.pi), specfun._BITS)
            assert specfun._LN_2PI == int(mpmath.nint(exact))

    @pytest.mark.parametrize("k", [2, 3, 99991, 100_000])
    def test_table_logarithms(self, k):
        """ln k = S1[k] - S1[k-1], summed along the acoth chain, is within 2^-170."""
        mpmath = pytest.importorskip("mpmath")
        s1, _ = specfun._sums(k)
        with mpmath.workdps(80):
            scaled = mpmath.mpf(s1[k] - s1[k - 1])
            err = scaled / 2 ** (specfun._BITS + specfun._GUARD) - mpmath.log(k)
            assert abs(err) <= mpmath.mpf(2) ** -170
