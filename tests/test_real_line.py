import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose

import fekete
from fekete import (
    InvalidInputError,
    NumericalError,
    RealWeight,
    SingularParameterError,
    canonical_gamma,
    capacity_real,
    s1_diameter,
    s1_points,
    sgt1_diameter,
    sgt1_log_diameter,
    sgt1_points,
    support_radius,
)
from fekete.cli import main
from fekete.poly import (
    OdeFamily,
    _log_g_at_ai,
    discriminant_resultant,
    jacobi,
    jacobi_discriminant,
    ode_monic_solution,
    ode_residual,
    pochhammer,
    pseudo_jacobi,
    recurrence_family,
    s1_polynomial,
)

SQRT3 = math.sqrt(3.0)


class TestRealWeight:
    def test_rejects_small_s(self):
        with pytest.raises(InvalidInputError):
            RealWeight(a=1.0, s=0.5)

    def test_rejects_zero_a(self):
        with pytest.raises(InvalidInputError):
            RealWeight(a=0.0, s=2.0)

    def test_negative_a_folded(self):
        assert RealWeight(a=-2.0, s=2.0).a == 2.0

    def test_a_outside_the_double_range_bounds_is_rejected(self):
        for a in (1e-300, -1e-300, 1e300, -1e300):
            assert RealWeight(a=a, s=2.0).a == abs(a)
        for a in (math.nextafter(1e-300, 0.0), -5e-324, math.nextafter(1e300, math.inf),
                  -1.7e308):
            with pytest.raises(InvalidInputError, match=r"1e-300 <= \|a\| <= 1e\+300"):
                RealWeight(a=a, s=2.0)
            with pytest.raises(InvalidInputError, match=r"1e-300 <= \|a\| <= 1e\+300"):
                s1_points(a, 4, canonical_gamma(4))

    def test_log_w(self):
        w = RealWeight(a=1.0, s=2.0)
        assert w.log_w(1.0) == pytest.approx(-math.log(2.0))


class TestS1:
    def test_two_points_symmetric(self):
        np.testing.assert_allclose(s1_points(1.0, 2, -math.pi / 4), [-1.0, 1.0],
                                   atol=1e-14)

    def test_four_points(self):
        pts = s1_points(1.0, 4, -3 * math.pi / 8)
        expected = [-(1 + math.sqrt(2)), -(math.sqrt(2) - 1),
                    math.sqrt(2) - 1, 1 + math.sqrt(2)]
        np.testing.assert_allclose(pts, expected, atol=1e-12)

    def test_scaling_in_a(self):
        np.testing.assert_allclose(s1_points(2.0, 2, -math.pi / 4), [-2.0, 2.0],
                                   atol=1e-13)

    @pytest.mark.parametrize("gamma", [-math.pi / 2, -math.pi / 2 + math.pi / 2,
                                       -2.0, 1.0])
    def test_gamma_window_enforced(self, gamma):
        with pytest.raises(InvalidInputError):
            s1_points(1.0, 2, gamma)

    def test_polynomial_n2(self):
        c = s1_polynomial(1.0, 2, -math.pi / 4)
        assert c[1] == pytest.approx(0.0, abs=1e-12)  # B, the x^(n-1) coefficient
        assert_allclose(c, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_polynomial_n3(self):
        c = s1_polynomial(1.0, 3, -math.pi / 3)
        assert c[2] == pytest.approx(0.0, abs=1e-12)
        assert_allclose(c, [0.0, -3.0, 0.0, 1.0], atol=1e-12)
        assert_allclose(s1_points(1.0, 3, -math.pi / 3), [-SQRT3, 0.0, SQRT3], atol=1e-12)

    def test_b_is_negated_point_sum(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9):
            gamma = -math.pi / 2 + float(rng.uniform(0.1, 0.9)) * math.pi / n
            c = s1_polynomial(1.0, n, gamma)
            assert c[n - 1] == pytest.approx(-sum(s1_points(1.0, n, gamma)),
                                             rel=1e-9, abs=1e-9)

    def test_default_gamma_is_canonical(self):
        c = s1_polynomial(1.0, 4)
        assert np.array_equal(c, s1_polynomial(1.0, 4, canonical_gamma(4)))
        assert c[3] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a, n", [(1.0, 1500), (0.5, 1500), (1.3, 1000)])
    def test_polynomial_beyond_double_range_raises(self, a, n):
        with pytest.raises(NumericalError, match=f"a={a!r}, n={n}"):
            s1_polynomial(a, n)

    def test_polynomial_large_n_finite(self):
        c = s1_polynomial(1.0, 1000)
        assert c.size == 1001
        assert np.all(np.isfinite(c))

    def test_diameter(self):
        assert s1_diameter(1.0, 2) == pytest.approx(1.0)
        assert s1_diameter(1.0, 3) == pytest.approx(SQRT3 / 2.0)
        # large-n limit is the s = 1 capacity 1/2
        assert abs(s1_diameter(1.0, 10_000) - 0.5) < 1e-3
        deltas = [s1_diameter(1.0, n) for n in range(2, 40)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestOdeSolution:
    def test_quadratic_member(self):
        sigma = 3.0
        f = ode_monic_solution(OdeFamily(a=1.0, lam=2 * sigma, n=2))
        assert_allclose(f, [-1.0 / (2 * sigma - 1), 0.0, 1.0], atol=1e-12)

    def test_cubic_member(self):
        f = ode_monic_solution(OdeFamily(a=1.0, lam=8.0, n=3))
        assert_allclose(f, [0.0, -0.6, 0.0, 1.0], atol=1e-12)

    def test_a_scaling(self):
        f = ode_monic_solution(OdeFamily(a=2.0, lam=8.0, n=2))
        assert_allclose(f, [-4.0 / 7.0, 0.0, 1.0], atol=1e-12)

    def test_odd_gap_coefficients_exactly_zero(self):
        f = ode_monic_solution(OdeFamily(a=1.0, lam=9.5, n=6))
        assert f[5] == 0.0 and f[3] == 0.0 and f[1] == 0.0

    @pytest.mark.parametrize("lam", [1.0, 2.0])  # n=2 excludes {1, 2}
    def test_excluded_lambda(self, lam):
        with pytest.raises(SingularParameterError):
            OdeFamily(a=1.0, lam=lam, n=2)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(InvalidInputError):
            OdeFamily(a=1.0, lam=lam, n=4)

    @pytest.mark.parametrize("lam", [5.0, 7.0, 9.0])  # 2n - 2k - 1 for n = 6
    @pytest.mark.parametrize("offset", [-2e-12, 2e-12])
    def test_lambda_next_to_a_zero_denominator(self, lam, offset):
        # the constructor keeps lambda off every root of a denominator
        # lambda - 2n + 2k + 1, so the recursion never divides by zero
        f = ode_monic_solution(OdeFamily(a=1.0, lam=lam + offset, n=6))
        assert np.all(np.isfinite(f)) and f[6] == 1.0


class TestPseudoJacobi:
    def test_small_members(self):
        assert_allclose(pseudo_jacobi(1.0, 2.0, 2), [-1.0 / 3.0, 0.0, 1.0], atol=1e-12)
        assert_allclose(pseudo_jacobi(1.0, 2.0, 3), [0.0, -0.6, 0.0, 1.0], atol=1e-12)
        assert_allclose(pseudo_jacobi(1.0, 2.0, 4), [1.0 / 21.0, 0.0, -6.0 / 7.0, 0.0, 1.0],
                        atol=1e-12)

    def test_requires_s_above_one(self):
        with pytest.raises(InvalidInputError):
            pseudo_jacobi(1.0, 1.0, 3)

    def test_lambda_past_the_double_range_is_invalid(self):
        # 2s(n - 1) overflows to inf, which gave x^n
        with pytest.raises(InvalidInputError):
            pseudo_jacobi(1.0, 5e307, 3)

    @pytest.mark.parametrize("a, s, n", [(1.0, 2.0, 1030), (50.0, 2.0, 300)])
    def test_coefficient_beyond_double_range_raises(self, a, s, n):
        # C(1030, 2k) passes the double range (a bare OverflowError before);
        # a^(2k) at a = 50 overflowed to inf coefficients without a word
        with pytest.raises(NumericalError, match=f"a={a!r}, lambda={2 * s * (n - 1)!r}, n={n}"):
            pseudo_jacobi(a, s, n)

    def test_large_n_finite_with_underflowed_constant(self):
        c = pseudo_jacobi(1.0, 2.0, 1000)
        assert np.all(np.isfinite(c)) and c[1000] == 1.0
        assert c[0] == 0.0


def _newton_polished(a, s, n, xs):
    """Each point refined by three Newton steps on G_n(x/a) at 40 digits,
    with G_n and G_n' evaluated by the monic three-term recurrence."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        sigma = mpmath.mpf(s) * (n - 1)
        c = [(k - 1) * (2 * sigma - k + 3) / ((2 * sigma - 2 * k + 3) * (2 * sigma - 2 * k + 5))
             for k in range(2, n + 1)]
        out = []
        for x in xs:
            t = mpmath.mpf(x) / a
            for _ in range(3):
                g_prev, g, d_prev, d = mpmath.mpf(1), t, mpmath.mpf(0), mpmath.mpf(1)
                for ck in c:
                    g_prev, g, d_prev, d = g, t * g - ck * g_prev, d, g + t * d - ck * d_prev
                t -= g / d
            out.append(float(a * t))
    return np.array(out)


class TestSgt1Points:
    @pytest.mark.parametrize("a, s, n", [(1.6, 5.0, 60), (0.6, 1.5, 100), (1.0, 2.0, 200)])
    def test_matches_high_precision_polish(self, a, s, n):
        xs = sgt1_points(a, s, n)
        assert np.all(np.diff(xs) > 0) and np.max(np.abs(xs)) < support_radius(a, s)
        sample = xs[:: n // 50]
        ref = _newton_polished(a, s, n, sample)
        assert np.max(np.abs(sample - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_requires_s_above_one(self):
        with pytest.raises(InvalidInputError):
            sgt1_points(1.0, 1.0, 3)


class TestJacobi:
    def test_degree_zero(self):
        assert_allclose(jacobi(0.3, -4.2, 0), [1.0], atol=1e-12)

    def test_degree_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            al, be = rng.uniform(-5, 5, 2)
            assert_allclose(jacobi(al, be, 1), [(al - be) / 2.0, (al + be + 2) / 2.0],
                            atol=1e-12)

    def test_legendre_two(self):
        assert_allclose(jacobi(0.0, 0.0, 2), [-0.5, 0.0, 1.5], atol=1e-12)

    def test_leading_coefficient_and_value_at_one(self):
        for al, be, n in [(-0.5, 1.3, 4), (-3.7, -3.7, 5), (-7.0, 2.0, 3)]:
            p = jacobi(al, be, n)
            lead = pochhammer(al + be + n + 1, n) / (math.factorial(n) * 2.0 ** n)
            got = p[n] if p.size == n + 1 else 0.0
            assert got == pytest.approx(lead, rel=1e-12, abs=1e-12)
            value_at_one = np.prod([(al + k) / k for k in range(1, n + 1)])
            assert P.polyval(1.0, p) == pytest.approx(value_at_one, rel=1e-10, abs=1e-12)


class TestJacobiDiscriminant:
    def test_legendre_two(self):
        assert jacobi_discriminant(0.0, 0.0, 2) == pytest.approx(3.0)
        assert discriminant_resultant(jacobi(0.0, 0.0, 2)) == pytest.approx(3.0)

    def test_negative_parameters(self):
        assert jacobi_discriminant(-3.0, -3.0, 2) == pytest.approx(-0.75)

    def test_symmetric_in_alpha_beta(self):
        assert jacobi_discriminant(-0.5, 1.3, 5) == pytest.approx(
            jacobi_discriminant(1.3, -0.5, 5), rel=1e-12)

    def test_excluded_lines_rejected(self):
        with pytest.raises(InvalidInputError):
            jacobi_discriminant(-2.0, -2.0, 2)  # alpha + beta = -n - 2


class TestGAtAi:
    def test_values(self):
        assert math.exp(_log_g_at_ai(1.0, 2.0, 2)) == pytest.approx(4.0 / 3.0)
        assert math.exp(_log_g_at_ai(2.0, 2.0, 2)) == pytest.approx(16.0 / 3.0)
        assert math.exp(_log_g_at_ai(1.0, 3.0, 2)) == pytest.approx(6.0 / 5.0)

    @pytest.mark.parametrize("a,s,n", [(1.0, 2.0, 2), (2.0, 2.0, 5), (1.0, 3.0, 7),
                                       (1.5, 1.5, 12)])
    def test_agrees_with_polynomial_value(self, a, s, n):
        direct = abs(P.polyval(a * 1j, pseudo_jacobi(a, s, n)))
        assert math.exp(_log_g_at_ai(a, s, n)) == pytest.approx(direct, rel=1e-11)


def _mp_log_diameter(a, s, n):
    """log delta_n^w for s > 1 from the closed product at 40 digits:
    (1-2s) log 2a + (2/n) log n! - (2s/n) log|(-sigma)_n|
    + (2(s-1)/n) log|(n-2 sigma-1)_n| + T / (n(n-1)), sigma = s(n-1), with
    T = sum_k (k-2n+2) log k + (2k-2) log|k-sigma-1| + (n-k) log|n+k-2 sigma-2|."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        sigma = s * (n - 1)
        l_num = mpmath.fsum(mpmath.log(sigma - i) for i in range(n))
        l_den = mpmath.fsum(mpmath.log(2 * sigma + 1 - n - i) for i in range(n))
        tail = mpmath.fsum((k - 2 * n + 2) * mpmath.log(k)
                           + (2 * k - 2) * mpmath.log(abs(k - sigma - 1))
                           + (n - k) * mpmath.log(abs(n + k - 2 * sigma - 2))
                           for k in range(1, n + 1))
        return float((1 - 2 * s) * mpmath.log(2 * a) + 2 * mpmath.loggamma(n + 1) / n
                     - 2 * s * l_num / n + 2 * (s - 1) * l_den / n + tail / (n * (n - 1)))


def _one_expression_log_diameter(a, s, n):
    """sgt1_log_diameter's sums as one numpy expression each, with fresh
    temporaries: the form whose bits the buffered sums must keep."""
    sig = s * (n - 1)
    i = np.arange(n, dtype=float)
    pairs = n * (n - 1)
    return (
        (1.0 - 2.0 * s) * math.log(a)
        - 0.5 * math.log(2.0 * sig)
        + (2.0 / n) * math.lgamma(n + 1)
        + float(np.sum((i + 3.0 - 2 * n) * np.log(i + 1.0))) / pairs
        + float(np.sum((2.0 * i / pairs - 2.0 * s / n) * np.log1p(-i / sig)))
        + float(np.sum((2.0 * (s - 1.0) / n + (n - 1 - i) / pairs)
                       * np.log1p(-(n - 1 + i) / (2.0 * sig))))
    )


class TestDiameter:
    def test_two_point_value_against_calculus_oracle(self):
        # For n = 2, s = 2, a = 1 the objective over symmetric pairs {-t, t}
        # is 2t/(t^2+1)^2, maximal at t = 1/sqrt(3) by calculus.
        t_star = 1.0 / SQRT3
        oracle = 2.0 * t_star / (t_star ** 2 + 1.0) ** 2
        ts = np.linspace(1e-3, 5.0, 20_001)
        grid_max = np.max(2.0 * ts / (ts ** 2 + 1.0) ** 2)
        assert grid_max <= oracle + 1e-8
        assert sgt1_diameter(1.0, 2.0, 2) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(3.0 * SQRT3 / 8.0, rel=1e-15)

    def test_a_dependence(self):
        base = sgt1_diameter(1.0, 2.0, 2)
        assert sgt1_diameter(2.0, 2.0, 2) == pytest.approx(base * 2.0 ** (1 - 4),
                                                           rel=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.0, 5.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("n", [2, 50, 1000])
    def test_matches_high_precision_product(self, s, n):
        for a in (0.6, 1.0):
            ref = _mp_log_diameter(a, s, n)
            got = sgt1_log_diameter(a, s, n)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
        assert abs(math.log(sgt1_diameter(1.0, s, n)) - _mp_log_diameter(1.0, s, n)) <= 1e-13

    def test_large_n_matches_high_precision_product(self):
        # the uncancelled product was off by 5.7e-13 here
        assert abs(sgt1_log_diameter(1.0, 5.0, 10_000)
                   - _mp_log_diameter(1.0, 5.0, 10_000)) <= 1e-13

    def test_log_beyond_double_range_of_diameter(self, capsys):
        # exp(L) overflows at a = 1e-200 and underflows at a = 1e200
        ref = _mp_log_diameter(1e-200, 2.0, 20)
        assert abs(sgt1_log_diameter(1e-200, 2.0, 20) - ref) <= 1e-13 * max(1.0, abs(ref))
        assert main(["real", "--a", "1e200", "--s", "2", "--n", "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ref = _mp_log_diameter(1e200, 2.0, 20)
        assert abs(payload["log_diameter"] - ref) <= 1e-13 * max(1.0, abs(ref))
        assert payload["diameter"] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 100_000])
    @pytest.mark.parametrize("s", [1.0 + 1e-9, 2.0, 1e8, 1e300])
    @pytest.mark.parametrize("a", [1e-200, 0.5, 1.3])
    def test_bits_match_one_expression_form(self, a, s, n):
        assert math.isfinite(2.0 * s * (n - 1))
        got = sgt1_log_diameter(a, s, n)
        assert got.hex() == _one_expression_log_diameter(a, s, n).hex()

    def test_large_n_reuses_its_pages(self):
        # with fresh temporaries for every term of the three sums, these
        # 20 calls took about 29,000 minor faults; with two buffers 11,000
        code = ("import resource\n"
                "from fekete import sgt1_diameter\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(20):\n"
                "    sgt1_diameter(1.5, 2.0, 100_000)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 18_000

    def test_decreasing_toward_capacity(self):
        cap = capacity_real(2.0)
        deltas = [sgt1_diameter(1.0, 2.0, n) for n in range(2, 51)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] > cap
        assert deltas[-1] - cap < 0.05


class TestRecurrence:
    def test_quadratic_member(self):
        sigma = 2.7
        fam = recurrence_family(sigma, 2)
        assert_allclose(fam[2], [-1.0 / (2 * sigma - 1), 0.0, 1.0], atol=1e-12)

    def test_cubic_member_sigma_four(self):
        fam = recurrence_family(4.0, 3)
        assert_allclose(fam[2], [-1.0 / 7.0, 0.0, 1.0], atol=1e-12)
        assert_allclose(fam[3], [0.0, -0.6, 0.0, 1.0], atol=1e-12)

    def test_matches_pseudo_jacobi_at_sigma(self):
        # sigma = s (n-1) with s = 2, n = 3
        fam = recurrence_family(4.0, 3)
        assert_allclose(fam[3], pseudo_jacobi(1.0, 2.0, 3), atol=1e-14)

    def test_singular_step_reported(self):
        # 2*sigma - 2n + 3 = 0 at n = 4 for sigma = 2.5
        with pytest.raises(SingularParameterError, match="n = 4"):
            recurrence_family(2.5, 6)

    @pytest.mark.parametrize("sigma", [1e308, -1e308, math.inf, math.nan])
    def test_sigma_past_the_double_range_rejected(self, sigma):
        # 2 sigma overflows (or sigma is not a number): rejected before the
        # coefficients, which would be inf / inf under a RuntimeWarning
        with pytest.raises(InvalidInputError, match="2 sigma"):
            recurrence_family(sigma, 4)

    def test_largest_sigma_still_runs(self):
        fam = recurrence_family(8e307, 4)
        assert all(np.isfinite(p).all() for p in fam)


class TestOdeResidual:
    def test_zero_for_extremal_polynomial(self):
        res = ode_residual(pseudo_jacobi(1.0, 2.0, 3), 1.0, 2.0, 3)
        assert np.max(np.abs(res)) <= 1e-12

    def test_zero_at_other_parameters(self):
        res = ode_residual(pseudo_jacobi(2.0, 1.5, 4), 2.0, 1.5, 4)
        assert np.max(np.abs(res)) <= 1e-12

    def test_nonzero_for_wrong_polynomial(self):
        res = ode_residual([0.0, 0.0, 0.0, 1.0], 1.0, 2.0, 3)
        assert_allclose(res, [0.0, 6.0], atol=1e-12)

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            ode_residual([0.0, 0.0, 1.0], 1.0, 2.0, 3)
