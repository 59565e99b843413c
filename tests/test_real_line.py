import math

import numpy as np
import pytest

from fekete import (
    InvalidInputError,
    OdeFamily,
    Poly,
    RealWeight,
    SingularParameterError,
    canonical_gamma,
    discriminant_resultant,
    g_at_ai,
    jacobi,
    jacobi_discriminant,
    ode_monic_solution,
    ode_residual,
    pochhammer,
    pseudo_jacobi,
    recurrence_family,
    roots,
    s1_diameter,
    s1_points,
    s1_polynomial,
    sgt1_diameter,
    sgt1_diameter_routes,
    support_radius,
)
from fekete.real_line import gj_scale

SQRT3 = math.sqrt(3.0)


def coeffs_close(p: Poly, expected, atol=1e-12):
    got = np.zeros(len(expected), dtype=complex)
    got[: p.degree + 1] = p.coeffs
    np.testing.assert_allclose(got.real, expected, atol=atol)
    np.testing.assert_allclose(got.imag, 0.0, atol=atol)


class TestRealWeight:
    def test_rejects_small_s(self):
        with pytest.raises(InvalidInputError):
            RealWeight(a=1.0, s=0.5)

    def test_rejects_zero_a(self):
        with pytest.raises(InvalidInputError):
            RealWeight(a=0.0, s=2.0)

    def test_negative_a_folded(self):
        assert RealWeight(a=-2.0, s=2.0).a == 2.0

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
        sol = s1_polynomial(1.0, 2, -math.pi / 4)
        assert sol.B == pytest.approx(0.0, abs=1e-12)
        coeffs_close(sol.poly, [-1.0, 0.0, 1.0])

    def test_polynomial_n3(self):
        sol = s1_polynomial(1.0, 3, -math.pi / 3)
        assert sol.B == pytest.approx(0.0, abs=1e-12)
        coeffs_close(sol.poly, [0.0, -3.0, 0.0, 1.0])
        np.testing.assert_allclose(sol.points, [-SQRT3, 0.0, SQRT3], atol=1e-12)

    def test_b_is_negated_point_sum(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9):
            gamma = -math.pi / 2 + float(rng.uniform(0.1, 0.9)) * math.pi / n
            sol = s1_polynomial(1.0, n, gamma)
            assert sol.B == pytest.approx(-sum(sol.points), rel=1e-9, abs=1e-9)

    def test_roots_match_points(self):
        rng = np.random.default_rng(17)
        for n in (2, 7, 15, 30):
            for _ in range(5):
                gamma = -math.pi / 2 + float(rng.uniform(0.1, 0.9)) * math.pi / n
                sol = s1_polynomial(1.0, n, gamma)
                rts = np.sort(roots(sol.poly).real)
                assert np.max(np.abs(rts - np.asarray(sol.points))) <= 1e-9

    def test_default_gamma_is_canonical(self):
        sol = s1_polynomial(1.0, 4)
        assert sol.gamma == pytest.approx(canonical_gamma(4))
        assert sol.B == pytest.approx(0.0, abs=1e-12)

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
        coeffs_close(f, [-1.0 / (2 * sigma - 1), 0.0, 1.0])

    def test_cubic_member(self):
        f = ode_monic_solution(OdeFamily(a=1.0, lam=8.0, n=3))
        coeffs_close(f, [0.0, -0.6, 0.0, 1.0])

    def test_a_scaling(self):
        f = ode_monic_solution(OdeFamily(a=2.0, lam=8.0, n=2))
        coeffs_close(f, [-4.0 / 7.0, 0.0, 1.0])

    def test_odd_gap_coefficients_exactly_zero(self):
        f = ode_monic_solution(OdeFamily(a=1.0, lam=9.5, n=6))
        assert f.coeffs[5] == 0.0 and f.coeffs[3] == 0.0 and f.coeffs[1] == 0.0

    @pytest.mark.parametrize("lam", [1.0, 2.0])  # n=2 excludes {1, 2}
    def test_excluded_lambda(self, lam):
        with pytest.raises(SingularParameterError):
            OdeFamily(a=1.0, lam=lam, n=2)


class TestPseudoJacobi:
    def test_small_members(self):
        coeffs_close(pseudo_jacobi(1.0, 2.0, 2), [-1.0 / 3.0, 0.0, 1.0])
        coeffs_close(pseudo_jacobi(1.0, 2.0, 3), [0.0, -0.6, 0.0, 1.0])
        coeffs_close(pseudo_jacobi(1.0, 2.0, 4), [1.0 / 21.0, 0.0, -6.0 / 7.0, 0.0, 1.0])

    def test_requires_s_above_one(self):
        with pytest.raises(InvalidInputError):
            pseudo_jacobi(1.0, 1.0, 3)

    @pytest.mark.parametrize("s", [1.5, 2.0])
    def test_roots_real_simple_symmetric_inside_support(self, s):
        radius = support_radius(1.0, s)
        for n in range(2, 31):
            rts = roots(pseudo_jacobi(1.0, s, n))
            assert np.max(np.abs(rts.imag)) <= 1e-9
            xs = np.sort(rts.real)
            assert np.max(np.abs(xs + xs[::-1])) <= 1e-9  # symmetric about 0
            assert np.min(np.diff(xs)) > 0  # simple
            assert np.max(np.abs(xs)) < radius


class TestJacobi:
    def test_degree_zero(self):
        coeffs_close(jacobi(0.3, -4.2, 0), [1.0])

    def test_degree_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            al, be = rng.uniform(-5, 5, 2)
            coeffs_close(jacobi(al, be, 1), [(al - be) / 2.0, (al + be + 2) / 2.0])

    def test_legendre_two(self):
        coeffs_close(jacobi(0.0, 0.0, 2), [-0.5, 0.0, 1.5])

    def test_leading_coefficient_and_value_at_one(self):
        for al, be, n in [(-0.5, 1.3, 4), (-3.7, -3.7, 5), (-7.0, 2.0, 3)]:
            p = jacobi(al, be, n)
            lead = pochhammer(al + be + n + 1, n) / (math.factorial(n) * 2.0 ** n)
            got = p.coeffs[n].real if p.degree == n else 0.0
            assert got == pytest.approx(lead, rel=1e-12, abs=1e-12)
            value_at_one = np.prod([(al + k) / k for k in range(1, n + 1)])
            assert p.eval(1.0).real == pytest.approx(value_at_one, rel=1e-10, abs=1e-12)


class TestJacobiDiscriminant:
    def test_legendre_two(self):
        assert jacobi_discriminant(0.0, 0.0, 2) == pytest.approx(3.0)
        assert discriminant_resultant(jacobi(0.0, 0.0, 2)).real == pytest.approx(3.0)

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
        assert g_at_ai(1.0, 2.0, 2) == pytest.approx(4.0 / 3.0)
        assert g_at_ai(2.0, 2.0, 2) == pytest.approx(16.0 / 3.0)
        assert g_at_ai(1.0, 3.0, 2) == pytest.approx(6.0 / 5.0)

    @pytest.mark.parametrize("a,s,n", [(1.0, 2.0, 2), (2.0, 2.0, 5), (1.0, 3.0, 7),
                                       (1.5, 1.5, 12)])
    def test_agrees_with_polynomial_value(self, a, s, n):
        direct = abs(pseudo_jacobi(a, s, n).eval(a * 1j))
        assert g_at_ai(a, s, n) == pytest.approx(direct, rel=1e-11)


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

    def test_routes_agree(self):
        for s in (1.5, 2.0, 3.25):
            for n in range(2, 21):
                direct, via_disc = sgt1_diameter_routes(1.0, s, n)
                assert abs(direct - via_disc) <= 1e-10 * direct

    def test_decreasing_toward_capacity(self):
        from fekete import capacity_real

        cap = capacity_real(2.0)
        deltas = [sgt1_diameter(1.0, 2.0, n) for n in range(2, 51)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] > cap
        assert deltas[-1] - cap < 0.05


class TestGJConnection:
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.25])
    def test_coefficients_match(self, s):
        for n in range(2, 21):
            g = pseudo_jacobi(1.0, s, n)
            al = -s * (n - 1) - 1.0
            p = jacobi(al, al, n)
            c = gj_scale(1.0, s, n)
            composed = np.array([c * p.coeffs[k] * (-1j) ** k for k in range(n + 1)])
            scale = np.max(np.abs(g.coeffs))
            assert np.max(np.abs(composed.real - g.coeffs.real)) <= 1e-10 * scale
            assert np.max(np.abs(composed.imag)) <= 1e-12


class TestRecurrence:
    def test_quadratic_member(self):
        sigma = 2.7
        fam = recurrence_family(sigma, 2)
        coeffs_close(fam[2], [-1.0 / (2 * sigma - 1), 0.0, 1.0])

    def test_cubic_member_sigma_four(self):
        fam = recurrence_family(4.0, 3)
        coeffs_close(fam[2], [-1.0 / 7.0, 0.0, 1.0])
        coeffs_close(fam[3], [0.0, -0.6, 0.0, 1.0])

    def test_matches_pseudo_jacobi_at_sigma(self):
        # sigma = s (n-1) with s = 2, n = 3
        fam = recurrence_family(4.0, 3)
        np.testing.assert_allclose(fam[3].coeffs.real,
                                   pseudo_jacobi(1.0, 2.0, 3).coeffs.real,
                                   atol=1e-14)

    def test_matches_ode_family_where_defined(self):
        for sigma in (3.0, 4.0, 10.0):
            fam = recurrence_family(sigma, 15)
            for n in range(2, 16):
                try:
                    ref = ode_monic_solution(OdeFamily(a=1.0, lam=2 * sigma, n=n))
                except SingularParameterError:
                    continue
                scale = max(1.0, float(np.max(np.abs(ref.coeffs))))
                got = np.zeros(n + 1, dtype=complex)
                got[: fam[n].degree + 1] = fam[n].coeffs
                assert np.max(np.abs(got - ref.coeffs)) <= 1e-12 * scale

    def test_singular_step_reported(self):
        # 2*sigma - 2n + 3 = 0 at n = 4 for sigma = 2.5
        with pytest.raises(SingularParameterError, match="n = 4"):
            recurrence_family(2.5, 6)


class TestOdeResidual:
    def test_zero_for_extremal_polynomial(self):
        res = ode_residual(pseudo_jacobi(1.0, 2.0, 3), 1.0, 2.0, 3)
        assert np.max(np.abs(res.coeffs)) <= 1e-12

    def test_zero_at_other_parameters(self):
        res = ode_residual(pseudo_jacobi(2.0, 1.5, 4), 2.0, 1.5, 4)
        assert np.max(np.abs(res.coeffs)) <= 1e-12

    def test_nonzero_for_wrong_polynomial(self):
        res = ode_residual(Poly([0.0, 0.0, 0.0, 1.0]), 1.0, 2.0, 3)
        coeffs_close(res, [0.0, 6.0])

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            ode_residual(Poly([0.0, 0.0, 1.0]), 1.0, 2.0, 3)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.25])
    def test_scaled_residual_over_range(self, s):
        for n in range(2, 31):
            f = pseudo_jacobi(1.0, s, n)
            res = ode_residual(f, 1.0, s, n)
            scale = n * (2 * s * (n - 1) - n + 1) * np.max(np.abs(f.coeffs))
            assert np.max(np.abs(res.coeffs)) <= 1e-10 * scale
