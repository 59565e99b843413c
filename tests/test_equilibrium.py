import math

import numpy as np
import pytest
from scipy.integrate import quad

from fekete import (
    InvalidInputError,
    MeasureSpec,
    capacity_circle,
    capacity_real,
    cdf,
    density,
    frostman_check,
    ks_distance,
    log_potential,
    modified_robin_constant,
    total_mass,
)

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


class TestDensity:
    def test_real_sgt1_at_zero(self):
        m = MeasureSpec.real_sgt1(2.0)
        assert density(m, 0.0) == pytest.approx(SQRT3 / math.pi)
        assert m.support == (-SQRT3, SQRT3)

    def test_arctan_at_zero(self):
        assert density(MeasureSpec.arctan(), 0.0) == pytest.approx(1.0 / math.pi)

    def test_circle_poisson(self):
        m = MeasureSpec.circle_poisson(0.5)
        assert density(m, 0.0) == pytest.approx(3.0 / TWO_PI)
        uniform = MeasureSpec.circle_poisson(0.0)
        for t in (0.0, 1.0, 4.0):
            assert density(uniform, t) == pytest.approx(1.0 / TWO_PI)

    def test_outside_support_is_zero(self):
        m = MeasureSpec.real_sgt1(2.0)
        assert density(m, 5.0) == 0.0
        assert density(MeasureSpec.harmonic_inf(1.0), 2.0) == 0.0

    def test_endpoint_density_vanishes(self):
        for s in (1.5, 2.0, 5.0):
            m = MeasureSpec.real_sgt1(s)
            assert density(m, m.support[0]) == 0.0
            assert density(m, m.support[1]) == 0.0

    def test_harmonic_combination_identity(self):
        s = 2.0
        target = MeasureSpec.real_sgt1(s)
        m_i = MeasureSpec.harmonic_i(SQRT3)
        m_inf = MeasureSpec.harmonic_inf(SQRT3)
        for x in np.linspace(-SQRT3, SQRT3, 102)[1:-1]:
            combo = s * density(m_i, x) - (s - 1.0) * density(m_inf, x)
            assert abs(combo - density(target, x)) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            MeasureSpec.real_sgt1(1.0)
        with pytest.raises(InvalidInputError):
            MeasureSpec.circle_poisson(1.0)
        with pytest.raises(InvalidInputError):
            MeasureSpec.harmonic_inf(0.0)


class TestMass:
    @pytest.mark.parametrize("m", [
        MeasureSpec.real_sgt1(1.5),
        MeasureSpec.real_sgt1(2.0),
        MeasureSpec.real_sgt1(5.0),
        MeasureSpec.arctan(),
        MeasureSpec.circle_poisson(0.0),
        MeasureSpec.circle_poisson(0.5),
        MeasureSpec.circle_poisson(2.0),
        MeasureSpec.circle_poisson(-0.5),
        MeasureSpec.harmonic_inf(1.0),
        MeasureSpec.harmonic_inf(SQRT3),
        MeasureSpec.harmonic_i(1.0),
        MeasureSpec.harmonic_i(SQRT3),
    ], ids=str)
    def test_unit_mass(self, m):
        assert abs(total_mass(m) - 1.0) <= 1e-8


class TestCdf:
    def test_arctan_closed_form(self):
        m = MeasureSpec.arctan()
        assert cdf(m, 0.0) == pytest.approx(0.5)
        assert cdf(m, 1.0) == pytest.approx(0.75)

    def test_full_mass_at_right_endpoint(self):
        m = MeasureSpec.real_sgt1(2.0)
        assert cdf(m, SQRT3) == pytest.approx(1.0)
        assert cdf(m, -SQRT3) == 0.0
        assert cdf(m, 10.0) == 1.0

    def test_symmetry(self):
        m = MeasureSpec.real_sgt1(2.0)
        assert cdf(m, 0.0) == pytest.approx(0.5, abs=1e-10)
        assert cdf(m, 0.7) + cdf(m, -0.7) == pytest.approx(1.0, abs=1e-9)

    def test_harmonic_inf_is_arcsine_law(self):
        m = MeasureSpec.harmonic_inf(2.0)
        for x in (-1.5, 0.0, 0.4, 1.9):
            expected = 0.5 + math.asin(x / 2.0) / math.pi
            assert cdf(m, x) == pytest.approx(expected, abs=1e-9)

    def test_left_edge_of_arcsine_law(self):
        # 1.9e-6 inside the left edge, where r^2 - x^2 cancels
        mpmath = pytest.importorskip("mpmath")
        r, x = 1.7461343035679293, -1.7461324161603549
        with mpmath.workdps(40):
            expected = float(0.5 + mpmath.asin(mpmath.mpf(x) / r) / mpmath.pi)
        assert abs(cdf(MeasureSpec.harmonic_inf(r), x) - expected) <= 1e-15

    @pytest.mark.parametrize("b", [-0.5, 2.0, -3.0])
    def test_circle_poisson_matches_quadrature(self, b):
        m = MeasureSpec.circle_poisson(b)
        for t in (0.3, 2.0, math.pi, 4.0, 6.0):
            expected = quad(lambda u: density(m, u), 0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
            assert cdf(m, t) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", [
        MeasureSpec.real_sgt1(2.0),
        MeasureSpec.harmonic_i(SQRT3),
        MeasureSpec.circle_poisson(0.5),
    ], ids=str)
    def test_nondecreasing(self, m):
        lo, hi = m.support
        vals = [cdf(m, x) for x in np.linspace(lo, hi, 41)]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)


class TestCapacity:
    def test_s_equals_one(self):
        assert capacity_real(1.0) == 0.5

    def test_s_equals_two(self):
        assert capacity_real(2.0) == pytest.approx(3.0 ** 4.5 / 512.0, rel=1e-14)

    def test_continuous_at_one(self):
        assert abs(capacity_real(1.0 + 1e-8) - 0.5) < 1e-6

    def test_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            capacity_real(0.9)

    def test_robin_constant_expansion(self):
        for s in (1.5, 2.0, 5.0):
            expansion = (-((2 * s - 1) ** 2 / 2.0) * math.log(2 * s - 1)
                         + (s - 1) ** 2 * math.log(s - 1)
                         + s * s * math.log(s)
                         + (2 * s * s - 2 * s + 1) * math.log(2.0))
            v = -math.log(capacity_real(s))
            assert abs(v - expansion) <= 1e-12 * max(1.0, abs(v))

    def test_circle(self):
        assert capacity_circle(0.0) == pytest.approx(1.0)
        assert capacity_circle(0.5) == pytest.approx(4.0 / 3.0)
        assert capacity_circle(2.0) == pytest.approx(1.0 / 3.0)


class TestModifiedRobin:
    def test_s_two_value(self):
        # r = sqrt(3), green value log sqrt(3): F = 2 log sqrt(3) + log(sqrt(3)/2)
        assert modified_robin_constant(2.0) == pytest.approx(
            math.log(3.0 * SQRT3 / 2.0), rel=1e-14)
        assert modified_robin_constant(2.0) == pytest.approx(0.9547713, abs=1e-7)

    @pytest.mark.parametrize("s", [2.0, 5.0])
    def test_consistency_with_field_integral(self, s):
        # F = V + int log w dmu = -log cap - s * int log|x - i| dmu
        m = MeasureSpec.real_sgt1(s)
        r = m.support[1]
        integral = quad(
            lambda th: 0.5 * math.log(1.0 + (r * math.sin(th)) ** 2)
            * density(m, r * math.sin(th)) * r * math.cos(th),
            -math.pi / 2, math.pi / 2, epsabs=1e-12, epsrel=1e-12)[0]
        rhs = -math.log(capacity_real(s)) - s * integral
        assert abs(modified_robin_constant(s) - rhs) <= 1e-6

    def test_requires_s_above_one(self):
        with pytest.raises(InvalidInputError):
            modified_robin_constant(1.0)


class TestFrostman:
    def test_equality_deep_inside(self):
        s = 2.0
        m = MeasureSpec.real_sgt1(s)
        f_const = modified_robin_constant(s)
        u = log_potential(m, 0.0)
        assert abs(u + 0.0 - f_const) <= 1e-8  # Q(0) = 0

    def test_strictly_positive_far_outside(self):
        s = 2.0
        m = MeasureSpec.real_sgt1(s)
        x = 10.0
        u = log_potential(m, x)
        q = 0.5 * s * math.log(1 + x * x)
        assert u + q - modified_robin_constant(s) > 1e-3

    def test_report_over_grid(self):
        report = frostman_check(2.0, np.linspace(-3.0, 3.0, 61))
        assert report.frostman_max_violation <= 1e-6
        assert report.frostman_max_onsupport_deviation <= 1e-6
        assert report.robin_constant == pytest.approx(-math.log(report.capacity))
        assert report.modified_robin == pytest.approx(math.log(3 * SQRT3 / 2))

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(InvalidInputError):
            frostman_check(2.0, [0.0, math.inf])


class TestKsDistance:
    def test_uniform_vs_uniform(self):
        for n in (4, 9, 25):
            angles = TWO_PI * np.arange(n) / n
            assert ks_distance(angles, MeasureSpec.circle_poisson(0.0)) <= 1.0 / n + 1e-12

    def test_single_point_at_median(self):
        assert ks_distance([0.0], MeasureSpec.arctan()) == pytest.approx(0.5)

    def test_log_potential_rejects_circle(self):
        with pytest.raises(InvalidInputError):
            log_potential(MeasureSpec.circle_poisson(0.5), 0.0)
