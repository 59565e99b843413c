import math

import numpy as np
import pytest

from fekete import (
    CircleWeight,
    InvalidInputError,
    capacity_circle,
    circle_diameter,
    circle_points,
    mobius,
    optimize,
)
from fekete import equilibrium

TWO_PI = 2.0 * math.pi


class TestCircleWeight:
    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_charge_on_circle_rejected(self, b):
        with pytest.raises(InvalidInputError):
            CircleWeight(b)

    def test_log_w(self):
        w = CircleWeight(0.5)
        assert w.log_w(0.0) == pytest.approx(-math.log(0.5))
        assert w.log_w(math.pi) == pytest.approx(-math.log(1.5))


    @pytest.mark.parametrize("b", [1e200, -1e200])
    def test_log_w_at_huge_charge(self, b):
        # b^2 overflows: dist_sq is scaled by unit^2, a power of two
        w = CircleWeight(b)
        for t in (0.0, 1.0, math.pi):
            # log|e^{it} - b| = log|b| + O(1/b)
            assert w.log_w(t) == pytest.approx(-math.log(abs(b)), rel=1e-15)

    @pytest.mark.parametrize("b", [0.5, -0.54, 3.0, 0.999999, 1e200])
    def test_float_and_array_paths_agree_bit_for_bit(self, b):
        # the float path squared through pow, which is not correctly rounded,
        # and differed in the last bit at 56 of these angles at b = 0.5; the
        # array path is the density's, whose sin and cos are libm's, so the
        # comparison does not rest on numpy's sin
        w = CircleWeight(b)
        t = np.linspace(0.0, TWO_PI, 100_000)
        scalar = np.array([w.dist_sq(x) for x in t.tolist()])
        array = w.dist_sq(t, equilibrium._ARRAYS)
        assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()

    def test_unit_is_one_for_moderate_charges(self):
        for b in (0.0, 0.5, -2.5, 10.0, 2.0 ** 127):
            assert CircleWeight(b).unit == 1.0
        assert CircleWeight(2.0 ** 128).unit == 0.5


class TestMobius:
    def test_values(self):
        assert mobius(0.5, 1.0) == pytest.approx(-1.0)
        assert mobius(0.5, -1.0) == pytest.approx(1.0)
        assert mobius(2.0, 1.0) == pytest.approx(-1.0)
        assert mobius(2.0, -1.0) == pytest.approx(1.0)

    def test_b_zero_is_negative_inverse(self):
        w = np.exp(1j * 0.7)
        assert mobius(0.0, w) == pytest.approx(-1.0 / w)

    def test_pole_rejected(self):
        with pytest.raises(InvalidInputError):
            mobius(0.5, 0.5)


class TestCirclePoints:
    def test_two_points(self):
        sol = circle_points(0.5, 2, 0.0)
        np.testing.assert_allclose(sol.angles, [0.0, math.pi], atol=1e-14)
        np.testing.assert_allclose(sol.points, [1.0, -1.0], atol=1e-14)

    def test_equilateral_triangle_at_b_zero(self):
        sol = circle_points(0.0, 3, 0.0)
        expected = sorted(np.mod(np.angle([-1.0,
                                           -np.exp(-2j * math.pi / 3),
                                           -np.exp(-4j * math.pi / 3)]), TWO_PI))
        np.testing.assert_allclose(sol.angles, expected, atol=1e-12)
        gaps = np.diff(list(sol.angles) + [sol.angles[0] + TWO_PI])
        np.testing.assert_allclose(gaps, TWO_PI / 3, atol=1e-12)

    def test_outside_charge(self):
        sol = circle_points(2.0, 2, 0.0)
        np.testing.assert_allclose(sorted(z.real for z in sol.points), [-1.0, 1.0],
                                   atol=1e-14)

    def test_unit_modulus_and_preimage_spacing(self):
        for b in (0.5, -0.5, 2.0, 10.0):
            for n in (2, 5, 9):
                sol = circle_points(b, n, 0.37)
                pts = np.asarray(sol.points)
                assert np.max(np.abs(np.abs(pts) - 1.0)) <= 1e-12
                pre = np.sort(np.mod(np.angle(mobius(b, pts)), TWO_PI))
                gaps = np.diff(np.concatenate([pre, [pre[0] + TWO_PI]]))
                assert np.max(np.abs(gaps - TWO_PI / n)) <= 1e-9


class TestAngleRange:
    """Angles are reported sorted in [0, 2 pi): np.mod maps an argument just
    below 0 to 2 pi itself, which must come out as 0."""

    @staticmethod
    def in_range(angles):
        t = np.asarray(angles)
        return bool(np.all(t >= 0.0) and np.all(t < TWO_PI) and np.all(np.diff(t) > 0.0))

    def test_closed_form(self):
        for b in (0.0, 0.3, -0.3, 0.5, -0.7, 0.9, -0.9, 2.0, -2.0, 10.0, -10.0):
            for n in range(2, 13):
                for alpha in np.linspace(0.0, TWO_PI, 7):
                    assert self.in_range(circle_points(b, n, alpha).angles), (b, n, alpha)

    def test_optimizer(self):
        for b in (0.0, 0.5, -0.5, 0.9, -0.9, 2.0, -2.0, 10.0, -10.0):
            for n in (2, 3, 4, 5, 8, 12):
                assert self.in_range(optimize(CircleWeight(b), n).points), (b, n)


class TestCircleDiameter:
    def test_unweighted_case(self):
        assert circle_diameter(0.0, 2) == pytest.approx(2.0)

    def test_half(self):
        assert circle_diameter(0.5, 2) == pytest.approx(8.0 / 3.0)

    def test_outside_charge(self):
        assert circle_diameter(2.0, 4) == pytest.approx(4.0 ** (1.0 / 3.0) / 3.0)

    @pytest.mark.parametrize("b", [0.999999, -0.999999, 0.99999999, 1.000001])
    def test_next_to_the_charge_against_high_precision(self, b):
        # 1 - b*b cancels here: 1.1e-11 relative off at b = +-0.999999
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            bb = mpmath.mpf(b)
            cap = 1 / abs(1 - bb * bb)
            refs = {n: float(mpmath.mpf(n) ** (mpmath.mpf(1) / (n - 1)) * cap)
                    for n in (2, 10, 1000)}
            ref_cap = float(cap)
        assert abs(capacity_circle(b) - ref_cap) <= 4 * math.ulp(ref_cap)
        for n, ref in refs.items():
            assert abs(circle_diameter(b, n) - ref) <= 4 * math.ulp(ref), n

    def test_two_point_oracle(self):
        # brute-force the two-point maximization over angle pairs
        ts = np.linspace(0.0, TWO_PI, 721)
        b = 0.5
        best = 0.0
        for i, t1 in enumerate(ts):
            z1 = np.exp(1j * t1)
            z2 = np.exp(1j * ts[i + 1:])
            vals = np.abs(z1 - z2) / (np.abs(z1 - b) * np.abs(z2 - b))
            if vals.size:
                best = max(best, float(np.max(vals)))
        assert best <= circle_diameter(b, 2) + 1e-9
        assert best == pytest.approx(circle_diameter(b, 2), rel=1e-4)
