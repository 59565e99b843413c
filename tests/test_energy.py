import math

import numpy as np
import pytest

from fekete import (
    CircleWeight,
    DegenerateInputError,
    InvalidInputError,
    OptimizerConfig,
    RealWeight,
    circle_diameter,
    circle_points,
    discrete_energy,
    energy_gradient,
    log_weighted_vandermonde,
    mobius,
    optimize,
    pseudo_jacobi,
    roots,
    s1_diameter,
    scaled_residual,
    sgt1_diameter,
    sgt1_points,
    sine_product,
    sine_product_bound,
)
from fekete.energy import RESIDUAL_TOL

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


class TestLogWeightedVandermonde:
    def test_s1_pair(self):
        assert log_weighted_vandermonde([-1.0, 1.0], RealWeight(1.0, 1.0)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_s2_pair(self):
        val = log_weighted_vandermonde([-1 / SQRT3, 1 / SQRT3], RealWeight(1.0, 2.0))
        assert val == pytest.approx(-3.0 * math.log(2.0 / SQRT3), rel=1e-12)
        assert math.exp(val) == pytest.approx(3.0 * SQRT3 / 8.0)  # n=2: exponent is 1

    def test_circle_pair(self):
        val = log_weighted_vandermonde([0.0, math.pi], CircleWeight(0.5))
        assert val == pytest.approx(math.log(8.0 / 3.0), rel=1e-14)

    def test_coincident_points_degenerate(self):
        assert log_weighted_vandermonde([1.0, 1.0], RealWeight(1.0, 2.0)) == -math.inf
        assert log_weighted_vandermonde([0.3, 0.3], CircleWeight(0.5)) == -math.inf

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            log_weighted_vandermonde([1.0], RealWeight(1.0, 2.0))


class TestDiscreteEnergy:
    def test_matches_negative_log_diameter(self):
        e = discrete_energy([-1 / SQRT3, 1 / SQRT3], RealWeight(1.0, 2.0))
        assert e == pytest.approx(-math.log(3.0 * SQRT3 / 8.0), rel=1e-12)
        assert e == pytest.approx(3.0 * math.log(2.0 / SQRT3), rel=1e-12)

    def test_s1_pair(self):
        assert discrete_energy([-1.0, 1.0], RealWeight(1.0, 1.0)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_symmetric_pair_minimized_at_calculus_point(self):
        w = RealWeight(1.0, 2.0)
        star = discrete_energy([-1 / SQRT3, 1 / SQRT3], w)
        for t in np.linspace(0.05, 3.0, 200):
            assert discrete_energy([-t, t], w) >= star - 1e-12

    def test_circle_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            discrete_energy([0.0, math.pi], CircleWeight(0.5))


class TestEnergyGradient:
    def test_zero_at_stationary_pair(self):
        g = energy_gradient([-1 / SQRT3, 1 / SQRT3], RealWeight(1.0, 2.0))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_hand_value_off_stationary(self):
        g = energy_gradient([-1.0, 1.0], RealWeight(1.0, 2.0))
        np.testing.assert_allclose(g, [1.0, -1.0], atol=1e-14)

    def test_small_at_extremal_roots(self):
        pts = np.sort(roots(pseudo_jacobi(1.0, 2.0, 5)).real)
        g = energy_gradient(pts, RealWeight(1.0, 2.0))
        assert np.max(np.abs(g)) <= 1e-8

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            energy_gradient([1.0, 1.0], RealWeight(1.0, 2.0))
        with pytest.raises(DegenerateInputError):
            energy_gradient([1.0, 1.0], CircleWeight(0.5))

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 2.0), CircleWeight(0.5),
                                        CircleWeight(2.0)])
    def test_matches_finite_differences(self, weight):
        rng = np.random.default_rng(61)
        h = 1e-6
        for n in range(2, 9):
            if isinstance(weight, RealWeight):
                while True:
                    x = np.sort(rng.uniform(-2, 2, n))
                    if np.min(np.diff(x)) > 0.05:
                        break
            else:
                x = TWO_PI * np.arange(n) / n + rng.uniform(-0.1, 0.1, n)
            g = energy_gradient(x, weight)
            for k in range(n):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (2 * log_weighted_vandermonde(xp, weight)
                      - 2 * log_weighted_vandermonde(xm, weight)) / (2 * h)
                assert abs(g[k] - fd) <= 1e-5


class TestSineProduct:
    def test_pair_at_right_angle(self):
        assert sine_product([0.0, math.pi / 2]) == pytest.approx(1.0)
        assert sine_product_bound(2) == 1.0

    def test_equality_at_progression_n3(self):
        val = sine_product([-math.pi / 3, 0.0, math.pi / 3])
        assert val == pytest.approx(27.0 / 64.0, rel=1e-12)
        assert val == pytest.approx(sine_product_bound(3), rel=1e-12)

    def test_strict_inequality_off_extremal(self):
        assert sine_product([0.0, 0.1]) == pytest.approx(math.sin(0.1) ** 2)
        assert sine_product([0.0, 0.1]) < 1.0


class TestOptimizer:
    def test_line_s2_pair(self):
        res = optimize(RealWeight(1.0, 2.0), 2, OptimizerConfig(starts=2))
        np.testing.assert_allclose(res.points, [-1 / SQRT3, 1 / SQRT3], atol=1e-6)
        assert res.log_diameter == pytest.approx(math.log(3 * SQRT3 / 8), abs=1e-8)
        assert res.converged
        assert res.energy == -res.log_diameter

    def test_circle_pair(self):
        res = optimize(CircleWeight(0.5), 2, OptimizerConfig(starts=2))
        assert math.exp(res.log_diameter) == pytest.approx(8.0 / 3.0, rel=1e-6)
        # gauge fixed: first preimage angle is 0, so the points are phi(1), phi(-1)
        np.testing.assert_allclose(res.points, [0.0, math.pi], atol=1e-6)

    def test_line_s1_arctan_progression(self):
        res = optimize(RealWeight(1.0, 1.0), 3, OptimizerConfig(starts=2))
        assert res.energy == pytest.approx(-math.log(s1_diameter(1.0, 3)), abs=1e-8)
        ys = np.arctan(np.asarray(res.points))
        np.testing.assert_allclose(np.diff(ys), math.pi / 3, atol=1e-5)

    def test_deterministic_given_seed(self):
        cfg = OptimizerConfig(starts=3, seed=123)
        r1 = optimize(RealWeight(1.0, 1.5), 4, cfg)
        r2 = optimize(RealWeight(1.0, 1.5), 4, cfg)
        assert r1 == r2

    def test_circle_gauge_preimage_origin(self):
        res = optimize(CircleWeight(2.0), 5, OptimizerConfig(starts=2))
        pre = np.sort(np.mod(np.angle(mobius(2.0, np.exp(1j * np.asarray(res.points)))),
                             TWO_PI))
        # first preimage angle pinned to 0, up to wrap-around roundoff
        assert min(pre[0], TWO_PI - pre[-1]) <= 1e-9

    def test_non_convergence_flagged(self):
        res = optimize(RealWeight(1.0, 2.0), 6, OptimizerConfig(starts=1, max_iters=1))
        assert not res.converged
        assert scaled_residual(res.points, RealWeight(1.0, 2.0)) > RESIDUAL_TOL
        assert len(res.points) == 6  # best iterate still reported

    def test_matches_unique_roots_midsize(self):
        res = optimize(RealWeight(1.0, 1.5), 8, OptimizerConfig(starts=2))
        ref = np.sort(roots(pseudo_jacobi(1.0, 1.5, 8)).real)
        np.testing.assert_allclose(res.points, ref, atol=1e-7)
        assert math.exp(res.log_diameter) == pytest.approx(
            sgt1_diameter(1.0, 1.5, 8), rel=1e-9)

    def test_circle_diameter_matches(self):
        for b in (0.0, 2.0):
            res = optimize(CircleWeight(b), 6, OptimizerConfig(starts=2))
            assert math.exp(res.log_diameter) == pytest.approx(
                circle_diameter(b, 6), rel=1e-8)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(starts=0)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(max_iters=0)

    def test_line_s2_large_n_matches_tridiagonal_points(self):
        n = 240
        res = optimize(RealWeight(1.0, 2.0), n, OptimizerConfig(starts=1))
        ref = sgt1_points(1.0, 2.0, n)
        assert res.converged
        assert np.max(np.abs(np.asarray(res.points) - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("b", [0.99, -0.998, 1.01])
    def test_circle_pair_near_unit_charge_converges(self, b):
        # gauged n = 2 points sit at 0 and pi, where every term of the
        # residual vanishes up to rounding; the scaled residual must still
        # read converged there
        res = optimize(CircleWeight(b), 2)
        assert res.converged
        assert math.exp(res.log_diameter) == pytest.approx(circle_diameter(b, 2), rel=1e-9)


class TestScaledResidual:
    def test_zero_at_closed_forms(self):
        assert scaled_residual(sgt1_points(1.3, 2.0, 50), RealWeight(1.3, 2.0)) <= 1e-13
        assert scaled_residual(circle_points(0.5, 40).angles, CircleWeight(0.5)) <= 1e-13

    def test_invariant_under_scaling(self):
        x = np.array([-1.5, -0.2, 0.4, 2.0])
        r = scaled_residual(x, RealWeight(1.0, 2.0))
        assert r > 0.01
        assert scaled_residual(4.0 * x, RealWeight(4.0, 2.0)) == pytest.approx(r, rel=1e-14)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            scaled_residual([1.0, 1.0], RealWeight(1.0, 2.0))
