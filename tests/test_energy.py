import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fekete.energy

from fekete import (
    CircleWeight,
    DegenerateInputError,
    InvalidInputError,
    RealWeight,
    canonical_gamma,
    circle_diameter,
    circle_points,
    discrete_energy,
    energy_gradient,
    log_weighted_vandermonde,
    mobius,
    optimize,
    s1_points,
    scaled_residual,
    sgt1_diameter,
    sgt1_points,
    sine_product,
    sine_product_bound,
)
from fekete.energy import RESIDUAL_TOL, _gradient
from fekete.poly import pseudo_jacobi, roots

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


def optimize_logged(caplog, weight, n):
    """The optimizer's result and its per-stage DEBUG records."""
    with caplog.at_level(logging.DEBUG, logger="fekete.energy"):
        res = optimize(weight, n)
    return res, [r for r in caplog.records if r.name == "fekete.energy"]


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


def dense_gradient(points, weight, cot=lambda half: 1.0 / np.tan(half)):
    """The n x n form of the stationarity residual and its scale, which
    _gradient evaluates in row blocks; on the circle cot(h) is taken from one
    tangent unless another form is passed."""
    x = np.asarray(points, dtype=float)
    n = x.size
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    if isinstance(weight, RealWeight):
        pair = 2.0 / d
        h = np.hypot(x, weight.a)
        g = np.sum(pair, axis=1) - 2.0 * weight.s * (n - 1) * (x / h) / h
        return g, np.sum(np.abs(pair), axis=1) + 2.0 * weight.s * (n - 1) / h
    half = d / 2.0
    np.fill_diagonal(half, math.pi / 2.0)
    pair = cot(half)
    np.fill_diagonal(pair, 0.0)
    den = weight.dist_sq(x)
    g = np.sum(pair, axis=1) - 2.0 * (n - 1) * weight.b * np.sin(x) / den
    csc = 1.0 / np.abs(np.sin(half))
    np.fill_diagonal(csc, 0.0)
    return g, np.sum(csc, axis=1) + 2.0 * (n - 1) / np.sqrt(den)


def cos_sin_cot(half):
    return np.cos(half) / np.sin(half)


class TestBlockedGradient:
    # (element budget, n): rows per block is budget // n
    @pytest.mark.parametrize("budget, n", [
        (100, 9),               # one block, n one below the boundary at 10
        (100, 10),              # one block, exactly full
        (100, 11),              # blocks of 9 and 2 rows
        (136, 17),              # blocks of 8, 8 and 1 rows
        # the module's budget, 1 << 16 = 65536 entries: 65536 // 257 = 255
        # rows per block, so blocks of 255 and 2 rows
        (1 << 16, 257),
    ])
    @pytest.mark.parametrize("weight", [RealWeight(1.3, 2.0), CircleWeight(0.5),
                                        CircleWeight(-2.5)],
                             ids=["line", "circle-in", "circle-out"])
    def test_bits_match_dense_form(self, monkeypatch, budget, n, weight):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(n)
        if isinstance(weight, RealWeight):
            x = np.sort(rng.normal(0.0, 2.0, n))
        else:
            x = np.sort(rng.uniform(0.0, TWO_PI, n))
        g_ref, scale_ref = dense_gradient(x, weight)
        g, scale = _gradient(x, weight, with_scale=True)
        assert np.array_equal(g, g_ref) and np.array_equal(scale, scale_ref)
        assert np.array_equal(_gradient(x, weight), g_ref)
        assert np.array_equal(energy_gradient(x, weight), g_ref)

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 2.0), CircleWeight(0.5)])
    @pytest.mark.parametrize("with_scale", [False, True])
    def test_coincident_pair_in_last_block_rejected(self, monkeypatch, weight, with_scale):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", 100)  # rows 0-8, then 9-10
        x = np.linspace(0.1, 3.0, 11)
        x[10] = x[9]
        with pytest.raises(DegenerateInputError):
            _gradient(x, weight, with_scale)

    @pytest.mark.parametrize("n", [12, 240, 1000])
    @pytest.mark.parametrize("b", [0.5, -2.5, 0.999])
    def test_circle_cot_from_tangent_matches_cos_sin_form(self, b, n):
        weight = CircleWeight(b)
        x = np.asarray(circle_points(b, n).angles)
        g_ref, scale = dense_gradient(x, weight, cot=cos_sin_cot)
        g = energy_gradient(x, weight)
        assert np.all(np.abs(g - g_ref) <= 8.0 * np.finfo(float).eps * scale)

    def test_closed_circle_gradient_reuses_its_pages(self):
        # with 4 MiB blocks, each temporary a fresh mapping that was zeroed
        # and faulted in, these 20 calls took about 135,000 minor faults
        code = ("import resource, numpy as np\n"
                "from fekete import CircleWeight, circle_points, energy_gradient\n"
                "x = np.asarray(circle_points(0.5, 1000).angles); w = CircleWeight(0.5)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(20):\n"
                "    energy_gradient(x, w)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 2000

    def test_circle_scaled_residual_reuses_its_pages(self):
        # with a fresh sine array per row block for the scale, these 20 calls
        # took about 4,300 minor faults
        code = ("import resource, numpy as np\n"
                "from fekete import CircleWeight, circle_points, scaled_residual\n"
                "x = np.asarray(circle_points(0.5, 1000).angles); w = CircleWeight(0.5)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(20):\n"
                "    scaled_residual(x, w)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 2000

    def test_closed_circle_memory_linear_in_n(self):
        # the n x n temporaries took 1181 MB at n = 6000
        code = ("import contextlib, io, resource; from fekete.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['circle', '--b', '0.5', '--n', '6000']) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) / 1024 < 150  # ru_maxrss is in KiB on Linux


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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stack_matches_each_row(self, n):
        ys = np.random.default_rng(107).uniform(-math.pi / 2.0, math.pi / 2.0, (1000, n))
        stack = sine_product(ys)
        assert stack.shape == (1000,)
        assert np.array_equal(stack, [sine_product(row) for row in ys])
        assert np.array_equal(sine_product(ys.reshape(10, 100, n)), stack.reshape(10, 100))
        assert isinstance(sine_product(ys[0]), float)

    @pytest.mark.parametrize("ys", [[0.3], np.zeros((4, 1)), 0.3])
    def test_fewer_than_two_points_rejected(self, ys):
        with pytest.raises(InvalidInputError):
            sine_product(ys)


class TestOptimizer:
    def test_line_s2_pair(self):
        res = optimize(RealWeight(1.0, 2.0), 2)
        np.testing.assert_allclose(res.points, [-1 / SQRT3, 1 / SQRT3], atol=1e-6)
        assert res.log_diameter == pytest.approx(math.log(3 * SQRT3 / 8), abs=1e-8)
        assert res.converged
        assert res.energy == -res.log_diameter

    def test_circle_pair(self):
        res = optimize(CircleWeight(0.5), 2)
        assert math.exp(res.log_diameter) == pytest.approx(8.0 / 3.0, rel=1e-6)
        # gauge fixed: first preimage angle is 0, so the points are phi(1), phi(-1)
        np.testing.assert_allclose(res.points, [0.0, math.pi], atol=1e-6)

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 1.5), CircleWeight(-0.9)],
                             ids=["line", "circle"])
    def test_deterministic(self, weight):
        assert optimize(weight, 5) == optimize(weight, 5)

    def test_circle_gauge_preimage_origin(self):
        res = optimize(CircleWeight(2.0), 5)
        pre = np.sort(np.mod(np.angle(mobius(2.0, np.exp(1j * np.asarray(res.points)))),
                             TWO_PI))
        # first preimage angle pinned to 0, up to wrap-around roundoff
        assert min(pre[0], TWO_PI - pre[-1]) <= 1e-9

    def test_non_convergence_flagged(self, monkeypatch):
        monkeypatch.setattr(fekete.energy, "_MAX_NEWTON_STEPS", 1)
        res = optimize(RealWeight(1.0, 2.0), 6)
        assert not res.converged
        assert scaled_residual(res.points, RealWeight(1.0, 2.0)) > RESIDUAL_TOL
        assert len(res.points) == 6  # best iterate still reported

    def test_matches_unique_roots_midsize(self):
        res = optimize(RealWeight(1.0, 1.5), 8)
        ref = np.sort(roots(pseudo_jacobi(1.0, 1.5, 8)).real)
        np.testing.assert_allclose(res.points, ref, atol=1e-7)
        assert math.exp(res.log_diameter) == pytest.approx(
            sgt1_diameter(1.0, 1.5, 8), rel=1e-9)

    def test_circle_diameter_matches(self):
        for b in (0.0, 2.0):
            res = optimize(CircleWeight(b), 6)
            assert math.exp(res.log_diameter) == pytest.approx(
                circle_diameter(b, 6), rel=1e-8)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            optimize(RealWeight(1.0, 2.0), 1)
        with pytest.raises(InvalidInputError, match="unsupported weight type"):
            optimize(object(), 4)

    @pytest.mark.parametrize("a, s, n", [
        (-2.158e60, 1.7e308, 2),  # wrote three RuntimeWarnings, then exited on L = -inf
        (1.0, 5e307, 3),          # wrote three and returned grad_norm inf
        (1.0, 1e306, 20),
        (1e100, 1e306, 3),
        (1e-100, 1e300, 2),
        (1.0, 1.7e308, 3),        # c = (n-1)(s-1) is past the double range
    ])
    def test_objective_out_of_double_range_is_invalid_input(self, a, s, n):
        # the suite turns warnings into errors: nothing may warn first
        with pytest.raises(InvalidInputError, match=f"at n = {n} leaves the double range"):
            optimize(RealWeight(a, s), n)

    def test_line_s2_large_n_matches_tridiagonal_points(self):
        n = 240
        res = optimize(RealWeight(1.0, 2.0), n)
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

    def test_circle_next_to_unit_charge_converges(self, caplog):
        # from the equispaced angles alone Newton stalls short of the
        # tolerance here; the stages at 1 - 2^-k, k = 1..9, then b reach it
        res, records = optimize_logged(caplog, CircleWeight(0.999), 120)
        assert len(records) == 10
        assert res.iterations == sum(record.args[2] for record in records)
        assert res.converged
        assert scaled_residual(res.points, CircleWeight(0.999)) <= RESIDUAL_TOL

    def test_stops_at_first_certified_start(self, caplog):
        res, records = optimize_logged(caplog, RealWeight(1.3, 2.0), 24)
        assert len(records) == 1
        assert res.converged

    @pytest.mark.parametrize("b, stages", [(0.35, 1), (2.75, 1), (0.0, 1), (0.5, 1), (-0.9, 4),
                                           (1.001, 10), (-1e6, 1)])
    def test_stage_count(self, caplog, b, stages):
        # a single stage from the equispaced angles while min(|b|, 1/|b|) <= 1/2
        res, records = optimize_logged(caplog, CircleWeight(b), 12)
        assert len(records) == stages
        assert res.converged

    @pytest.mark.parametrize("a, n", [(1.0, 2), (1.3, 7), (0.4, 12), (2.0, 31)])
    def test_s1_returns_canonical_progression(self, a, n):
        # the equispaced start is the canonical member of the arctangent
        # family and already stationary
        res = optimize(RealWeight(a, 1.0), n)
        ref = s1_points(a, n, canonical_gamma(n))
        assert np.max(np.abs(np.asarray(res.points) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_converges_over_line_and_circle_grid(self):
        weights = [RealWeight(1.0, s) for s in (1.0, 1.05, 1.5, 2.0, 3.0, 5.0)]
        weights += [CircleWeight(b) for b in (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99,
                                              0.999, -0.999, 0.9999, 1.001, 2.0, -2.0)]
        for weight in weights:
            for n in (2, 12, 48):
                assert optimize(weight, n).converged, (weight, n)

    def test_start_record_format(self, caplog):
        # the benchmark tracer matches the "start %d: objective" prefix and
        # unpacks exactly four args, reading the Newton steps and backtracks
        # from the last two
        for weight, stages in ((RealWeight(1.3, 2.0), 1), (CircleWeight(0.999), 10)):
            caplog.clear()
            res, records = optimize_logged(caplog, weight, 120)
            assert len(records) == stages
            for stage, record in enumerate(records):
                assert record.levelno == logging.DEBUG
                assert record.msg == "start %d: objective %.15g after %d+%d iterations"
                index, objective, steps, backtracks = record.args
                assert index == stage
                assert isinstance(objective, float) and math.isfinite(objective)
                assert all(type(v) is int and v >= 0 for v in (steps, backtracks))
                assert record.getMessage().startswith(f"start {stage}: objective ")
            assert res.iterations == sum(record.args[2] for record in records)


def eigen_step(neg_h, g):
    """The modified Newton step from the eigendecomposition: |lambda| for each
    eigenvalue, dropping |lambda| <= 1e-10 max|lambda|."""
    lam, vec = np.linalg.eigh(neg_h)
    lam = np.abs(lam)
    keep = lam > 1e-10 * np.max(lam)
    vec = vec[:, keep]
    return vec @ ((vec.T @ g) / lam[keep])


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the calls of np.linalg.eigh made through the module."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


class TestNewtonStep:
    def test_positive_definite_takes_the_cholesky_path(self, eigh_calls):
        rng = np.random.default_rng(19)
        m = rng.normal(size=(24, 24))
        neg_h = m @ m.T + np.eye(24)
        g = rng.normal(size=24)
        p = fekete.energy._newton_step(neg_h, g)
        assert eigh_calls == []
        ref = eigen_step(neg_h, g)
        assert np.linalg.norm(p - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_indefinite_takes_the_eigen_step(self, eigh_calls):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        neg_h = (q * np.linspace(-3.0, 5.0, 12)) @ q.T
        neg_h = (neg_h + neg_h.T) / 2.0
        g = rng.normal(size=12)
        p = fekete.energy._newton_step(neg_h, g)
        assert eigh_calls == [(12, 12)]
        assert np.array_equal(p, eigen_step(neg_h, g))

    def test_nearly_singular_drops_the_null_direction(self, eigh_calls):
        # the path-graph Laplacian has the constant vector as its null
        # direction; shifted by 1e-14 of its norm it is positive definite,
        # and Cholesky accepts it, but the guard sends it to the eigen path
        n = 12
        lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        lap[0, 0] = lap[-1, -1] = 1.0
        neg_h = lap + 1e-14 * np.linalg.norm(lap, 2) * np.eye(n)
        np.linalg.cholesky(neg_h)
        g = np.random.default_rng(29).normal(size=n)
        p = fekete.energy._newton_step(neg_h, g)
        assert eigh_calls == [(n, n)]
        assert np.array_equal(p, eigen_step(neg_h, g))
        assert abs(np.sum(p)) <= 1e-12 * np.linalg.norm(p) * math.sqrt(n)


# iterations and log_diameter of the eigen-step optimizer that the Cholesky
# step replaced, measured with one and with two BLAS threads (the same
# iterations; log_diameter within 6e-16 relative)
EIGEN_STEP_PATH = [
    (RealWeight(1.54, 2.03), 12, 7, -2.382934641934026),
    (RealWeight(1.54, 2.03), 48, 10, -2.53975847630069),
    (RealWeight(1.54, 2.03), 240, 13, -2.602256193196538),
    (RealWeight(1.3, 1.001), 12, 3, -0.7314035861973649),
    (RealWeight(1.3, 1.001), 48, 3, -0.875023334178274),
    (RealWeight(1.3, 1.001), 240, 4, -0.9344794451347305),
    (CircleWeight(0.351), 12, 8, 0.3573781078261671),
    (CircleWeight(0.351), 48, 8, 0.21384348225547214),
    (CircleWeight(0.351), 240, 8, 0.15440904691229476),
    (CircleWeight(2.79), 12, 6, -1.6886810344208163),
    (CircleWeight(2.79), 48, 9, -1.8322156599915116),
    (CircleWeight(2.79), 240, 9, -1.8916500953346889),
    (CircleWeight(0.9), 12, 27, 1.886631811347834),
    (CircleWeight(0.9), 48, 27, 1.7430971857771378),
    (CircleWeight(0.9), 240, 27, 1.6836627504339605),
    (CircleWeight(0.999), 12, 71, 6.441008827990019),
    (CircleWeight(0.999), 48, 70, 6.297474202419385),
    (CircleWeight(0.999), 240, 70, 6.238039767076181),
    (CircleWeight(-0.999), 12, 70, 6.441008827990053),
    (CircleWeight(-0.999), 48, 70, 6.29747420241936),
    (CircleWeight(-0.999), 240, 70, 6.238039767076182),
]


class TestNewtonPath:
    @pytest.mark.parametrize("weight, n, iterations, log_diameter", EIGEN_STEP_PATH)
    def test_same_path_as_the_eigen_step(self, weight, n, iterations, log_diameter):
        res = optimize(weight, n)
        assert res.converged
        assert res.iterations == iterations
        assert abs(res.log_diameter - log_diameter) <= 1e-14 * abs(log_diameter)

    @pytest.mark.parametrize("n", [48, 240])
    def test_gauge_orbit_kept_off_the_cholesky_path(self, n):
        # without the pivot guard Cholesky accepts the nearly singular
        # matrices next to the stationary point, and this stalls unconverged
        assert optimize(CircleWeight(2.79), n).converged

    @pytest.mark.parametrize("n", [12, 48, 240])
    @pytest.mark.parametrize("a", [0.5, 1.3])
    @pytest.mark.parametrize("s", [1.001, 2.0, 5.0])
    def test_line_never_takes_the_eigen_path(self, monkeypatch, s, a, n):
        # (n - 1)(s - 1)/4 bounds the line's negated Hessian from below
        def eigh(_):
            raise AssertionError("eigen fallback taken on the line")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert optimize(RealWeight(a, s), n).converged


class TestScaledResidual:
    def test_zero_at_closed_forms(self):
        assert scaled_residual(sgt1_points(1.3, 2.0, 50), RealWeight(1.3, 2.0)) <= 1e-13
        assert scaled_residual(circle_points(0.5, 40).angles, CircleWeight(0.5)) <= 1e-13

    @pytest.mark.parametrize("b", [0.9999, -0.9999])
    def test_closed_circle_next_to_unit_charge(self, b):
        # 1 - 2b cos t + b^2 written as it reads cancels next to the charge
        assert scaled_residual(circle_points(b, 120).angles, CircleWeight(b)) <= RESIDUAL_TOL

    def test_closed_circle_at_b_0999_to_rounding(self):
        assert scaled_residual(circle_points(0.999, 120).angles, CircleWeight(0.999)) <= 1e-11

    def test_invariant_under_scaling(self):
        x = np.array([-1.5, -0.2, 0.4, 2.0])
        r = scaled_residual(x, RealWeight(1.0, 2.0))
        assert r > 0.01
        assert scaled_residual(4.0 * x, RealWeight(4.0, 2.0)) == pytest.approx(r, rel=1e-14)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            scaled_residual([1.0, 1.0], RealWeight(1.0, 2.0))
