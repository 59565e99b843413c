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
    energy_gradient,
    log_weighted_vandermonde,
    optimize,
    s1_points,
    scaled_residual,
    sgt1_diameter,
    sgt1_points,
)
from fekete.energy import RESIDUAL_TOL, _gradient
from fekete.poly import pseudo_jacobi, roots
from fekete.verify import mobius, sine_product, sine_product_bound

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


def optimize_logged(caplog, weight, n):
    """The optimizer's result and its per-stage DEBUG records."""
    with caplog.at_level(logging.DEBUG, logger="fekete.energy"):
        res = optimize(weight, n)
    return res, [r for r in caplog.records if r.name == "fekete.energy"]


# closed-form sets at n = 257 (the module's budget: rows 0-254, then 255-256)
# and n = 1000 (many strips)
FEKETE_SETS_OVER_STRIPS = pytest.mark.parametrize("n, weight, points", [
    (n, weight, points) for n in (257, 1000) for weight, points in [
        (RealWeight(1.3, 2.5), lambda n: sgt1_points(1.3, 2.5, n)),
        (RealWeight(1.3, 1.0), lambda n: s1_points(1.3, n, canonical_gamma(n))),
        (CircleWeight(0.507), lambda n: circle_points(0.507, n).angles),
        (CircleWeight(-3.98), lambda n: circle_points(-3.98, n).angles)]
], ids=[f"{name}-{n}" for n in (257, 1000)
        for name in ("line-sgt1", "line-s1", "circle-in", "circle-out")])


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

    @FEKETE_SETS_OVER_STRIPS
    def test_error_within_the_summation_bound(self, n, weight, points):
        # L sums the entries of every strip, each pair's log chord once right
        # of a diagonal square or twice at half weight inside one (halving is
        # exact), the diagonal zeros, the start and the weight's term: at
        # most N = n^2 + 2 numbers whose moduli sum to A, fsum(|log chord|)
        # plus the weight term's modulus.  Any order of them errs from their
        # exact sum by at most gamma_{N-1} A, and fsum rounds once more.
        x = np.asarray(points(n), dtype=float)
        j, k = np.triu_indices(n, 1)
        if isinstance(weight, RealWeight):
            chords = np.abs(x[j] - x[k])
        else:
            chords = 2.0 * np.abs(np.sin(x[j] / 2.0 - x[k] / 2.0))
        logs = np.log(chords)
        weight_term = (n - 1) * np.sum(weight.log_w(x))
        u = 2.0 ** -53
        big_n = n * n + 2
        gamma = big_n * u / (1.0 - big_n * u)
        exact = math.fsum(np.append(logs, weight_term))
        size = math.fsum(np.abs(logs)) + abs(weight_term)
        assert abs(log_weighted_vandermonde(x, weight) - exact) <= gamma * size

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 2.0), CircleWeight(0.5)])
    def test_coincident_pair_across_a_strip_boundary(self, monkeypatch, recwarn, weight):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", 100)  # rows 0-8, then 9-10
        x = np.linspace(0.1, 3.0, 11)
        assert math.isfinite(log_weighted_vandermonde(x, weight))
        x[9] = x[8]  # row 8's pair with column 9, right of its diagonal square
        assert log_weighted_vandermonde(x, weight) == -math.inf
        assert not recwarn.list

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 2.0), CircleWeight(0.5)])
    def test_signed_zero_pair(self, monkeypatch, recwarn, weight):
        # -0.0 and +0.0 are one point: their difference is 0
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", 100)
        assert log_weighted_vandermonde([1.0, -0.0, 0.5, 0.0], weight) == -math.inf
        assert not recwarn.list


class TestDiscreteEnergy:
    # E_w = -2/(n(n-1)) log weighted Vandermonde, -L for a pair
    def test_matches_negative_log_diameter(self):
        e = -log_weighted_vandermonde([-1 / SQRT3, 1 / SQRT3], RealWeight(1.0, 2.0))
        assert e == pytest.approx(-math.log(3.0 * SQRT3 / 8.0), rel=1e-12)
        assert e == pytest.approx(3.0 * math.log(2.0 / SQRT3), rel=1e-12)

    def test_s1_pair(self):
        assert -log_weighted_vandermonde([-1.0, 1.0], RealWeight(1.0, 1.0)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_symmetric_pair_minimized_at_calculus_point(self):
        w = RealWeight(1.0, 2.0)
        star = -log_weighted_vandermonde([-1 / SQRT3, 1 / SQRT3], w)
        for t in np.linspace(0.05, 3.0, 200):
            assert -log_weighted_vandermonde([-t, t], w) >= star - 1e-12


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


def weight_term(x, weight):
    """The weight's term of the stationarity residual at each point, and its size."""
    n = x.size
    if isinstance(weight, RealWeight):
        h = np.hypot(x, weight.a)
        field = 2.0 * weight.s * (n - 1) * (x / h) / h
        return field, np.abs(field)
    den = weight.dist_sq(x)
    return 2.0 * (n - 1) * weight.b * np.sin(x) / den, 2.0 * (n - 1) / np.sqrt(den)


def dense_terms(points, weight, cot=lambda half: 1.0 / np.tan(half)):
    """The n x n pair terms of the stationarity residual and their sizes, 0 on
    the diagonal, and the weight's term and its size; on the circle cot(h)
    is taken from one tangent unless another form is passed, and its size
    is hypot(1, cot h), the modulus of cot h + i."""
    x = np.asarray(points, dtype=float)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    if isinstance(weight, RealWeight):
        pair = 2.0 / d
        return (pair, np.abs(pair), *weight_term(x, weight))
    half = d / 2.0
    np.fill_diagonal(half, math.pi / 2.0)
    pair = cot(half)
    np.fill_diagonal(pair, 0.0)
    size = np.hypot(1.0, pair)
    np.fill_diagonal(size, 0.0)
    return (pair, size, *weight_term(x, weight))


def dense_gradient(points, weight, cot=lambda half: 1.0 / np.tan(half)):
    """The n x n form of the stationarity residual and its scale: each row
    summed in one pass, as _gradient does where one strip holds every row."""
    pair, size, field, field_size = dense_terms(points, weight, cot)
    return np.sum(pair, axis=1) - field, np.sum(size, axis=1) + field_size


def strip_order_gradient(points, weight, budget):
    """The stationarity residual and its scale from the n x n terms, summed in
    _gradient's strip order for an element budget: each strip's row sums to
    its rows, the column sums of its part right of the diagonal square
    subtracted from g and added to the scale of the later rows."""
    pair, size, field, field_size = dense_terms(points, weight)
    n = pair.shape[0]
    g, scale = np.zeros(n), np.zeros(n)
    lo = 0
    while lo < n:
        hi = lo + min(n - lo, max(1, budget // (n - lo)))
        g[lo:hi] += pair[lo:hi, lo:].sum(axis=1)
        g[hi:] -= pair[lo:hi, hi:].sum(axis=0)
        scale[lo:hi] += size[lo:hi, lo:].sum(axis=1)
        scale[hi:] += size[lo:hi, hi:].sum(axis=0)
        lo = hi
    return g - field, scale + field_size


def cos_sin_cot(half):
    return np.cos(half) / np.sin(half)


def gradient_point_sets(weight, n):
    rng = np.random.default_rng(n)
    if isinstance(weight, RealWeight):
        return [np.sort(rng.normal(0.0, 2.0, n))]
    # the circle's strips hold t_k/2 - t_j/2: its ends, 0, pi and the
    # largest double below 2 pi, must give (t_k - t_j)/2 too
    x = np.sort(rng.uniform(0.0, TWO_PI, n))
    ends = [0.0, math.pi, np.nextafter(TWO_PI, 0.0)]
    return [x, np.sort(np.concatenate((ends, x[3:]))), np.array([0.0, math.pi])]


def assert_gradient_bits(x, weight, g_ref, scale_ref):
    g, scale = _gradient(x, weight, with_scale=True)
    assert np.array_equal(g, g_ref) and np.array_equal(scale, scale_ref)
    assert np.array_equal(_gradient(x, weight), g_ref)
    assert np.array_equal(energy_gradient(x, weight), g_ref)


GRADIENT_WEIGHTS = pytest.mark.parametrize(
    "weight", [RealWeight(1.3, 2.0), CircleWeight(0.5), CircleWeight(-2.5)],
    ids=["line", "circle-in", "circle-out"])


class TestBlockedGradient:
    # (element budget, n): one strip, the n x n square, while n^2 <= budget
    @pytest.mark.parametrize("budget, n", [
        (100, 9),               # one strip, n one below the boundary at 10
        (100, 10),              # one strip, exactly full
        (1 << 16, 256),         # the module's budget, exactly full
    ])
    @GRADIENT_WEIGHTS
    def test_bits_match_dense_form(self, monkeypatch, budget, n, weight):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", budget)
        for x in gradient_point_sets(weight, n):
            assert_gradient_bits(x, weight, *dense_gradient(x, weight))

    # strips of h = min(w, budget // w) rows of the w = n - lo last columns
    @pytest.mark.parametrize("budget, n", [
        (100, 11),              # rows 0-8 against 11 columns, then 9-10 against 2
        (136, 17),              # rows 0-7 against 17 columns, then 8-16 against 9
        # the module's budget: rows 0-254 against 257 columns, then 255-256
        (1 << 16, 257),
    ])
    @GRADIENT_WEIGHTS
    def test_bits_match_strip_order(self, monkeypatch, budget, n, weight):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", budget)
        for x in gradient_point_sets(weight, n):
            assert_gradient_bits(x, weight, *strip_order_gradient(x, weight, budget))

    @FEKETE_SETS_OVER_STRIPS
    def test_error_within_the_summation_bound(self, n, weight, points):
        # g_k sums n + 2 rounded numbers, the n - 1 pair terms of row k, two
        # zeros (its diagonal and the start) and minus the weight's term, in
        # n + 1 additions; any order of them errs from their exact sum S_k by
        # at most gamma_{n+1} A_k, A_k the sum of their moduli.  fsum rounds
        # S_k and A_k once each, so |g_k - fsum| <= gamma_{n+3} fsum(moduli).
        x = np.asarray(points(n), dtype=float)
        field, _ = weight_term(x, weight)
        g, scale = _gradient(x, weight, with_scale=True)
        u = 2.0 ** -53
        gamma = (n + 3) * u / (1.0 - (n + 3) * u)
        for k in range(n):
            others = np.delete(x, k)
            if isinstance(weight, RealWeight):
                pair = 2.0 / (x[k] - others)
            else:
                pair = 1.0 / np.tan(x[k] / 2.0 - others / 2.0)
            terms = [*pair, 0.0, -field[k]]
            exact = math.fsum(terms)
            size = math.fsum(abs(t) for t in terms)
            assert abs(g[k] - exact) <= gamma * size
            assert size <= scale[k] * (1.0 + gamma)
        # stationary points: each g_k cancels far below its scale
        assert np.max(np.abs(g) / scale) <= RESIDUAL_TOL

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 2.0), CircleWeight(0.5)])
    @pytest.mark.parametrize("with_scale", [False, True])
    def test_coincident_pair_in_last_block_rejected(self, monkeypatch, weight, with_scale):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", 100)  # rows 0-8, then 9-10
        x = np.linspace(0.1, 3.0, 11)
        x[10] = x[9]
        with pytest.raises(DegenerateInputError):
            _gradient(x, weight, with_scale)

    @pytest.mark.parametrize("weight, what", [(RealWeight(1.0, 2.0), "points"),
                                              (CircleWeight(0.5), "angles")])
    @pytest.mark.parametrize("with_scale", [False, True])
    def test_coincident_pair_across_a_strip_boundary_rejected(self, monkeypatch, weight,
                                                              what, with_scale):
        monkeypatch.setattr(fekete.energy, "_BLOCK_ELEMENTS", 100)  # rows 0-8, then 9-10
        x = np.linspace(0.1, 3.0, 11)
        x[9] = x[8]  # row 8's pair with column 9, right of its diagonal square
        with pytest.raises(DegenerateInputError, match=f"^coincident {what}: gradient undefined$"):
            _gradient(x, weight, with_scale)

    @pytest.mark.parametrize("weight", [RealWeight(1.0, 2.0), CircleWeight(0.5)])
    @pytest.mark.parametrize("with_scale", [False, True])
    def test_signed_zero_pair_rejected(self, recwarn, weight, with_scale):
        # -0.0 and +0.0 are one point: their difference is 0
        with pytest.raises(DegenerateInputError):
            _gradient([1.0, -0.0, 0.5, 0.0], weight, with_scale)
        assert not recwarn.list

    @pytest.mark.parametrize("n", [12, 240, 1000])
    @pytest.mark.parametrize("b", [0.5, -2.5, 0.999])
    def test_circle_cot_from_tangent_matches_cos_sin_form(self, b, n):
        weight = CircleWeight(b)
        x = np.asarray(circle_points(b, n).angles)
        g_ref, scale = dense_gradient(x, weight, cot=cos_sin_cot)
        g = energy_gradient(x, weight)
        assert np.all(np.abs(g - g_ref) <= 8.0 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("n", [257, 1000])
    @pytest.mark.parametrize("b", [0.507, -3.98])
    def test_circle_size_within_ulps_of_the_sine_form(self, b, n):
        # a pair's size hypot(1, cot h) against 1/|sin h|, per term, on the
        # half differences of the test point sets and the closed-form set
        # and next to 0 and +-pi; then the scaled residual, whose g is the
        # same, against the one with the sine sizes
        weight = CircleWeight(b)
        sets = [*gradient_point_sets(weight, n), np.asarray(circle_points(b, n).angles)]
        tiny = 10.0 ** -np.arange(1.0, 300.0)
        edges = np.concatenate((tiny, math.pi - tiny[:16], [np.nextafter(math.pi, 0.0)]))
        h = np.concatenate([edges, -edges] + [
            (x[:, None] / 2.0 - x[None, :] / 2.0)[np.triu_indices(x.size, 1)] for x in sets])
        size = np.zeros(h.size + 1)
        # one row: 0 on its diagonal, each pair's size added to its column
        fekete.energy._circle_strip(np.concatenate(([0.0], h))[None, :],
                                    np.zeros(h.size + 1), size)
        csc = 1.0 / np.abs(np.sin(h))
        assert np.all(np.abs(size[1:] - csc) <= 4.0 * np.spacing(csc))
        for x in sets:
            half = x[:, None] / 2.0 - x[None, :] / 2.0
            np.fill_diagonal(half, math.pi / 2.0)
            csc = 1.0 / np.abs(np.sin(half))
            np.fill_diagonal(csc, 0.0)
            g = energy_gradient(x, weight)
            by_sine = np.max(np.abs(g) / (csc.sum(axis=1) + weight_term(x, weight)[1]))
            assert abs(scaled_residual(x, weight) - by_sine) <= (x.size + 1) * 2.0 ** -53 * by_sine

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
        # the n x n temporaries took 1181 MB at n = 6000.  The child reads its
        # own peak, VmHWM: its ru_maxrss keeps the peak of the process that
        # started it across exec, here pytest's
        code = ("import contextlib, io; from fekete.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['circle', '--b', '0.5', '--n', '6000']) == 0\n"
                "with open('/proc/self/status') as fh:\n"
                "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) / 1024 < 150  # VmHWM is in kB

    def test_optimizer_holds_one_evaluation_of_blocks(self):
        """The optimizer's peak at n = 2000 over a bare n = 20 run, both read
        as VmHWM in a fresh child with one OpenBLAS thread.  Newton's
        arrays are m x n blocks of doubles, 16 MB (15,625 kB) each at
        m = 1000.  One evaluation holds four at its peak: half, sin_half,
        the temporary 2|sin_half| and logs; the negated Hessian, m x m,
        adds half a block.  With the allocator's slack that read 5.2
        blocks.  Holding the iterate's two spent blocks, and a rejected
        candidate's two, while a candidate is evaluated read 7.2.  The
        bound is 6 blocks."""
        def peak(n):
            code = ("import contextlib, io; from fekete.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert main(['real', '--a', '1', '--s', '2', '--n', '{n}',"
                    " '--method', 'optimize']) == 0\n"
                    "with open('/proc/self/status') as fh:\n"
                    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))")
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
            return int(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)

        assert peak(2000) - peak(20) < 6 * 15_625  # VmHWM is in kB


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

    @pytest.mark.parametrize("a, s, n", [(1.0, 1e4, 48), (1.0, 1e6, 7), (1.0, 1e8, 2),
                                         (1.0, 1e8, 12), (1.0, 1e12, 3), (1.0, 1e12, 48),
                                         (1.0, 1e16, 3), (0.5, 1e8, 12), (2.0, 1e20, 24),
                                         (1.0, 1e20, 48)])
    def test_line_at_large_s_matches_tridiagonal_points(self, a, s, n):
        # the points sit at |x| ~ a sqrt(2/s), where c log(2 cos(t/2)) for
        # the field had rounded to c eps and stopped Newton short
        res = optimize(RealWeight(a, s), n)
        ref = sgt1_points(a, s, n)
        assert res.converged
        assert np.max(np.abs(np.asarray(res.points) - ref)) <= 1e-13 * np.max(np.abs(ref))

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
def fallback_steps(monkeypatch):
    """The shapes of the optimizer's steps that are not np.linalg.solve's."""
    steps = []
    newton_step = fekete.energy._newton_step

    def spy(neg_h, g):
        p = newton_step(neg_h, g)
        try:
            plain = np.linalg.solve(neg_h, g)
        except np.linalg.LinAlgError:
            plain = None
        if plain is None or not np.array_equal(p, plain):
            steps.append(neg_h.shape)
        return p

    monkeypatch.setattr(fekete.energy, "_newton_step", spy)
    return steps


class TestNewtonStep:
    def test_positive_definite_gives_the_solve(self):
        rng = np.random.default_rng(19)
        m = rng.normal(size=(24, 24))
        neg_h = m @ m.T + np.eye(24)
        g = rng.normal(size=24)
        p = fekete.energy._newton_step(neg_h, g)
        assert np.array_equal(p, np.linalg.solve(neg_h, g))
        ref = eigen_step(neg_h, g)
        assert np.linalg.norm(p - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("lam", [-2.5, -1e-300, -3e7])
    def test_negative_1x1_gives_the_eigen_step(self, lam):
        neg_h, g = np.array([[lam]]), np.array([0.7])
        p = fekete.energy._newton_step(neg_h, g)
        assert np.array_equal(p, g / abs(lam))
        assert np.array_equal(p, eigen_step(neg_h, g))

    def test_descent_newton_direction_gives_the_scaled_gradient(self):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        neg_h = (q * np.linspace(-3.0, 5.0, 12)) @ q.T
        neg_h = (neg_h + neg_h.T) / 2.0
        g = rng.normal(size=12)
        assert g @ np.linalg.solve(neg_h, g) < 0.0
        p = fekete.energy._newton_step(neg_h, g)
        assert np.array_equal(p, g / np.abs(neg_h.diagonal()))
        assert g @ p > 0.0

    @pytest.mark.parametrize("neg_h, expected", [
        ([[0.0]], [0.0]),
        ([[1.0, 2.0], [2.0, 4.0]], [0.5, -0.75 / 4.0]),
        ([[0.0, 0.0], [0.0, -2.0]], [0.0, -0.375]),
    ], ids=["zero", "rank-1", "zero-diagonal"])
    def test_singular_raises_and_warns_nothing(self, recwarn, neg_h, expected):
        neg_h = np.array(neg_h)
        g = np.array([0.5, -0.75])[:neg_h.shape[0]]
        with np.errstate(all="raise"):
            p = fekete.energy._newton_step(neg_h, g)
        assert np.array_equal(p, expected)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("weight, n", [(RealWeight(1.3, 2.0), 48), (CircleWeight(0.999), 3),
                                           (CircleWeight(0.9), 48)],
                             ids=["line-48", "circle-3", "circle-48"])
    def test_one_linalg_call_per_step(self, monkeypatch, weight, n):
        steps, solves = [], []
        newton_step, solve = fekete.energy._newton_step, np.linalg.solve

        def counted_step(neg_h, g):
            steps.append(neg_h.shape)
            return newton_step(neg_h, g)

        def counted_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        def forbidden(*_):
            raise AssertionError("second factorization in a Newton step")

        monkeypatch.setattr(fekete.energy, "_newton_step", counted_step)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        for name in ("cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        assert optimize(weight, n).converged
        assert solves == steps and len(steps) >= 1


# iterations and log_diameter of an earlier optimizer that took every step
# from the eigendecomposition (eigen_step), measured with one and with two
# BLAS threads (the same iterations; log_diameter within 6e-16 relative);
# the Newton step of _newton_step keeps them.  The b = -0.999, n = 12 run
# took 70 steps there; it now runs at the charge 0.999 and takes that run's
# 71, and its log_diameter pin still holds
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
    (CircleWeight(-0.999), 12, 71, 6.441008827990053),
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
        # over all n angles, Cholesky accepted the nearly singular matrices
        # next to the stationary point without the pivot guard, and this
        # stalled unconverged; the fold removes that direction
        assert optimize(CircleWeight(2.79), n).converged

    @pytest.mark.parametrize("n", [12, 48, 240])
    @pytest.mark.parametrize("a", [0.5, 1.3])
    @pytest.mark.parametrize("s", [1.001, 2.0, 5.0])
    def test_line_never_takes_the_fallback_step(self, fallback_steps, s, a, n):
        # (n - 1)(s - 1)/4 bounds the line's negated Hessian from below
        assert optimize(RealWeight(a, s), n).converged
        assert fallback_steps == []


def two_evaluation_objective(t, field):
    """The objective of all n angles t, over the pairs j < k."""
    j, k = np.triu_indices(t.size, 1)
    chords = 2.0 * np.abs(np.sin((t[j] - t[k]) / 2.0))
    return float(np.sum(np.log(chords)) + np.sum(field(t)[0]))


def two_evaluation_derivatives(t, field):
    """The gradient, the sizes of its terms and the negated Hessian of the
    objective of all n angles t."""
    half = (t[:, None] - t[None, :]) / 2.0
    np.fill_diagonal(half, math.pi / 2.0)
    inv_chord = 0.5 / np.sin(half)
    np.fill_diagonal(inv_chord, 0.0)
    neg_h = -inv_chord * inv_chord
    _, d1, d2 = field(t)
    np.fill_diagonal(neg_h, -np.sum(neg_h, axis=1) - d2)
    g = np.sum(inv_chord * np.cos(half), axis=1) + d1
    return g, np.sum(np.abs(inv_chord), axis=1) + np.abs(d1), neg_h


def middle_field(n, field):
    """phi(0), the middle angle's term of the objective at odd n, else 0."""
    return float(field(np.zeros(1))[0][0]) if n % 2 else 0.0


def folded_half_differences(u, n):
    """(u_k - t_j)/2 for the m positive angles u against all n unfolded
    angles t, and the index of each row's self pair."""
    m = u.size
    t = np.concatenate((-u[::-1], np.zeros(n % 2), u))
    return (u[:, None] - t[None, :]) / 2.0, (np.arange(m), np.arange(n - m, n))


def folded_objective(u, n, field):
    """The objective of the unfolded angles of u from a fresh m x n block:
    the self pairs as chords of 1, the middle column at odd n twice, the
    field as 2 sum phi(u) + phi(0)."""
    half, self_pairs = folded_half_differences(u, n)
    chords = 2.0 * np.abs(np.sin(half))
    chords[self_pairs] = 1.0
    logs = np.log(chords)
    total = np.sum(logs) + np.sum(logs[:, u.size]) if n % 2 else np.sum(logs)
    return float(total + 2.0 * np.sum(field(u)[0]) + middle_field(n, field))


def folded_derivatives(u, n, field):
    """The folded gradient, its term sizes per row and over all n rows, and
    M = (Q^T N Q)/2, from a fresh m x n block."""
    m = u.size
    half, self_pairs = folded_half_differences(u, n)
    sin_half = np.sin(half)
    sin_half[self_pairs] = 1.0
    inv_chord = 0.5 / sin_half
    inv_chord[self_pairs] = 0.0
    _, d1, d2 = field(u)
    g = np.sum(inv_chord * np.cos(half), axis=1) + d1
    size = np.abs(inv_chord)
    scale = np.sum(size, axis=1) + np.abs(d1)
    scale_sum = 2.0 * (np.sum(scale) + np.sum(size[:, m]) if n % 2 else np.sum(scale))
    w = size * size
    neg_h = w[:, :m][:, ::-1] - w[:, n - m:]
    neg_h[np.diag_indices(m)] += np.sum(w, axis=1) - d2
    return g, scale, scale_sum, neg_h


def two_evaluation_newton(u, n, field):
    """The folded Newton loop that evaluates each accepted iterate twice:
    once for the objective in the line search, once more for the
    derivatives of the next step."""
    f = folded_objective(u, n, field)
    steps = backtracks = 0
    while steps < fekete.energy._MAX_NEWTON_STEPS:
        g, scale, scale_sum, neg_h = folded_derivatives(u, n, field)
        if np.max(np.abs(g) / scale) <= 1e-13:
            break
        p = fekete.energy._newton_step(neg_h, g)
        slope = 2.0 * float(g @ p)
        if slope <= 1e-15 * (1.0 + abs(f) + u[-1] * scale_sum):
            if fekete.energy._ordered(u + p):
                u = u + p
                steps += 1
            break
        step = 1.0
        for _ in range(60):
            cand = u + step * p
            if fekete.energy._ordered(cand):
                f_cand = folded_objective(cand, n, field)
                if f_cand > f + 1e-4 * step * slope:
                    break
            step *= 0.5
            backtracks += 1
        else:
            break
        u, f = cand, f_cand
        steps += 1
    return u, f, steps, backtracks


def newton_stages(monkeypatch, newton, weight, n):
    """(angles, objective, steps, backtracks) of each stage of optimize(weight,
    n) with newton as its Newton loop."""
    stages = []

    def recorded(u, n, field):
        stages.append(newton(u, n, field))
        return stages[-1]

    monkeypatch.setattr(fekete.energy, "_newton", recorded)
    optimize(weight, n)
    return stages


class TestOneEvaluationPerIterate:
    # the optimize workload's shapes, then the continuation and eigen path
    # next to the circle's charge, and the line's slowest s
    @pytest.mark.parametrize("weight, n", [
        (RealWeight(1.54, 2.03), 12), (RealWeight(1.54, 2.03), 24),
        (RealWeight(1.54, 2.03), 48), (RealWeight(1.54, 1.0), 4), (RealWeight(1.54, 1.0), 6),
        (CircleWeight(0.351), 12), (CircleWeight(0.351), 24), (CircleWeight(0.351), 48),
        (CircleWeight(2.79), 12), (CircleWeight(2.79), 24), (CircleWeight(2.79), 48),
        (CircleWeight(-0.9), 12), (CircleWeight(0.999), 12), (RealWeight(1.3, 1.001), 48),
    ])
    def test_same_bits_as_two_evaluations(self, monkeypatch, weight, n):
        one = newton_stages(monkeypatch, fekete.energy._newton, weight, n)
        two = newton_stages(monkeypatch, two_evaluation_newton, weight, n)
        assert len(one) == len(two) >= 1
        for (u, f, steps, backtracks), (u_ref, f_ref, steps_ref, backtracks_ref) in zip(one, two):
            assert np.array_equal(u, u_ref)
            assert f == f_ref and steps == steps_ref and backtracks == backtracks_ref


def fold_map(n):
    """Q, the n x m matrix of the map u -> t = (-u reversed, [0 at odd n], u)."""
    m = n // 2
    q = np.zeros((n, m))
    q[n - m + np.arange(m), np.arange(m)] = 1.0
    q[m - 1 - np.arange(m), np.arange(m)] = -1.0
    return q


def assert_close_to_largest(value, ref, rel=1e-13):
    ref = np.asarray(ref)
    assert np.max(np.abs(value - ref)) <= rel * np.max(np.abs(ref))


class TestReflectionFold:
    @pytest.mark.parametrize("n", [2, 3, 12, 25, 48])
    @pytest.mark.parametrize("weight", [RealWeight(1.3, 2.0), CircleWeight(0.9)],
                             ids=["line", "circle"])
    def test_folded_derivatives_match_the_full_space(self, weight, n):
        # the folded objective is F(Q u) for the objective F of all n angles,
        # so its gradient is Q^T g and its negated Hessian Q^T N Q; the fold
        # returns both halved, and the full-space sum of the term sizes
        u = np.sort(np.random.default_rng(n).uniform(0.0, math.pi, n // 2))
        fields, _ = fekete.energy._angle_problem(weight, n)
        field = fields[-1]
        t = fekete.energy._unfolded(u, n)
        q = fold_map(n)
        assert np.array_equal(q @ u, t)
        f, arrays = fekete.energy._angle_evaluation(u, n, field, middle_field(n, field))
        g, scale, scale_sum, neg_h = fekete.energy._angle_derivatives(*arrays)
        g_full, scale_full, neg_h_full = two_evaluation_derivatives(t, field)
        assert f == pytest.approx(two_evaluation_objective(t, field), rel=1e-13)
        assert_close_to_largest(g, q.T @ g_full / 2.0)
        assert_close_to_largest(scale, scale_full[n - n // 2:])
        assert scale_sum == pytest.approx(np.sum(scale_full), rel=1e-13)
        assert_close_to_largest(neg_h, q.T @ neg_h_full @ q / 2.0)

    @pytest.mark.parametrize("b", [0.35, 0.9, 2.79, 0.999, -0.999])
    def test_circle_never_takes_the_fallback_step(self, fallback_steps, b):
        # the gauge orbit's tangent is odd under the reflection, so the fold
        # removes it; the full-space steps took the eigen path 2, 12, 2, 32
        # and 21 times here
        assert optimize(CircleWeight(b), 48).converged
        assert fallback_steps == []

    def test_circle_next_to_the_charge_takes_the_fallback_step(self, fallback_steps):
        # the 1 x 1 folded matrix is negative on some steps next to the charge
        assert optimize(CircleWeight(0.999), 3).converged
        assert fallback_steps and set(fallback_steps) == {(1, 1)}

    @pytest.mark.parametrize("weight, n", [(RealWeight(1.3, 2.0), 3), (RealWeight(1.3, 2.0), 25),
                                           (CircleWeight(0.9), 25), (CircleWeight(-0.999), 7)],
                             ids=["line-3", "line-25", "circle-25", "circle-7"])
    def test_odd_n_keeps_the_middle_angle_at_zero(self, monkeypatch, weight, n):
        # the angles handed to the command's coordinates are the exact
        # unfolding of the positive half, with the middle angle 0
        seen = []
        unfolded = fekete.energy._unfolded

        def spy(u, n):
            seen.append(unfolded(u, n))
            return seen[-1]

        monkeypatch.setattr(fekete.energy, "_unfolded", spy)
        res = optimize(weight, n)
        assert res.converged
        t = seen[-1]
        assert t[n // 2] == 0.0 and np.array_equal(t, -t[::-1])
        if isinstance(weight, RealWeight):
            assert res.points[n // 2] == 0.0

    @pytest.mark.parametrize("n", [3, 25])
    def test_odd_n_line_matches_the_closed_form(self, n):
        res = optimize(RealWeight(1.3, 2.0), n)
        ref = sgt1_points(1.3, 2.0, n)
        assert res.converged
        assert np.max(np.abs(np.asarray(res.points) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_odd_n_circle_matches_the_closed_diameter(self):
        res = optimize(CircleWeight(0.9), 241)
        assert res.converged
        log_ref = math.log(circle_diameter(0.9, 241))
        assert abs(res.log_diameter - log_ref) <= 1e-13 * abs(log_ref)


def mobius_images(b, n):
    """The angles in [0, 2 pi) of the Moebius images of e^{2 pi i k/n},
    k = 0..n-1, at 40 digits: the Fekete set of CircleWeight(b) that the
    optimizer's gauge picks."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        images = [(b * w - 1) / (w - b) for w in (mpmath.expjpi(mpmath.mpf(2 * k) / n)
                                                   for k in range(n))]
        return np.array([float(mpmath.arg(z) % (2 * mpmath.pi)) for z in images])


def circular_distance(angles, ref):
    """The largest distance on the circle from an angle to its nearest
    reference angle."""
    d = np.abs(np.asarray(angles)[:, None] - ref[None, :]) % TWO_PI
    return float(np.max(np.min(np.minimum(d, TWO_PI - d), axis=1)))


class TestOneCharge:
    # |e^{it} - b| = |b| |e^{it} - 1/b| and w_{-b}(t) = w_b(t + pi): every
    # stage runs at c = min(|b|, 1/|b|), and b < 0 negates the points

    @pytest.mark.parametrize("b", [0.0, 0.35, -0.35, 0.999, -0.999, 2.79, -2.79, 1.001,
                                   -1e6, 1e200])
    def test_every_stage_runs_at_a_charge_in_0_1(self, monkeypatch, b):
        charges = []
        circle_field = fekete.energy._circle_field

        def spy(c, m):
            charges.append(c)
            return circle_field(c, m)

        monkeypatch.setattr(fekete.energy, "_circle_field", spy)
        assert optimize(CircleWeight(b), 12).converged
        assert all(0.0 <= c < 1.0 for c in charges)
        assert charges[-1] == (min(abs(b), 1.0 / abs(b)) if b else 0.0)

    @pytest.mark.parametrize("big", [2.75, 1.001])  # 1 and 10 stages
    def test_four_charge_classes_take_one_newton_path(self, monkeypatch, big):
        # the float 1.0/big, since 1/(1/b) need not give b back
        newton = fekete.energy._newton
        runs = [newton_stages(monkeypatch, newton, CircleWeight(b), 12)
                for b in (big, -big, 1.0 / big, -1.0 / big)]
        for stages in runs[1:]:
            assert len(stages) == len(runs[0])
            for (u, f, steps, backtracks), (u_ref, f_ref, steps_ref, backtracks_ref) in zip(
                    stages, runs[0]):
                assert np.array_equal(u, u_ref)
                assert f == f_ref and steps == steps_ref and backtracks == backtracks_ref

    @pytest.mark.parametrize("n", [12, 48])
    @pytest.mark.parametrize("b", [-0.999, -1.001])
    def test_negative_charge_lands_on_the_exact_set(self, b, n):
        # solved at b itself, -0.999 at n = 12 landed 1.2e-7 rad off, where
        # +0.999 lands 8.9e-16 off
        res = optimize(CircleWeight(b), n)
        assert res.converged
        assert circular_distance(res.points, mobius_images(b, n)) <= 1e-10

    @pytest.mark.parametrize("n", [12, 48])
    @pytest.mark.parametrize("b", [-0.999999, -1.000001, -0.35, -2.79])
    def test_negative_charge_gauge_keeps_the_digits(self, b, n):
        # gauged at b itself, the reference image -1 lies a half-turn from
        # the cluster and its preimage lost the digits: 7.5e-6 rad off at
        # b = -0.999999, n = 12.  Next to the charge the scaled residual
        # floor leaves these unconverged, which is not at issue here
        res = optimize(CircleWeight(b), n)
        assert circular_distance(res.points, mobius_images(b, n)) <= 4.0 * np.spacing(TWO_PI)


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
