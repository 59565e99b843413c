import ast
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import quad

from fekete import (
    InvalidInputError,
    MeasureSpec,
    NumericalError,
    canonical_gamma,
    capacity_circle,
    capacity_real,
    cdf,
    circle_points,
    density,
    frostman_check,
    frostman_check_circle,
    ks_distance,
    log_potential,
    modified_robin_constant,
    s1_points,
    sgt1_points,
)
from fekete.verify import _integral, potential_by_quadrature

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

    @pytest.mark.parametrize("b, t", [(0.9999, 0.0), (0.999999, 0.0), (-0.999999, math.pi)])
    def test_circle_poisson_next_to_charge_against_high_precision(self, b, t):
        # 1 - 2b cos t + b^2 as written was off by 5.0e-9 and 2.2e-5 here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            bb, tt = mpmath.mpf(b), mpmath.mpf(t)
            den = 1 - 2 * bb * mpmath.cos(tt) + bb * bb
            ref = float(abs(1 - bb * bb) / (2 * mpmath.pi * den))
        assert abs(density(MeasureSpec.circle_poisson(b), t) - ref) <= 1e-14 * ref

    def test_outside_support_is_zero(self):
        m = MeasureSpec.real_sgt1(2.0)
        assert density(m, 5.0) == 0.0
        assert density(MeasureSpec.harmonic_inf(1.0), 2.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            MeasureSpec.real_sgt1(1.0)
        with pytest.raises(InvalidInputError):
            MeasureSpec.circle_poisson(1.0)
        with pytest.raises(InvalidInputError):
            MeasureSpec.harmonic_inf(0.0)


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

    @pytest.mark.parametrize("s", [1e6, 1e8, 1e12])
    def test_real_s_at_large_s_against_high_precision(self, s):
        # the sweep identity s H_i - (s-1) H_inf cancels O(s) as written
        mpmath = pytest.importorskip("mpmath")
        m = MeasureSpec.real_sgt1(s)
        r = m.support[1]
        for x in (-0.999 * r, -0.7 * r, -0.2 * r, 0.1 * r, 0.5 * r, 0.95 * r):
            with mpmath.workdps(50):
                t, y = mpmath.mpf(s), mpmath.mpf(x)
                rr = (2 * t - 1) / (t - 1) ** 2
                root = mpmath.sqrt(rr - y * y)
                h_inf = mpmath.atan(y / root) / mpmath.pi
                h_i = mpmath.atan(mpmath.sqrt(1 + rr) * y / root) / mpmath.pi
                expected = float(0.5 + t * h_i - (t - 1) * h_inf)
                expected_density = float(mpmath.sqrt(2 * t - 1 - (t - 1) ** 2 * y * y)
                                         / (mpmath.pi * (1 + y * y)))
            assert abs(cdf(m, x) - expected) <= 1e-15
            assert density(m, x) == pytest.approx(expected_density, rel=1e-13)

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


def mp_cdf(m, xs):
    """The family's CDF at the doubles xs in mpmath at 40 digits, from the
    parameters as m holds them (s, b, and the support's right end as r) and
    clamped to [0, 1], as cdf writes it: the sweep for real-s as
    s H_i - (s-1) H_inf, which cancels O(s), 8 of the 40 digits at s = 1e8."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = m.support
    out = []
    with mpmath.workdps(40):
        pi, r = mpmath.pi, mpmath.mpf(hi)
        if m.family == "circle-poisson":
            b = mpmath.mpf(m.b)
            ratio = abs((1 + b) / (1 - b))
        elif m.family != "arctan":
            k = mpmath.sqrt(1 + r * r) if m.family == "harmonic-i" else 1
        for x in xs:
            t = mpmath.mpf(x)
            if x <= lo or x >= hi:
                val = mpmath.mpf(x > lo)
            elif m.family == "arctan":
                val = 0.5 + mpmath.atan(t) / pi
            elif m.family == "circle-poisson":
                val = mpmath.atan(ratio * mpmath.tan(t / 2)) / pi + (t > pi)
            elif m.family != "real-s":
                val = 0.5 + mpmath.atan2(k * t, mpmath.sqrt((r - t) * (r + t))) / pi
            else:
                root, s = mpmath.sqrt((r - t) * (r + t)), mpmath.mpf(m.s)
                h_inf = mpmath.atan2(t, root)
                h_i = mpmath.atan2(mpmath.sqrt(1 + r * r) * t, root)
                val = 0.5 + (s * h_i - (s - 1) * h_inf) / pi
            out.append(min(max(val, 0), 1))
    return out


CDF_FAMILIES = [
    MeasureSpec.real_sgt1(2.0), MeasureSpec.real_sgt1(1.0000001), MeasureSpec.real_sgt1(1e8),
    MeasureSpec.arctan(),
    MeasureSpec.circle_poisson(0.5), MeasureSpec.circle_poisson(-2.0),
    MeasureSpec.circle_poisson(0.999999),
    MeasureSpec.harmonic_inf(1.0), MeasureSpec.harmonic_inf(1.7461343035679293),
    MeasureSpec.harmonic_i(SQRT3), MeasureSpec.harmonic_i(1e-3),
    # radii at and next to the ends of the unscaled range (_radius_unit)
    MeasureSpec.harmonic_inf(1e150), MeasureSpec.harmonic_i(1e150),
    MeasureSpec.harmonic_i(2.0 ** -480),
]


def spec_id(m):
    params = [repr(v) for v in (m.s, m.b, m.r) if v is not None]
    return f"{m.family}({','.join(params)})"


def cdf_points(m, count):
    """Points outside the support, exactly on and next to both edges, the
    infinities, +-1e12 and an interior sweep of count points."""
    lo, hi = m.support
    pts = [-math.inf, math.inf, -1e12, 1e12, 0.0, -0.0, math.pi, -7.5, 7.5]
    if math.isfinite(lo):
        pts += [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 0.0),
                math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        return pts + np.linspace(lo, hi, count).tolist()
    return pts + np.linspace(-50.0, 50.0, count).tolist()


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestCdfArrays:
    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_within_two_eps_of_mpmath(self, m):
        # numpy's arctan, arctan2 and tan differ from libm's by 1 ulp on a
        # few inputs in a thousand; both routes stay below 0.9 * 2^-52 here
        mpmath = pytest.importorskip("mpmath")
        pts = cdf_points(m, 2001)
        got = cdf(m, np.array(pts)).tolist()
        worst = max(abs(mpmath.mpf(g) - ref) for g, ref in zip(got, mp_cdf(m, pts)))
        assert worst <= 2.0 * 2.0 ** -52, (float(worst) / 2.0 ** -52)

    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_scalar_calls_have_the_bits_of_the_array(self, m):
        pts = cdf_points(m, 97)
        assert bits([cdf(m, x) for x in pts]) == bits(cdf(m, np.array(pts)))

    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_infinities_map_to_zero_and_one(self, m):
        assert cdf(m, -math.inf) == 0.0 and cdf(m, math.inf) == 1.0
        assert cdf(m, np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]

    def test_shapes(self):
        m = MeasureSpec.harmonic_i(SQRT3)
        grid = np.linspace(-2.0, 2.0, 12)
        assert type(cdf(m, 0.3)) is float
        assert type(cdf(m, np.float64(0.3))) is float
        assert type(cdf(m, np.array(0.3))) is float
        assert cdf(m, grid.reshape(3, 4)).shape == (3, 4)
        assert cdf(m, grid.tolist()).shape == (12,)
        assert cdf(m, np.array([])).shape == (0,)
        assert bits(cdf(m, grid.reshape(3, 4)).ravel()) == bits(cdf(m, grid))

    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_nan_is_rejected(self, m):
        # at the parent the scalar route returned nan
        with pytest.raises(InvalidInputError):
            cdf(m, math.nan)
        with pytest.raises(InvalidInputError):
            cdf(m, np.array([0.0, math.nan, 0.5]))


def line_capacity_reference(s, dps):
    """The capacity of the line's weight at s >= 1 as an mpmath number,
    evaluated to dps digits in the log1p form

        log cap = -(s-1)^2 log1p(-1/s) + (2s-1)^2/2 log1p(-1/(2s)) - log(2s)/2,

    where only the two O(s) terms cancel, down to O(1): about log10(s) of
    the dps digits go.  The form with log s, log(s-1) and log(2s-1) cancels
    O(s^2 log s) terms instead."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        t = mpmath.mpf(s)
        return mpmath.exp(-(t - 1) ** 2 * mpmath.log1p(-1 / t)
                          + (2 * t - 1) ** 2 / 2 * mpmath.log1p(-1 / (2 * t))
                          - mpmath.log(2 * t) / 2)


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

    @pytest.mark.parametrize("s", [1e3, 1e4, 1e6, 1e8, 1e12])
    def test_large_s_against_high_precision(self, s):
        assert capacity_real(s) == pytest.approx(float(line_capacity_reference(s, 50)),
                                                 rel=1e-14)

    @pytest.mark.parametrize("s", [2.0 ** 1023, 1e308, 1.7976931348623157e308])
    def test_past_the_overflow_of_2s_against_high_precision(self, s):
        ref = float(line_capacity_reference(s, 340))  # 308 digits cancel
        # relative only: approx's default absolute 1e-12 would pass any value here
        assert abs(capacity_real(s) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("s", [4.0, 10.0, 1e3, 1e50, 1e200, 1e300, 8e307])
    def test_series_branch_to_rounding(self, s):
        # the exponential of -(1/2) log(2s) + R, near -355 at the top of the
        # range, was 1.8e-14 off at s = 1e300
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(700):
            ref = line_capacity_reference(s, 700)
            err = float(abs(mpmath.mpf(capacity_real(s)) - ref) / ref)
        assert err <= 4.5e-16

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

    def test_requires_s_above_one(self):
        with pytest.raises(InvalidInputError):
            modified_robin_constant(1.0)

    @pytest.mark.parametrize("s", [1.0 + 1e-12, 1.0 + 1e-8, 1.001, 1.5, 5.0, 1e6, 1e12,
                                   1e100, 1e300])
    def test_against_high_precision(self, s):
        # s g + (s-1) log(r/2) cancels two terms of size (s/2) log s, so the
        # reference carries 2 log10(s) digits more than the 40 it keeps
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(int(2 * math.log10(s)) + 40):
            t = mpmath.mpf(s)
            r = mpmath.sqrt(2 * t - 1) / (t - 1)
            ref = t * mpmath.log((mpmath.sqrt(r * r + 1) + 1) / r) + (t - 1) * mpmath.log(r / 2)
            err = float(abs(mpmath.mpf(modified_robin_constant(s)) - ref) / ref)
        assert err <= 1e-14


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

    @pytest.mark.parametrize("s", [1e8, 1e12, 1e100, 1e300])
    def test_report_at_large_s(self, s):
        # F cancelled as s g + (s-1) log(r/2): 1.9e-3 off at 1e12, 0 at 1e100
        r = MeasureSpec.real_sgt1(s).support[1]
        report = frostman_check(s, r * np.linspace(-3.0, 3.0, 41))
        assert report.frostman_max_violation <= 1e-14
        assert report.frostman_max_onsupport_deviation <= 1e-14

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(InvalidInputError):
            frostman_check(2.0, [0.0, math.inf])

    def test_empty_grid(self):
        report = frostman_check(2.0, np.array([]))
        assert report.frostman_max_violation == -math.inf
        assert report.frostman_max_onsupport_deviation == 0.0


def potential_reference(m, x):
    """U(x) = -int_0^pi log|x - r cos phi| w(phi) d phi in 30-digit
    arithmetic, from the family's density in the angle phi of r cos phi,
    split where the logarithm is singular."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r, xx = mpmath.mpf(m.support[1]), mpmath.mpf(x)
        if m.family == "real-s":
            w = lambda p: ((mpmath.mpf(m.s) - 1) * (r * mpmath.sin(p)) ** 2
                           / (mpmath.pi * (1 + (r * mpmath.cos(p)) ** 2)))
        elif m.family == "harmonic-inf":
            w = lambda p: 1 / mpmath.pi
        else:
            w = lambda p: mpmath.sqrt(1 + r * r) / (mpmath.pi * (1 + (r * mpmath.cos(p)) ** 2))
        if abs(xx) > r:
            ends = [0, mpmath.pi]
            dist = lambda p: abs(xx - r * mpmath.cos(p))
        else:
            # r cos p - r cos p0 as a product, which does not cancel next to p0
            p0 = mpmath.acos(xx / r)
            ends = [0, p0, mpmath.pi] if 0 < p0 < mpmath.pi else [0, mpmath.pi]
            dist = lambda p: abs(2 * r * mpmath.sin((p + p0) / 2) * mpmath.sin((p - p0) / 2))
        return float(-mpmath.quad(lambda p: mpmath.log(dist(p)) * w(p), ends))


INTERVAL_FAMILIES = [MeasureSpec.real_sgt1(s) for s in (1.5, 2.0, 5.0, 1e6)] + [
    MeasureSpec.harmonic_i(SQRT3), MeasureSpec.harmonic_inf(1.0)]


class TestLogPotential:
    @pytest.mark.parametrize("m", INTERVAL_FAMILIES, ids=spec_id)
    def test_against_high_precision(self, m):
        r = m.support[1]
        xs = r * np.array([-3.0, -1.0, -0.7, 0.0, 0.2, 0.999, 1.0, 1.001, 1.4])
        got = log_potential(m, xs)
        ref = np.array([potential_reference(m, x) for x in xs.tolist()])
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_harmonic_i_at_the_edges(self):
        # the quadrature gave up at x = +-r
        m = MeasureSpec.harmonic_i(SQRT3)
        for x in (-SQRT3, SQRT3):
            assert abs(log_potential(m, x) - potential_reference(m, x)) <= 1e-13

    def test_far_outside_and_tiny_support(self):
        # r / |x| underflows: U(x) = -log|x| to rounding
        m = MeasureSpec.real_sgt1(1e300)
        xs = np.array([-1e300, 1e-100, 1e300])
        got = log_potential(m, xs)
        assert got[0] == pytest.approx(-math.log(1e300), rel=1e-15)
        assert got[2] == pytest.approx(-math.log(1e300), rel=1e-15)
        assert got[1] == pytest.approx(potential_reference(m, 1e-100), rel=1e-13)

    @pytest.mark.parametrize("b", [0.5, -0.5, 3.0, -3.0])
    def test_circle_against_the_quadrature_oracle(self, b):
        m = MeasureSpec.circle_poisson(b)
        ts = np.array([0.3, 2.0, 4.0, 6.0])
        oracle = [potential_by_quadrature(m, t) for t in ts.tolist()]
        assert np.max(np.abs(log_potential(m, ts) - oracle)) <= 1e-12

    def test_arctan_against_high_precision(self):
        # U(x) = -log|x - i|, where x^2 overflows past |x| = 1.3e154
        mpmath = pytest.importorskip("mpmath")
        m = MeasureSpec.arctan()
        for x in (0.0, 1e-9, -0.5, 3.0, -1e200, 1.7976931348623157e308):
            with mpmath.workdps(30):
                ref = float(-mpmath.log1p(mpmath.mpf(x) ** 2) / 2)
            assert log_potential(m, x) == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m", [MeasureSpec.arctan(), MeasureSpec.real_sgt1(2.0),
                                   MeasureSpec.harmonic_i(SQRT3),
                                   MeasureSpec.circle_poisson(0.5)], ids=spec_id)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
    def test_nonfinite_x_is_rejected(self, m, bad):
        # the quadrature raised NumericalError here
        with pytest.raises(InvalidInputError, match="finite x"):
            log_potential(m, bad)
        with pytest.raises(InvalidInputError, match="finite x"):
            log_potential(m, np.array([0.0, bad, 0.5]))

    def test_shapes(self):
        m = MeasureSpec.harmonic_i(SQRT3)
        grid = np.linspace(-2.0, 2.0, 12)
        assert type(log_potential(m, 0.3)) is float
        assert type(log_potential(m, np.array(0.3))) is float
        assert log_potential(m, grid.reshape(3, 4)).shape == (3, 4)
        assert log_potential(m, np.array([])).shape == (0,)
        assert (bits([log_potential(m, x) for x in grid.tolist()])
                == bits(log_potential(m, grid)))


def run_fresh(code):
    """stdout of a fresh interpreter running code with fekete importable."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], check=True,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return proc.stdout


class TestFrostmanNearOne:
    @pytest.mark.parametrize("s", [1.0 + 1e-12, 1.0 + 1e-8, 1.0 + 1e-6, 1.0001, 1.001])
    def test_passes_where_quadrature_gave_up(self, s):
        # the support radius grows like 1/(s - 1): the grid lies inside it,
        # then the grid scaled by it reaches three times past it
        r = MeasureSpec.real_sgt1(s).support[1]
        for grid in (np.linspace(-3.0, 3.0, 41), r * np.linspace(-3.0, 3.0, 41)):
            report = frostman_check(s, grid)
            assert report.frostman_max_violation <= 1e-6
            assert report.frostman_max_onsupport_deviation <= 1e-6

    def test_near_one_passes_fast_without_the_quadrature(self):
        # the moments by FFT raised NumericalError here after about 1 s
        out = run_fresh("""
            import sys, time
            import numpy as np
            from fekete import frostman_check, frostman_check_circle
            t0 = time.perf_counter()
            line = frostman_check(1.0 + 1e-8, np.linspace(-3.0, 3.0, 41))
            circle = frostman_check_circle(0.999999, np.linspace(0.0, 6.3, 41))
            print(time.perf_counter() - t0, line.frostman_max_violation,
                  line.frostman_max_onsupport_deviation,
                  circle.frostman_max_onsupport_deviation, "scipy.integrate" in sys.modules)
        """).split()
        assert float(out[0]) < 0.5
        assert all(float(v) <= 1e-6 for v in out[1:4])
        assert out[4] == "False"

    def test_does_not_load_the_quadrature(self):
        out = run_fresh("""
            import sys
            from fekete import frostman_check, frostman_check_circle
            frostman_check(2.0, [-3.0, 0.0, 0.5, 3.0])
            frostman_check_circle(0.5, [0.0, 1.0])
            print("scipy.integrate" in sys.modules)
        """)
        assert out.strip() == "False"


class TestFrostmanCircle:
    @pytest.mark.parametrize("b", [0.0, 0.5, -0.5, 3.0, 0.999, -0.999, 1.001, -1.001])
    def test_constant_on_the_circle(self, b):
        report = frostman_check_circle(b, np.linspace(-1.0, TWO_PI + 1.0, 61))
        assert report.frostman_max_onsupport_deviation <= 1e-6
        assert report.frostman_max_violation <= 1e-6
        assert report.modified_robin == (0.0 if abs(b) < 1 else math.log(abs(b)))
        assert report.capacity == capacity_circle(b)
        assert report.robin_constant == pytest.approx(-math.log(capacity_circle(b)), rel=1e-14)

    def test_robin_constant_stays_finite_where_the_capacity_underflows(self):
        report = frostman_check_circle(1e200, [0.0, 2.0])
        assert report.capacity == 0.0
        assert report.robin_constant == pytest.approx(2.0 * math.log(1e200), rel=1e-15)
        assert report.frostman_max_onsupport_deviation <= 1e-6

    def test_grid_validation_and_empty_grid(self):
        with pytest.raises(InvalidInputError):
            frostman_check_circle(0.5, [0.0, math.nan])
        report = frostman_check_circle(0.5, [])
        assert report.frostman_max_violation == -math.inf
        assert report.frostman_max_onsupport_deviation == 0.0


class TestKsDistance:
    def test_uniform_vs_uniform(self):
        for n in (4, 9, 25):
            angles = TWO_PI * np.arange(n) / n
            assert ks_distance(angles, MeasureSpec.circle_poisson(0.0)) <= 1.0 / n + 1e-12

    def test_single_point_at_median(self):
        assert ks_distance([0.0], MeasureSpec.arctan()) == pytest.approx(0.5)

    @pytest.mark.parametrize("points, m", [
        (sgt1_points(1.0, 2.0, 40), MeasureSpec.real_sgt1(2.0)),
        (sgt1_points(1.0, 1.5, 7), MeasureSpec.real_sgt1(1.5)),
        (s1_points(1.0, 60, canonical_gamma(60)), MeasureSpec.arctan()),
        (circle_points(0.5, 33, 0.0).angles, MeasureSpec.circle_poisson(0.5)),
        (circle_points(-2.0, 50, 0.3).angles, MeasureSpec.circle_poisson(-2.0)),
        (np.linspace(-3.0, 3.0, 25), MeasureSpec.harmonic_i(SQRT3)),
        (np.linspace(-1.0, 1.0, 9), MeasureSpec.harmonic_inf(1.0)),
        ([5.0, -1.0, 0.25, 0.25], MeasureSpec.real_sgt1(2.0)),
    ], ids=["real-s-fekete", "real-s-small-n", "arctan-fekete", "circle-inside",
            "circle-outside", "harmonic-i-grid", "harmonic-inf-edges", "ties-and-outside"])
    def test_matches_the_pointwise_loop(self, points, m):
        xs = np.sort(np.asarray(points, dtype=float).ravel())
        n = xs.size
        worst = 0.0
        for i, x in enumerate(xs):
            c = cdf(m, float(x))
            worst = max(worst, abs((i + 1) / n - c), abs(i / n - c))
        got = ks_distance(points, m)
        assert type(got) is float and bits([got]) == bits([worst])

    @pytest.mark.parametrize("n", [10, 1000, 10_000])
    def test_exact_distances_of_the_closed_form_sets(self, n):
        """The canonical s = 1 set has CDF values (2i+1)/(2n), hence KS
        distance 1/(2n); circle_points(b, n, 0) has i/n, hence 1/n.

        The computed distance is off by the rounding of (i+1)/n or i/n
        (at most 2^-53, as they are at most 1), the error of cdf at the
        computed point (at most 2 * 2^-52, test_within_two_eps_of_mpmath),
        and the error of the point itself, budgeted as three roundings of an
        angle below 2 pi (each at most 2^-51) that the CDF carries over
        times its density in the angle: 1/pi for s = 1 and at most 3/(2 pi)
        for these b, so under 2^-52 each.  The sum is 5.5 * 2^-52, under the
        bound 6 * 2^-52; the worst seen is 1.95 * 2^-52 (b = 0.5, n = 10^4)."""
        bound = 6.0 * 2.0 ** -52
        got = ks_distance(s1_points(1.0, n, canonical_gamma(n)), MeasureSpec.arctan())
        assert abs(got - 1.0 / (2 * n)) <= bound
        for b in (0.5, -3.98):
            got = ks_distance(circle_points(b, n, 0.0).angles, MeasureSpec.circle_poisson(b))
            assert abs(got - 1.0 / n) <= bound

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_points(self, bad):
        # at the parent a NaN point was dropped silently: 0.5 came back here
        with pytest.raises(InvalidInputError):
            ks_distance([0.0, bad, 0.5], MeasureSpec.real_sgt1(2.0))
        with pytest.raises(InvalidInputError):
            ks_distance([bad], MeasureSpec.arctan())


def scalar_density(m, x):
    """The density formulas as the earlier per-call dispatch wrote them: the
    bit reference of the per-family closures."""
    x = float(x)
    lo, hi = m.support
    if m.family == "arctan":
        return 1.0 / (math.pi * (1.0 + x * x))
    if m.family == "circle-poisson":
        if not lo <= x <= hi:
            return 0.0
        u = m.weight.unit
        c = m.b * u
        return abs(u - c) * abs(u + c) / (TWO_PI * m.weight.dist_sq(x))
    if not lo < x < hi:
        return 0.0
    root = math.sqrt((hi - x) * (hi + x))
    if m.family == "real-s":
        return (m.s - 1.0) * root / (math.pi * (1.0 + x * x))
    if m.family == "harmonic-inf":
        return 1.0 / (math.pi * root)
    return math.sqrt(hi * hi + 1.0) / (math.pi * (1.0 + x * x) * root)


# the families and points of verify's unit-mass, cdf-vs-quadrature,
# modified-robin-consistency and log-potential-vs-quadrature checks
UNIT_MASS_FAMILIES = (
    [MeasureSpec.real_sgt1(s) for s in (1.5, 2.0, 5.0)] + [MeasureSpec.arctan()]
    + [MeasureSpec.circle_poisson(b) for b in (0.0, 0.5, 2.0, -0.5)]
    + [MeasureSpec.harmonic_inf(r) for r in (1.0, SQRT3)]
    + [MeasureSpec.harmonic_i(r) for r in (1.0, SQRT3)]
)
CDF_ORACLE_FAMILIES = [MeasureSpec.real_sgt1(2.0), MeasureSpec.harmonic_i(SQRT3),
                       MeasureSpec.harmonic_inf(1.0), MeasureSpec.circle_poisson(0.5)]
FIELD_S = [2.0, 5.0]
POTENTIAL_CASES = (
    [(m, x) for m in (MeasureSpec.real_sgt1(2.0), MeasureSpec.harmonic_i(SQRT3))
     for x in (m.support[1] * np.array([-2.0, -1.1, -0.8, -0.3, 0.0, 0.45, 0.9, 1.25,
                                        3.0])).tolist()]
    + [(MeasureSpec.circle_poisson(b), t) for b, t in ((0.5, 2.0), (-0.5, 4.0), (3.0, math.pi))]
)
ORACLE_BOUND = 1e-13  # the rule against mpmath and scipy on the checks above


def field(x):
    return 0.5 * np.log1p(x * x)


def mp_measure(m, mp):
    """(angle, point, weight) of the family in mpmath: the angle of _integral
    and its inverse, and d mu / d angle written in the angle, where the
    square roots of the edges are r cos(theta)."""
    if m.family == "arctan":
        return mp.atan, mp.tan, lambda th: 1 / mp.pi
    if m.is_circle:
        b = mp.mpf(m.b)
        return mp.mpf, mp.mpf, lambda t: abs(1 - b * b) / (2 * mp.pi * (1 - 2 * b * mp.cos(t)
                                                                          + b * b))
    r = mp.mpf(m.support[1])
    weights = {
        "real-s": lambda th: ((mp.mpf(m.s) - 1) * (r * mp.cos(th)) ** 2
                              / (mp.pi * (1 + (r * mp.sin(th)) ** 2))),
        "harmonic-inf": lambda th: 1 / mp.pi,
        "harmonic-i": lambda th: mp.sqrt(1 + r * r) / (mp.pi * (1 + (r * mp.sin(th)) ** 2)),
    }
    return (lambda x: mp.asin(x / r)), (lambda th: r * mp.sin(th)), weights[m.family]


def mp_integral(m, f=None, upto=None):
    """_integral's value in 30-digit arithmetic: int f d mu from the left
    end of the support up to each value of upto (the whole support when
    None), a float or an array as _integral returns it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        angle, point, weight = mp_measure(m, mp)
        lo, hi = m.support
        f = f or (lambda x: 1)
        ends = [angle(mp.mpf(x)) for x in [lo] + np.atleast_1d(hi if upto is None
                                                                 else upto).tolist()]
        total, out = mp.mpf(0), []
        for a, b in zip(ends, ends[1:]):
            total += mp.quad(lambda th: f(point(th)) * weight(th), [a, b])
            out.append(float(total))
    return out[-1] if np.ndim(upto) == 0 else np.array(out)


def mp_potential(m, x):
    """-int log|x - t| d mu(t) in 30-digit arithmetic, in the offset from x
    on the circle, which does not cancel next to it."""
    if not m.is_circle:
        return potential_reference(m, x)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        _, _, weight = mp_measure(m, mp)
        xx = mp.mpf(x)
        return float(-mp.quad(lambda u: mp.log(abs(2 * mp.sin(u / 2))) * weight(xx + u),
                              [-xx, 0, 2 * mp.pi - xx]))


def scipy_integral(m, f=None, upto=None, singular=None):
    """_integral's value by scipy.integrate.quad, one call per value of
    upto, in _integral's angles, split at singular, with the scalar density
    at each node."""
    lo, hi = m.support
    if m.family == "arctan":
        angle, point, jacobian = math.atan, math.tan, lambda th: 1.0 / math.cos(th) ** 2
    elif m.is_circle:
        angle = point = float
        jacobian = lambda t: 1.0
    else:
        angle = lambda x: math.asin(min(max(x / hi, -1.0), 1.0))
        point, jacobian = (lambda th: hi * math.sin(th)), (lambda th: hi * math.cos(th))
    f = f or (lambda x: 1.0)

    def g(theta):
        x = point(theta)
        return float(f(x)) * density(m, x) * jacobian(theta)

    pts = [angle(singular)] if singular is not None and lo < singular < hi else None
    out = [quad(g, angle(lo), angle(x), points=pts, epsabs=1e-13, epsrel=1e-13,
                limit=200)[0]
           for x in np.atleast_1d(hi if upto is None else upto).tolist()]
    return out[0] if np.ndim(upto) == 0 else np.array(out)


def scipy_potential(m, x):
    if m.is_circle:
        return scipy_integral(m, lambda t: -math.log(2.0 * abs(math.sin((x - t) / 2.0))),
                              singular=x)
    return scipy_integral(m, lambda t: -math.log(abs(x - t)), singular=x)


class TestQuadratureRule:
    """equilibrium.quad, the composite Gauss-Legendre rule behind every
    quadrature oracle, through verify._integral: within ORACLE_BOUND of
    mpmath and of scipy.integrate.quad on each family and point of verify's
    quadrature checks, and NumericalError wherever it cannot reach its
    tolerance."""

    @pytest.mark.parametrize("m", UNIT_MASS_FAMILIES, ids=spec_id)
    def test_total_mass_against_mpmath_and_scipy(self, m):
        got = _integral(m)
        assert abs(got - mp_integral(m)) <= ORACLE_BOUND
        assert abs(got - scipy_integral(m)) <= ORACLE_BOUND

    @pytest.mark.parametrize("m", CDF_ORACLE_FAMILIES, ids=spec_id)
    def test_cdf_oracle_against_mpmath_and_scipy(self, m):
        xs = np.linspace(m.support[0], m.support[1], 41)
        got = _integral(m, upto=xs)
        assert np.max(np.abs(got - mp_integral(m, upto=xs))) <= ORACLE_BOUND
        assert np.max(np.abs(got - scipy_integral(m, upto=xs))) <= ORACLE_BOUND
        # the cumulative sums are the integrals up to each point
        assert all(abs(_integral(m, upto=x) - v) <= ORACLE_BOUND
                   for x, v in zip(xs.tolist()[::8], got.tolist()[::8]))

    @pytest.mark.parametrize("s", FIELD_S)
    def test_field_integral_against_mpmath_and_scipy(self, s):
        m = MeasureSpec.real_sgt1(s)
        got = _integral(m, field, tol=1e-12)
        mpmath = pytest.importorskip("mpmath")
        assert abs(got - mp_integral(m, lambda x: mpmath.log1p(x * x) / 2)) <= ORACLE_BOUND
        assert abs(got - scipy_integral(m, field)) <= ORACLE_BOUND

    @pytest.mark.parametrize("m, x", POTENTIAL_CASES,
                             ids=[f"{spec_id(m)}@{x:.3g}" for m, x in POTENTIAL_CASES])
    def test_potential_oracle_against_mpmath_and_scipy(self, m, x):
        got = potential_by_quadrature(m, x)
        assert abs(got - mp_potential(m, x)) <= ORACLE_BOUND
        assert abs(got - scipy_potential(m, x)) <= ORACLE_BOUND

    @pytest.mark.parametrize("upto", [None, 0.0], ids=["mass", "upto-0"])
    def test_harmonic_i_at_a_million_is_right_or_raises(self, upto):
        # scipy's quad returned 5.0e-12 for the mass here and -9.1e-16 up to 0
        m = MeasureSpec.harmonic_i(1e6)
        want = 1.0 if upto is None else harmonic_reference("harmonic-i", 1e6, 0.0)[1]
        try:
            got = _integral(m, upto=upto)
        except NumericalError:
            return
        assert abs(got - want) <= ORACLE_BOUND

    def test_non_integrable_integrand_gives_up(self):
        with pytest.raises(NumericalError, match="quadrature gave up"):
            quad_rule(lambda x: 1.0 / x, [0.0, 1.0])
        with pytest.raises(NumericalError, match="quadrature gave up"):
            _integral(MeasureSpec.harmonic_inf(1.0), lambda x: 1.0 / np.abs(x))

    def test_non_finite_integrand_gives_up(self):
        with pytest.raises(NumericalError, match="not finite"):
            quad_rule(lambda x: np.where(x > 0.5, np.nan, 1.0), [0.0, 1.0])

    def test_each_interval_of_the_mesh(self):
        # the 32-point rule is exact to degree 63; an empty interval is 0 and
        # a reversed one changes sign
        got = quad_rule(lambda x: x ** 10, [0.0, 1.0, 1.0, 2.0, 1.0])
        assert got.tolist() == pytest.approx([1 / 11, 0.0, 2047 / 11, -2047 / 11],
                                             rel=1e-14, abs=0.0)
        np.testing.assert_allclose(quad_rule(np.cos, np.linspace(0.0, 3.0, 4)),
                                   np.diff(np.sin(np.linspace(0.0, 3.0, 4))),
                                   rtol=0.0, atol=4e-16)

    @pytest.mark.parametrize("m", [MeasureSpec.harmonic_i(1e10), MeasureSpec.harmonic_i(1e100),
                                   MeasureSpec.real_sgt1(1.0 + 1e-12)], ids=spec_id)
    def test_support_past_the_oracle_range_raises_before_integrating(self, m, monkeypatch):
        # the first rule can step over the mass near x = 0, a width ~1/r
        import fekete.equilibrium as eq

        monkeypatch.setattr(eq, "quad", None)
        with pytest.raises(NumericalError, match="past the quadrature oracle"):
            _integral(m)

    @pytest.mark.parametrize("m", [MeasureSpec.harmonic_i(1e4), MeasureSpec.harmonic_i(1e8),
                                   MeasureSpec.harmonic_inf(1e8), MeasureSpec.real_sgt1(1.001)],
                             ids=spec_id)
    def test_unit_mass_inside_the_oracle_range(self, m):
        assert abs(_integral(m) - 1.0) <= 1e-13
        assert abs(_integral(m, upto=0.0) - 0.5) <= 1e-13

    @pytest.mark.parametrize("m", [MeasureSpec.real_sgt1(2.0), MeasureSpec.arctan(),
                                   MeasureSpec.harmonic_inf(1.0), MeasureSpec.harmonic_i(1e-3),
                                   MeasureSpec.circle_poisson(0.5)], ids=spec_id)
    def test_potential_next_to_the_edges_is_right_or_raises(self, m):
        # nodes next to a split point whose point rounds onto it would take
        # log 0; the graded mesh stops short of that, and what the rule
        # cannot resolve raises
        hi = m.support[1]
        if m.is_circle:
            xs = [1e-9, 0.3, 6.25, 2.0 * math.pi - 1e-9]
        elif math.isinf(hi):
            xs = [-1e8, 1e-300, 3.0, 1e8]
        else:
            xs = (hi * np.array([-1.0 + 1e-12, -0.999, 1e-300, 0.999, 1.0 - 1e-9])).tolist()
        for x in xs:
            try:
                got = potential_by_quadrature(m, x)
            except NumericalError:
                continue
            assert abs(got - log_potential(m, x)) <= 1e-11 * max(1.0, abs(got))

    def test_quad_has_one_caller(self):
        # equilibrium.quad is called only from verify._integral, as eq.quad
        # (the module attribute the benchmark tracer wraps), and _integral
        # only from verify's oracles: every production value comes from a
        # closed form
        import fekete.equilibrium as eq

        assert not [name for name in ("_integral", "total_mass") if hasattr(eq, name)]
        calls = {"quad": set(), "_integral": set()}
        for name, tree in source_trees():
            # each node under its top-level function (or method)
            scopes = [item for stmt in tree.body
                      for item in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
            for scope in scopes:
                where = f"{name}:{getattr(scope, 'name', '<module>')}"
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        func = node.func
                        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                        if called in calls:
                            calls[called].add((where, ast.unparse(func)))
        assert calls == {"quad": {("verify.py:_integral", "eq.quad")},
                         "_integral": {("verify.py:potential_by_quadrature", "_integral"),
                                       ("verify.py:_suite_equilibrium", "_integral")}}

    def test_no_source_imports_scipy_integrate(self):
        imports = set()
        for name, tree in source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imports.update((name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imports.update((name, f"{node.module}.{alias.name}") for alias in node.names)
        scipy = {(name, mod) for name, mod in imports if mod.startswith("scipy")}
        assert scipy and not [mod for _, mod in scipy
                              if mod.startswith(("scipy.integrate", "scipy.special"))]

    def test_nodes_come_on_the_first_call(self):
        out = run_fresh("""
            import fekete.equilibrium as eq
            import fekete.verify as v
            before = len(eq._GAUSS)
            v._integral(eq.MeasureSpec.arctan())
            print(before, len(eq._GAUSS))
        """)
        assert out.split() == ["0", "2"]


def quad_rule(f, ends):
    import fekete.equilibrium as eq

    return eq.quad(f, ends)


def source_trees():
    """(file name, parsed module) of every source file of the package."""
    src = os.path.dirname(os.path.abspath(density.__code__.co_filename))
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            text = fh.read()
        assert "np.fft" not in text, name
        yield name, ast.parse(text)


POTENTIAL_FAMILIES = [
    MeasureSpec.real_sgt1(2.0), MeasureSpec.real_sgt1(1.37), MeasureSpec.arctan(),
    MeasureSpec.harmonic_inf(1.0), MeasureSpec.harmonic_i(SQRT3), MeasureSpec.harmonic_i(1e-3),
]


class TestDensityClosures:
    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_density_has_the_bits_of_the_dispatching_formulas(self, m):
        pts = [x for x in cdf_points(m, 4001) if math.isfinite(x)]
        assert bits([density(m, x) for x in pts]) == bits([scalar_density(m, x) for x in pts])

    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_array_has_the_bits_of_the_scalar_calls(self, m):
        pts = cdf_points(m, 4001)
        assert bits(density(m, np.array(pts))) == bits([density(m, x) for x in pts])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [
        # x^2 overflows past |x| = 1.3e154 (numpy warns where a float does not)
        MeasureSpec.arctan(), MeasureSpec.harmonic_i(1e300),
        # r and x scaled by a power of two, or the root next to 1e-150
        MeasureSpec.harmonic_inf(1e-300), MeasureSpec.harmonic_i(1e-300),
        MeasureSpec.real_sgt1(1e300),
        # the charge past 2^128, where CircleWeight scales it
        MeasureSpec.circle_poisson(2.0 ** 129), MeasureSpec.circle_poisson(-1e200),
        MeasureSpec.circle_poisson(-1.7976931348623157e308),
    ], ids=spec_id)
    def test_array_at_the_ends_of_the_double_range(self, m):
        big = np.logspace(-300.0, 300.0, 601)
        extra = [1.3e154, 1.4e154, -1.7976931348623157e308, 1.7976931348623157e308]
        pts = cdf_points(m, 4001) + extra + big.tolist() + (-big).tolist()
        values = density(m, np.array(pts))
        assert bits(values) == bits([density(m, x) for x in pts])
        assert np.count_nonzero(values) > 500

    def test_shapes(self):
        m = MeasureSpec.real_sgt1(2.0)
        grid = np.linspace(-2.0, 2.0, 12)
        assert type(density(m, 0.3)) is float
        assert type(density(m, np.float64(0.3))) is float
        assert type(density(m, np.array(0.3))) is float
        assert density(m, grid.reshape(3, 4)).shape == (3, 4)
        assert density(m, grid.tolist()).shape == (12,)
        assert density(m, np.array([])).shape == (0,)
        assert bits(density(m, grid.reshape(3, 4)).ravel()) == bits(density(m, grid))

    @pytest.mark.parametrize("m", POTENTIAL_FAMILIES, ids=spec_id)
    def test_potential_oracle_within_its_tolerance_of_the_closed_form(self, m):
        hi = m.support[1]
        reach = 3.0 if math.isinf(hi) else 1.5 * hi
        xs = np.linspace(-reach, reach, 101 if m.family == "real-s" else 14)
        got = np.array([potential_by_quadrature(m, x) for x in xs.tolist()])
        closed = log_potential(m, xs)
        assert np.all(np.abs(got - closed) <= 1e-11 * np.maximum(1.0, np.abs(closed)))


class TestOneNumpyRoute:
    @pytest.mark.parametrize("m", CDF_FAMILIES, ids=spec_id)
    def test_grids_need_no_math_trigonometry(self, m, monkeypatch):
        # cdf and density evaluate in numpy ufuncs, a float as a grid of one
        # point: with the math module's trigonometric functions raising,
        # every grid and float still evaluates
        def gone(*_):
            raise AssertionError("an element-by-element math call")

        for name in ("atan", "atan2", "tan", "sin", "cos"):
            monkeypatch.setattr(math, name, gone)
        grid = np.array(cdf_points(m, 401))
        assert np.isfinite(cdf(m, grid)).all() and np.isfinite(density(m, grid)).all()
        x = float(np.mean(m.support) if m.family != "arctan" else 0.5)
        assert 0.0 < cdf(m, x) < 1.0 and density(m, x) > 0.0

    def test_no_math_function_is_passed_as_a_value(self):
        # a math function handed to map, partial or a helper runs element
        # by element over an array's items; np.fromiter collects such maps
        found = []
        for name, tree in source_trees():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                functions = [arg for arg in node.args if isinstance(arg, ast.Attribute)
                             and isinstance(arg.value, ast.Name) and arg.value.id == "math"
                             and arg.attr not in ("pi", "inf", "nan")]
                if functions or ast.unparse(node.func).endswith("fromiter"):
                    found.append((name, ast.unparse(node)))
        assert not found


def harmonic_reference(family, r, x):
    """Density and CDF of a harmonic family in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        rr, xx = mpmath.mpf(r), mpmath.mpf(x)
        root = mpmath.sqrt(rr * rr - xx * xx)
        k = mpmath.sqrt(1 + rr * rr) if family == "harmonic-i" else 1
        dens = k / (mpmath.pi * (1 + xx * xx) ** (family == "harmonic-i") * root)
        return float(dens), float(mpmath.mpf(0.5) + mpmath.atan(k * xx / root) / mpmath.pi)


class TestHarmonicRadius:
    @pytest.mark.parametrize("make", [MeasureSpec.harmonic_inf, MeasureSpec.harmonic_i])
    @pytest.mark.parametrize("r", [1e-200, 2.0 ** -481, 2.0 ** 500, 1.7976931348623157e308])
    def test_density_and_cdf_against_high_precision(self, make, r):
        # r^2 and the edge products leave the double range unless scaled; the
        # measure command's tests take r = 1e-300, 1e160 and 1e200
        m = make(r)
        edge = math.nextafter(r, 0.0)
        for x in (-edge, -0.999 * r, -0.5 * r, -1.5, 0.0, 0.25, 0.1 * r, 0.75 * r, edge):
            if not abs(x) < r:
                continue
            dens, mass = harmonic_reference(m.family, r, x)
            assert abs(cdf(m, x) - mass) <= 4e-16
            if dens > 1e-290:  # harmonic-i past |x| = 1.3e154: evaluates to 0
                assert density(m, x) == pytest.approx(dens, rel=1e-15)
            else:
                assert 0.0 <= density(m, x) <= 1e-290

    @pytest.mark.parametrize("make", [MeasureSpec.harmonic_inf, MeasureSpec.harmonic_i])
    @pytest.mark.parametrize("r", [1e-300, 2.0 ** -481, 2.0 ** 500, 1e300])
    def test_log_potential_against_high_precision(self, make, r):
        # the closed form in 50 digits: (1 - p)^2 underflows in doubles past
        # r = 1e154, and 1 + r^2 overflows
        mpmath = pytest.importorskip("mpmath")
        m = make(r)
        for f in (0.0, 0.3, -0.999, 1.0, -1.5, 1e5):
            with mpmath.workdps(50):
                rr, t = mpmath.mpf(r), mpmath.mpf(f)
                k = mpmath.sqrt(1 + rr * rr) if m.family == "harmonic-i" else 1
                p, one_minus_p = (k - 1) / (k + 1), 2 / (k + 1)
                if abs(t) <= 1:
                    ref = (-mpmath.log(rr / 2)
                           - mpmath.log(one_minus_p ** 2 + 4 * p * t * t) / 2)
                else:
                    eta = mpmath.acosh(abs(t))
                    ref = -mpmath.log(rr / 2) - eta - mpmath.log1p(p * mpmath.exp(-2 * eta))
            assert abs(log_potential(m, f * r) - float(ref)) <= 1e-15 * max(1.0, abs(float(ref)))

    @pytest.mark.parametrize("make", [MeasureSpec.harmonic_inf, MeasureSpec.harmonic_i])
    def test_moderate_radius_runs_unscaled(self, make):
        for r in (2.0 ** -480, 1.0, 1e150, math.nextafter(2.0 ** 500, 0.0)):
            assert make(r).unit == 1.0
        assert make(2.0 ** 500).unit == 2.0 ** -501

    @pytest.mark.parametrize("make", [MeasureSpec.harmonic_inf, MeasureSpec.harmonic_i])
    def test_radius_below_the_bound_is_rejected(self, make):
        make(1e-300)
        with pytest.raises(InvalidInputError, match="r >= 1e-300"):
            make(9.9e-301)
        with pytest.raises(InvalidInputError, match="r > 0"):
            make(0.0)
