"""The benchmark's oracles against mpmath at small n.

Run with ``python3 -m pytest bench/test_oracles.py``.  Nothing here imports
the ``fekete`` package: each oracle is held against a high-precision
computation of the same mathematical object.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import oracles as orc

mp.mp.dps = 40


def _mp_line_gradient(a, s, n):
    def g(*x):
        return [sum(2 / (x[k] - x[j]) for j in range(n) if j != k)
                - 2 * s * (n - 1) * x[k] / (x[k] ** 2 + a * a) for k in range(n)]
    return g


def _mp_fekete_line(a, s, n):
    """The stationary point of the line energy next to the tridiagonal
    oracle's points, by Newton's method at 40 digits.  For s > 1 the ordered
    stationary point is unique, so this is the Fekete set whatever the start."""
    x0 = [float(v) for v in orc.sgt1_points(a, s, n)]
    sol = mp.findroot(_mp_line_gradient(mp.mpf(a), mp.mpf(s), n), x0)
    return sorted(sol[k] for k in range(n))


def _mp_log_vandermonde_line(x, a, s):
    n = len(x)
    lv = sum(mp.log(abs(x[j] - x[k])) for j in range(n) for k in range(j + 1, n))
    lv -= (n - 1) * s / 2 * sum(mp.log(t * t + a * a) for t in x)
    return 2 * lv / (n * (n - 1))


@pytest.mark.parametrize("a,s,n", [(1.0, 2.0, 2), (1.0, 2.0, 5), (0.7, 1.5, 8),
                                   (1.3, 3.25, 10), (1.0, 5.0, 12)])
def test_sgt1_points_are_the_mp_stationary_set(a, s, n):
    ref = _mp_fekete_line(a, s, n)
    got = orc.sgt1_points(a, s, n)
    assert max(abs(float(r) - g) for r, g in zip(ref, got)) < 1e-13 * max(1.0, a)
    assert orc.line_residual(got, a, s) < 1e-13


@pytest.mark.parametrize("a,s,n", [(1.0, 2.0, 2), (0.7, 1.5, 8), (1.3, 3.25, 10)])
def test_sgt1_log_diameter_matches_mp_vandermonde(a, s, n):
    ref = _mp_log_vandermonde_line(_mp_fekete_line(a, s, n), a, s)
    assert abs(orc.sgt1_log_diameter(a, s, n) - float(ref)) < 1e-13
    assert abs(orc.line_log_diameter(orc.sgt1_points(a, s, n), a, s) - float(ref)) < 1e-13


@pytest.mark.parametrize("n", [60, 200, 1000])
def test_sgt1_log_diameter_matches_vandermonde_of_tridiagonal_points(n):
    for a, s in ((1.0, 2.0), (0.8, 1.5), (1.25, 3.0)):
        x = orc.sgt1_points(a, s, n)
        assert orc.line_residual(x, a, s) < 1e-11
        assert abs(orc.sgt1_log_diameter(a, s, n) - orc.line_log_diameter(x, a, s)) < 1e-11


def test_sgt1_log_diameter_decreases_to_capacity():
    s = 2.0
    gaps = [orc.sgt1_log_diameter(1.0, s, n) - math.log(orc.line_capacity(s))
            for n in (10, 100, 1000, 10000, 100000)]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_residual_detects_a_perturbation():
    x = orc.sgt1_points(1.0, 2.0, 20)
    x[7] += 1e-6
    assert orc.line_residual(x, 1.0, 2.0) > 1e-8
    x[8] = x[7]
    assert orc.line_residual(x, 1.0, 2.0) == math.inf


@pytest.mark.parametrize("a,n,gamma", [(1.0, 3, None), (0.8, 7, -1.4), (2.0, 12, None)])
def test_s1_progression_is_mp_stationary(a, n, gamma):
    g = -math.pi / 2 + math.pi / (2 * n) if gamma is None else gamma
    x_mp = [a * mp.tan(g + k * mp.pi / n) for k in range(n)]
    grad = _mp_line_gradient(mp.mpf(a), 1, n)(*x_mp)
    assert max(abs(v) for v in grad) < mp.mpf(10) ** -30
    x = orc.s1_points(a, n, g)
    assert orc.line_residual(x, a, 1.0) < 1e-13
    assert orc.s1_progression_error(x, a) < 1e-14
    assert orc.s1_progression_error(x, a, g) < 1e-14
    ref = _mp_log_vandermonde_line(sorted(x_mp), a, 1)
    assert abs(orc.s1_log_diameter(a, n) - float(ref)) < 1e-13
    x[1] += 1e-7
    assert orc.s1_progression_error(x, a) > 1e-9


@pytest.mark.parametrize("b,n,alpha", [(0.5, 3, 0.0), (-0.3, 7, 0.4), (2.0, 8, 0.0),
                                       (-3.0, 11, 0.25)])
def test_circle_mobius_images_are_mp_stationary(b, n, alpha):
    bm = mp.mpf(b)
    pre = [mp.expj(alpha + 2 * mp.pi * k / n) for k in range(n)]
    t = sorted(mp.arg((bm * w - 1) / (w - bm)) % (2 * mp.pi) for w in pre)
    grad = [sum(mp.cot((t[k] - t[j]) / 2) for j in range(n) if j != k)
            - 2 * (n - 1) * bm * mp.sin(t[k]) / (1 - 2 * bm * mp.cos(t[k]) + bm * bm)
            for k in range(n)]
    assert max(abs(v) for v in grad) < mp.mpf(10) ** -30
    tf = np.array([float(v) for v in t])
    assert orc.circle_residual(tf, b) < 1e-13
    assert orc.circle_preimage_error(tf, b) < 1e-13
    assert orc.circle_preimage_error(tf, b, alpha) < 1e-13
    lv = sum(mp.log(2 * abs(mp.sin((t[j] - t[k]) / 2))) for j in range(n) for k in range(j + 1, n))
    lv -= (n - 1) / mp.mpf(2) * sum(mp.log(1 - 2 * bm * mp.cos(u) + bm * bm) for u in t)
    ref = 2 * lv / (n * (n - 1))
    assert abs(orc.circle_log_diameter(tf, b) - float(ref)) < 1e-13
    assert abs(orc.circle_closed_log_diameter(b, n) - float(ref)) < 1e-13
    tf[2] += 1e-7
    assert orc.circle_preimage_error(tf, b) > 1e-9


def _mp_density(m):
    """The family's density in mpmath; square-root-edge families take the
    root sqrt(r^2 - x^2) as an optional second argument, so that integrands
    written in x = r sin(theta) can pass r cos(theta) without cancellation."""
    f = m.family
    if f == "arctan":
        return lambda x: 1 / (mp.pi * (1 + x * x))
    if f == "circle-poisson":
        b = mp.mpf(m.b)
        return lambda t: abs(1 - b * b) / (2 * mp.pi * (1 - 2 * b * mp.cos(t) + b * b))
    r = mp.mpf(m.r)

    def dens(x, root=None):
        if f == "real-s" and root is None:
            s = mp.mpf(m.s)
            return mp.sqrt(max(2 * s - 1 - (s - 1) ** 2 * x * x, 0)) / (mp.pi * (1 + x * x))
        root = mp.sqrt(r * r - x * x) if root is None else root
        if f == "harmonic-inf":
            return 1 / (mp.pi * root)
        if f == "harmonic-i":
            return mp.sqrt(r * r + 1) / (mp.pi * (1 + x * x) * root)
        return (m.s - 1) * root / (mp.pi * (1 + x * x))
    return dens


MEASURES = [orc.Measure("real-s", s=1.5), orc.Measure("real-s", s=2.0),
            orc.Measure("real-s", s=5.0), orc.Measure("arctan"),
            orc.Measure("circle-poisson", b=0.5), orc.Measure("circle-poisson", b=-0.3),
            orc.Measure("circle-poisson", b=2.0), orc.Measure("circle-poisson", b=-3.0),
            orc.Measure("harmonic-inf", r=1.0), orc.Measure("harmonic-inf", r=2.5),
            orc.Measure("harmonic-i", r=1.0), orc.Measure("harmonic-i", r=math.sqrt(3.0))]


@pytest.mark.parametrize("m", MEASURES, ids=lambda m: f"{m.family}-{m.s or m.b or m.r}")
def test_cdf_and_density_match_mp_quadrature(m):
    dens = _mp_density(m)
    lo, hi = m.support
    if m.family == "arctan":
        lo, hi = -30.0, 30.0
    for frac in (0.001, 0.1, 0.37, 0.5, 0.81, 0.999):
        x = lo + frac * (hi - lo)
        # substitute t = r sin(theta) at square-root edges so mp.quad sees a
        # smooth integrand
        if m.family in ("real-s", "harmonic-inf", "harmonic-i"):
            r = mp.mpf(m.r)
            ref = mp.quad(lambda th: dens(r * mp.sin(th), r * mp.cos(th)) * r * mp.cos(th),
                          [-mp.pi / 2, mp.asin(x / r)])
        else:
            ref = mp.quad(dens, [-mp.inf, 0, x] if m.family == "arctan" else [lo, x])
        assert abs(m.cdf(x) - float(ref)) < 1e-13, (x, m.cdf(x), ref)
        assert abs(m.density(x) - float(dens(mp.mpf(x)))) <= 1e-13 * float(dens(mp.mpf(x)))
    if m.family != "arctan":
        assert m.cdf(lo) == 0.0 and m.cdf(hi) == 1.0


def test_real_s_mass_and_edges():
    m = orc.Measure("real-s", s=2.0)
    assert m.density(m.support[0]) == 0.0 and m.density(m.support[1]) == 0.0
    assert abs(m.cdf(m.support[1] * (1 - 1e-15)) - 1.0) < 1e-6


def test_modified_robin_is_the_potential_plus_field_on_the_support():
    s = mp.mpf(2)
    m = orc.Measure("real-s", s=2.0)
    r = mp.mpf(m.r)
    dens = _mp_density(m)
    for x in (mp.mpf("0.3"), mp.mpf("-1.1")):
        th0 = mp.asin(x / r)
        pot = -mp.quad(lambda th: mp.log(abs(x - r * mp.sin(th)))
                       * dens(r * mp.sin(th), r * mp.cos(th)) * r * mp.cos(th),
                       [-mp.pi / 2, th0, mp.pi / 2])
        assert abs(float(pot + s / 2 * mp.log(1 + x * x)) - orc.modified_robin(2.0)) < 1e-12


def test_capacities():
    assert orc.line_capacity(1.0) == 0.5
    # the s -> 1+ limit of the closed form is the s = 1 value
    assert abs(orc.line_capacity(1.0 + 1e-9) - 0.5) < 1e-6
    assert orc.circle_capacity(0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert orc.circle_capacity(-2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_ks_distance():
    m = orc.Measure("arctan")
    assert orc.ks_distance([0.0], m) == pytest.approx(0.5, abs=1e-15)
    n = 50
    x = orc.s1_points(1.0, n, -math.pi / 2 + math.pi / (2 * n))
    assert orc.ks_distance(x, m) == pytest.approx(0.5 / n, abs=1e-14)
