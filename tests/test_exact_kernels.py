"""Bit-exactness of the integer kernels against a Fraction reference.

`discriminant_resultant` and `jacobi` evaluate exact rational quantities and
round once.  The reference below computes the same quantities with
`fractions.Fraction` (Bareiss elimination over Q[i], generalized binomials
over Q) and rounds them the same way, so every result must agree to the bit.
The reference is an oracle only; the package does not use it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fekete import NumericalError, Poly, discriminant_resultant
from fekete.real_line import jacobi


def _ref_det(a):
    """Bareiss determinant of a matrix of (re, im) Fraction pairs."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    size = len(a)
    sign = 1
    prev = (Fraction(1), Fraction(0))
    for k in range(size - 1):
        if not any(a[k][k]):
            pivot = next((i for i in range(k + 1, size) if any(a[i][k])), None)
            if pivot is None:
                return Fraction(0), Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        norm = prev[0] ** 2 + prev[1] ** 2
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                x = mul(a[i][j], a[k][k])
                y = mul(a[i][k], a[k][j])
                d = (x[0] - y[0], x[1] - y[1])
                a[i][j] = ((d[0] * prev[0] + d[1] * prev[1]) / norm,
                           (d[1] * prev[0] - d[0] * prev[1]) / norm)
        prev = a[k][k]
    return sign * a[-1][-1][0], sign * a[-1][-1][1]


def ref_discriminant(p: Poly) -> complex:
    q = p.derivative()
    m, n = p.degree, q.degree
    zero = (Fraction(0), Fraction(0))
    s = [[zero] * (m + n) for _ in range(m + n)]
    pc = [(Fraction(c.real), Fraction(c.imag)) for c in p.coeffs.tolist()[::-1]]
    qc = [(Fraction(c.real), Fraction(c.imag)) for c in q.coeffs.tolist()[::-1]]
    for i in range(n):
        s[i][i : i + m + 1] = pc
    for i in range(m):
        s[n + i][i : i + n + 1] = qc
    re, im = _ref_det(s)
    res = complex(float(re), float(im))
    sign = -1.0 if (m * (m - 1) // 2) % 2 else 1.0
    return complex(sign * res / p.leading)


def _gen_binomial(t: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= t - i
    return out / math.factorial(m)


def ref_jacobi(alpha: float, beta: float, n: int) -> Poly:
    alpha_q, beta_q = Fraction(alpha), Fraction(beta)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        c = _gen_binomial(n + alpha_q, n - k) * _gen_binomial(n + beta_q, k)
        for i in range(k + 1):
            for j in range(n - k + 1):
                coeffs[i + j] += c * math.comb(k, i) * (-1) ** (k - i) * math.comb(n - k, j)
    return Poly([float(v / 2 ** n) for v in coeffs])


def same_bits(x: complex, y: complex) -> bool:
    return (math.copysign(1.0, x.real), x.real, math.copysign(1.0, x.imag), x.imag) == \
        (math.copysign(1.0, y.real), y.real, math.copysign(1.0, y.imag), y.imag)


class TestDiscriminantBits:
    def test_random_wide_range_coefficients(self):
        rng = np.random.default_rng(2024)
        for deg in list(range(2, 9)) * 2:
            mag = 2.0 ** rng.uniform(-60, 60, (deg + 1, 2))
            sign = rng.choice([-1.0, 1.0], (deg + 1, 2))
            c = mag[:, 0] * sign[:, 0] + 1j * mag[:, 1] * sign[:, 1]
            p = Poly(c)
            assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    def test_tiny_coefficient(self):
        rng = np.random.default_rng(99)
        for slot in range(4):
            c = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            c[slot] = 1.234e-300
            p = Poly(c)
            assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    @pytest.mark.parametrize("coeffs", [
        [1.1e-300, 0.7 - 0.2j, 1.3e300],   # b^2 - 4ac stays of order one
        [-7.5e299 + 3.1e300j, 3.0, 1e-300],
        [1e300, 0.0, 0.5, 1e-200],       # -4 b^3 d dominates
    ])
    def test_huge_coefficient(self, coeffs):
        p = Poly(coeffs)
        assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    def test_overflow_raises_like_reference(self):
        # the reference overflows in its final rounding; the package reports
        # the same overflow as a NumericalError
        p = Poly([1.0, 2.0, 3e300, 1.0])
        with pytest.raises(OverflowError):
            ref_discriminant(p)
        with pytest.raises(NumericalError, match="double range"):
            discriminant_resultant(p)

    @pytest.mark.parametrize("coeffs", [
        [-1.0 / 3.0, 0.0, 1.0],          # zero pivot at (1, 1): rows swap
        [0.1, 0.0, 0.0, 0.0, -2.5],
        [0.71875, -0.3125, -0.03125],    # the first pivot scales to -1
        [3.0, 0.5, 0.25j],               # the first pivot scales to i
    ])
    def test_special_pivots(self, coeffs):
        p = Poly(coeffs)
        assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    def test_repeated_root_is_exactly_zero(self):
        # (x - 0.5)^2 (x + 0.25) and (x - 1j)^3 have exact dyadic coefficients
        for rts in ([0.5, 0.5, -0.25], [1j, 1j, 1j], [0.75, 0.75, 2.0, -3.0]):
            c = np.array([1.0 + 0j])
            for r in rts:
                c = np.convolve(c, [-r, 1.0])
            p = Poly(c)
            got = discriminant_resultant(p)
            assert got == 0
            assert same_bits(got, ref_discriminant(p))


class TestJacobiBits:
    @staticmethod
    def assert_same(alpha, beta, n):
        got, ref = jacobi(alpha, beta, n), ref_jacobi(alpha, beta, n)
        assert got.degree == ref.degree
        assert all(same_bits(x, y) for x, y in zip(got.coeffs.tolist(), ref.coeffs.tolist()))

    def test_connection_grid(self):
        for s in (1.5, 2.0, 3.25):
            for n in range(2, 21):
                al = -s * (n - 1) - 1.0
                self.assert_same(al, al, n)

    def test_non_dyadic_grid_and_its_discriminants(self):
        for n in range(0, 9):
            sample = (-0.5, 1.3, -3.7, -2.0 * (n - 1) - 1.0)
            for al in sample:
                for be in sample:
                    self.assert_same(al, be, n)
                    p = jacobi(al, be, n)
                    if 2 <= p.degree <= 5:  # the reference is slow at degree 8
                        assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    def test_vanishing_leading_coefficient(self):
        # alpha + beta = -n - 1 kills the x^n term: the degree drops
        assert jacobi(-2.0, -2.0, 3).degree < 3
        self.assert_same(-2.0, -2.0, 3)
        self.assert_same(-0.7, -4.3, 4)
