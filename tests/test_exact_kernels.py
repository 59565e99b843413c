"""Bit-exactness of the integer kernels against a Fraction reference.

`discriminant_resultant` and `jacobi` evaluate exact rational quantities and
round them once; the discriminant eliminates the Bezout matrix over Z and
`jacobi` sums the product form.  The reference below computes the same
quantities by other formulations with `fractions.Fraction` (Bareiss
elimination of the Sylvester matrix over Q, the defining sum of generalized
binomials over Q) and rounds them the same way, so every result must agree
to the bit.  The reference is an oracle only; the package does not use it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.polynomial.polyutils import trimseq

from fekete import NumericalError
from fekete.poly import discriminant_resultant, jacobi, pseudo_jacobi


def _ref_det(a):
    """Bareiss determinant of a matrix of Fractions."""
    size = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(size - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[-1][-1]


def ref_discriminant(p) -> float:
    p = np.asarray(p, dtype=float)
    q = P.polyder(p)
    m, n = p.size - 1, q.size - 1
    s = [[Fraction(0)] * (m + n) for _ in range(m + n)]
    pc = [Fraction(c) for c in p.tolist()[::-1]]
    qc = [Fraction(c) for c in q.tolist()[::-1]]
    for i in range(n):
        s[i][i : i + m + 1] = pc
    for i in range(m):
        s[n + i][i : i + n + 1] = qc
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return float(sign * _ref_det(s)) / float(p[-1])


def _gen_binomial(t: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= t - i
    return out / math.factorial(m)


def ref_jacobi(alpha: float, beta: float, n: int) -> np.ndarray:
    alpha_q, beta_q = Fraction(alpha), Fraction(beta)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        c = _gen_binomial(n + alpha_q, n - k) * _gen_binomial(n + beta_q, k)
        for i in range(k + 1):
            for j in range(n - k + 1):
                coeffs[i + j] += c * math.comb(k, i) * (-1) ** (k - i) * math.comb(n - k, j)
    return trimseq(np.array([float(v / 2 ** n) for v in coeffs]))


def same_bits(x: float, y: float) -> bool:
    return (math.copysign(1.0, x), x) == (math.copysign(1.0, y), y)


class TestDiscriminantBits:
    def test_random_wide_range_coefficients(self):
        rng = np.random.default_rng(2024)
        for deg in list(range(2, 9)) * 2:
            p = 2.0 ** rng.uniform(-60, 60, deg + 1) * rng.choice([-1.0, 1.0], deg + 1)
            assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    def test_tiny_coefficient(self):
        rng = np.random.default_rng(99)
        for slot in range(4):
            p = rng.uniform(-2, 2, 4)
            p[slot] = 1.234e-300
            assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    @pytest.mark.parametrize("coeffs", [
        [1.1e-300, 0.7, 1.3e300],   # b^2 - 4ac stays of order one
        [-7.5e299, 3.0, 1e-300],
        [1e300, 0.0, 0.5, 1e-200],  # -4 b^3 d dominates
    ])
    def test_huge_coefficient(self, coeffs):
        assert same_bits(discriminant_resultant(coeffs), ref_discriminant(coeffs))

    def test_overflow_raises_like_reference(self):
        # the reference overflows in its final rounding; the package reports
        # the same overflow as a NumericalError
        p = [1.0, 2.0, 3e300, 1.0]
        with pytest.raises(OverflowError):
            ref_discriminant(p)
        with pytest.raises(NumericalError, match="double range"):
            discriminant_resultant(p)

    @pytest.mark.parametrize("coeffs", [
        [-1.0 / 3.0, 0.0, 1.0],          # zero pivot at (1, 1): rows swap
        [0.1, 0.0, 0.0, 0.0, -2.5],
        [0.71875, -0.3125, -0.03125],    # the first pivot scales to -1
    ])
    def test_special_pivots(self, coeffs):
        assert same_bits(discriminant_resultant(coeffs), ref_discriminant(coeffs))

    def test_repeated_root_is_exactly_zero(self):
        # (x - 0.5)^2 (x + 0.25) and (x + 1.5)^3 have exact dyadic coefficients;
        # a zero discriminant carries the sign of 1 / gamma
        for rts in ([0.5, 0.5, -0.25], [-1.5, -1.5, -1.5], [0.75, 0.75, 2.0, -3.0]):
            for lead in (1.0, -1.0):
                p = lead * np.poly(rts)[::-1]
                got = discriminant_resultant(p)
                assert got == 0 and math.copysign(1.0, got) == lead
                assert same_bits(got, ref_discriminant(p))
        for p in ([-1.0, 2.0, -1.0], [0.0, 0.0, 0.0, -1.0]):
            assert same_bits(discriminant_resultant(p), -0.0)
            assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.25])
    def test_real_pseudo_jacobi(self, s):
        for n in range(2, 7):
            p = pseudo_jacobi(2.0, s, n)
            assert p.dtype == np.float64
            assert same_bits(discriminant_resultant(p), ref_discriminant(p))


class TestJacobiBits:
    @staticmethod
    def assert_same(alpha, beta, n):
        got, ref = jacobi(alpha, beta, n), ref_jacobi(alpha, beta, n)
        assert got.size == ref.size
        assert all(same_bits(x, y) for x, y in zip(got.tolist(), ref.tolist()))

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
                    if 3 <= p.size <= 6:  # the reference is slow at degree 8
                        assert same_bits(discriminant_resultant(p), ref_discriminant(p))

    def test_vanishing_leading_coefficient(self):
        # alpha + beta = -n - 1 kills the x^n term: the degree drops
        assert jacobi(-2.0, -2.0, 3).size < 4
        self.assert_same(-2.0, -2.0, 3)
        self.assert_same(-0.7, -4.3, 4)
