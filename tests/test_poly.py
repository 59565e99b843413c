import math

import numpy as np
import pytest

from fekete import InvalidInputError, Poly, discriminant_resultant, pochhammer, roots
from fekete.poly import log_abs_pochhammer


def monic_from_roots(rts):
    c = np.array([1.0 + 0j])
    for r in rts:
        c = np.convolve(c, [-r, 1.0])
    return Poly(c)


class TestPoly:
    def test_normalization_trims_trailing_zeros(self):
        p = Poly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.coeffs.tolist() == [1.0 + 0j, 2.0 + 0j]

    def test_zero_polynomial(self):
        p = Poly([0.0, 0.0])
        assert p.is_zero() and p.degree == 0

    def test_leading_nonzero_after_normalization(self):
        assert Poly([3.0, 0.0, 2.0, 0.0]).leading == 2.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(InvalidInputError):
            Poly([bad, 1.0, 1.0])

    def test_coeffs_read_only(self):
        p = Poly([1.0, 1.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_arithmetic(self):
        p = Poly([1.0, 1.0])  # 1 + x
        q = Poly([-1.0, 1.0])  # -1 + x
        assert (p * q).coeffs.tolist() == [-1.0 + 0j, 0j, 1.0 + 0j]
        assert (p + q).coeffs.tolist() == [0j, 2.0 + 0j]
        assert (2.0 * p).coeffs.tolist() == [2.0 + 0j, 2.0 + 0j]
        assert p.shifted_up().coeffs.tolist() == [0j, 1.0 + 0j, 1.0 + 0j]

    def test_derivative(self):
        p = Poly([5.0, 0.0, -1.0, 2.0])
        assert p.derivative().coeffs.tolist() == [0j, -2.0 + 0j, 6.0 + 0j]
        assert Poly([4.0]).derivative().is_zero()


class TestEval:
    def test_square_minus_one_at_two(self):
        assert Poly([-1.0, 0.0, 1.0]).eval(2.0) == 3.0

    def test_complex_argument(self):
        # (i)^2 - 1/3 = -4/3
        val = Poly([-1.0 / 3.0, 0.0, 1.0]).eval(1j)
        assert val == pytest.approx(-4.0 / 3.0)
        assert val.imag == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_monomial_at_zero(self, n):
        coeffs = [0.0] * n + [1.0]
        assert Poly(coeffs).eval(0.0) == 0.0

    def test_vectorized(self):
        p = Poly([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(p.eval([0.0, 1.0, 2.0]).real, [-1.0, 0.0, 3.0])


class TestRoots:
    def test_square_minus_one(self):
        np.testing.assert_allclose(roots(Poly([-1.0, 0.0, 1.0])).real, [-1.0, 1.0],
                                   atol=1e-14)

    def test_square_minus_third(self):
        r = roots(Poly([-1.0 / 3.0, 0.0, 1.0]))
        np.testing.assert_allclose(r.real, [-1.0 / math.sqrt(3), 1.0 / math.sqrt(3)],
                                   atol=1e-12)

    def test_cubic(self):
        r = roots(Poly([0.0, -0.6, 0.0, 1.0]))
        t = math.sqrt(0.6)
        np.testing.assert_allclose(r.real, [-t, 0.0, t], atol=1e-12)
        np.testing.assert_allclose(r.imag, 0.0, atol=1e-12)

    def test_sorted_by_real_then_imag(self):
        r = roots(monic_from_roots([1j, -1j, 1.0]))
        assert r[0].imag < r[1].imag
        assert r[2].real == pytest.approx(1.0)

    def test_rejects_constant_and_zero(self):
        with pytest.raises(InvalidInputError):
            roots(Poly([3.0]))
        with pytest.raises(InvalidInputError):
            roots(Poly([0.0]))

    def test_roundtrip_random_monic(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            deg = int(rng.integers(2, 11))
            rad = np.sqrt(rng.uniform(0, 1, deg))
            rts = rad * np.exp(1j * rng.uniform(0, 2 * np.pi, deg))
            p = monic_from_roots(rts)
            assert np.max(np.abs(p.eval(roots(p)))) <= 1e-9


class TestDiscriminant:
    def test_quadratic_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b, c = rng.uniform(-3, 3, 2)
            disc = discriminant_resultant(Poly([c, b, 1.0]))
            assert disc.real == pytest.approx(b * b - 4 * c, abs=1e-10)
            assert abs(disc.imag) < 1e-12

    def test_square_minus_third(self):
        assert discriminant_resultant(Poly([-1.0 / 3.0, 0.0, 1.0])).real == \
            pytest.approx(4.0 / 3.0)

    def test_non_monic_leading_factor(self):
        # (3x^2 - 1)/2: gamma^2 * (2/sqrt 3)^2 = 3
        assert discriminant_resultant(Poly([-0.5, 0.0, 1.5])).real == pytest.approx(3.0)

    def test_rejects_low_degree(self):
        with pytest.raises(InvalidInputError):
            discriminant_resultant(Poly([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_coefficient_is_invalid_input(self, bad):
        # used to leak a bare OverflowError (inf) or ValueError (nan) from the
        # integer conversion of the coefficients
        with pytest.raises(InvalidInputError):
            discriminant_resultant(Poly([bad, 1.0, 1.0]))

    def test_matches_root_gap_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            deg = int(rng.integers(2, 9))
            while True:
                rts = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
                sep = np.abs(rts[:, None] - rts[None, :]) + np.eye(deg)
                if np.min(sep) > 0.15:
                    break
            p = monic_from_roots(rts)
            prod = np.prod([(rts[j] - rts[k]) ** 2
                            for j in range(deg) for k in range(j + 1, deg)])
            disc = discriminant_resultant(p)
            assert abs(disc - prod) <= 1e-8 * abs(prod)


class TestPochhammer:
    def test_values(self):
        assert pochhammer(1.0, 3) == 6.0
        assert pochhammer(-3.0, 2) == 6.0
        assert pochhammer(2.7, 0) == 1.0

    def test_split_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = float(rng.uniform(-5, 5))
            m, n = int(rng.integers(0, 11)), int(rng.integers(0, 11))
            lhs = pochhammer(t, m + n)
            rhs = pochhammer(t, m) * pochhammer(t + m, n)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_log_abs_variant(self):
        log, sign = log_abs_pochhammer(-3.5, 4)
        assert sign * math.exp(log) == pytest.approx(pochhammer(-3.5, 4))
        log, sign = log_abs_pochhammer(-3.0, 5)  # hits zero factor
        assert sign == 0 and log == -math.inf

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidInputError):
            pochhammer(1.0, -1)
