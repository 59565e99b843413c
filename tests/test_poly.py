import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fekete
from fekete import InvalidInputError
from fekete.poly import (
    Poly,
    discriminant_resultant,
    log_abs_pochhammer,
    pochhammer,
    pseudo_jacobi,
    roots,
    s1_polynomial,
    stacked_roots,
)


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


def reference_roots(p):
    """The per-polynomial form of the root kernel: np.roots on the real or
    complex coefficients, then three Newton steps, each evaluating p and p'
    afresh by Poly.eval."""
    c = p.coeffs[::-1]
    r = np.roots(c if np.any(c.imag) else c.real).astype(complex)
    dp = p.derivative()
    for _ in range(3):
        pv, dv = p.eval(r), dp.eval(r)
        safe = np.abs(dv) > 0
        step = np.zeros_like(r)
        step[safe] = pv[safe] / dv[safe]
        candidate = r - step
        r = np.where(np.abs(p.eval(candidate)) <= np.abs(pv), candidate, r)
    return r[np.lexsort((r.imag, r.real))]


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestStackedRoots:
    def assert_rows_are_single_roots(self, polys):
        stack = stacked_roots(polys)
        assert stack.shape == (len(polys), polys[0].degree)
        for p, row in zip(polys, stack):
            assert same_bits(row, roots(p))
            assert same_bits(row, reference_roots(p))

    @pytest.mark.parametrize("n", range(2, 31))
    def test_s1_family(self, n):
        rng = np.random.default_rng(n)
        gammas = -math.pi / 2.0 + rng.uniform(0.1, 0.9, 10) * math.pi / n
        self.assert_rows_are_single_roots([s1_polynomial(1.0, n, g).poly for g in gammas])

    @pytest.mark.parametrize("n", [3, 5, 9, 15, 29])
    def test_pseudo_jacobi_odd_degree_has_an_exact_zero_root(self, n):
        polys = [pseudo_jacobi(1.0, s, n) for s in (1.5, 2.0, 3.25)]
        assert all(p.coeffs[0] == 0 for p in polys)
        self.assert_rows_are_single_roots(polys)
        assert np.all(stacked_roots(polys)[:, n // 2] == 0)

    def test_complex_coefficients(self):
        rng = np.random.default_rng(7)
        polys = [Poly(rng.normal(size=7) + 1j * rng.normal(size=7)) for _ in range(6)]
        self.assert_rows_are_single_roots(polys)

    def test_mixed_stack(self):
        # real and complex rows, and rows with no, one or only zero roots
        rng = np.random.default_rng(8)
        polys = [Poly(rng.normal(size=5)), Poly(rng.normal(size=5) + 1j * rng.normal(size=5)),
                 Poly([0.0, 0.0, 1.0, -2.0, 0.5]), Poly([0.0, 0.5j, 1.0, 0.0, 3.0]),
                 Poly([0.0, 0.0, 0.0, 0.0, 2.0])]
        self.assert_rows_are_single_roots(polys)

    def test_rejects_mixed_degrees_and_constants(self):
        with pytest.raises(InvalidInputError):
            stacked_roots([Poly([1.0, 1.0]), Poly([1.0, 0.0, 1.0])])
        with pytest.raises(InvalidInputError):
            stacked_roots([])
        with pytest.raises(InvalidInputError):
            stacked_roots([Poly([2.0]), Poly([3.0])])


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


class TestPochhammer:
    def test_values(self):
        assert pochhammer(1.0, 3) == 6.0
        assert pochhammer(-3.0, 2) == 6.0
        assert pochhammer(2.7, 0) == 1.0

    def test_log_abs_variant(self):
        log, sign = log_abs_pochhammer(-3.5, 4)
        assert sign * math.exp(log) == pytest.approx(pochhammer(-3.5, 4))
        log, sign = log_abs_pochhammer(-3.0, 5)  # hits zero factor
        assert sign == 0 and log == -math.inf

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidInputError):
            pochhammer(1.0, -1)


class TestOracleSplit:
    """The production modules run without the oracles: nothing they import
    loads fekete.poly or fekete.verify, and the package exports exactly
    their names."""

    def test_production_imports_leave_oracles_unloaded(self):
        code = ("import sys, fekete, fekete.real_line, fekete.circle, fekete.energy, "
                "fekete.equilibrium; "
                "print(sorted(m for m in ('fekete.poly', 'fekete.verify') if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_cli_loads_scipy_only_where_it_is_used(self):
        # scipy.integrate (which loads scipy.linalg) was most of every
        # command's start-up; only verify integrates, and only real at s > 1
        # calls the tridiagonal eigensolver.  The oracles, fekete.poly and
        # fekete.verify, are loaded by verify alone.
        code = "\n".join([
            "import contextlib, io, sys",
            "from fekete.cli import build_parser, main",
            "def loaded():",
            "    print([m for m in ('scipy.linalg', 'scipy.integrate', 'fekete.poly',",
            "                       'fekete.verify') if m in sys.modules])",
            "build_parser()",
            "loaded()",
            "for argv in (['circle', '--b', '0.5', '--n', '8'],",
            "             ['real', '--a', '1', '--s', '1', '--n', '8'],",
            "             ['measure', '--family', 'arctan', '--grid', '-2:2:5'],",
            "             ['converge', '--b', '0.5', '--n-list', '4,8'],",
            "             ['real', '--a', '1', '--s', '2', '--n', '8'],",
            "             ['verify', '--suite', 'equilibrium']):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0",
            "    loaded()",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines() == ["[]"] * 5 + [
            "['scipy.linalg']",
            "['scipy.linalg', 'scipy.integrate', 'fekete.poly', 'fekete.verify']",
        ]

    def test_package_exports_exactly_the_production_names(self):
        from fekete import circle, energy, equilibrium, errors, real_line

        production = {name for module in (circle, energy, equilibrium, errors, real_line)
                      for name in module.__all__}
        assert len(fekete.__all__) == len(set(fekete.__all__))
        assert set(fekete.__all__) == production | {"__version__"}

