import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import fekete
from fekete import InvalidInputError
from fekete.poly import (
    _checked_coeffs,
    _eval_with_derivative,
    discriminant_resultant,
    log_abs_pochhammer,
    pochhammer,
    pseudo_jacobi,
    roots,
    s1_polynomial,
    stacked_roots,
)

ENTRY_POINTS = (roots, lambda c: stacked_roots([c]), discriminant_resultant)


class TestPoly:
    """The coefficient arrays the entry points take: real, finite, non-empty
    and 1-d, in ascending degree, trailing zeros ignored."""

    def test_normalization_trims_trailing_zeros(self):
        assert roots([1.0, 2.0, 0.0, 0.0]).tolist() == [-0.5]
        stack = stacked_roots([[-1.0, 0.0, 1.0, 0.0], [-4.0, 0.0, 1.0]])
        assert [r.shape for r in stack] == [(2,), (2,)]
        assert discriminant_resultant([-1.0, 0.0, 1.0, 0.0]) == 4.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        for entry in ENTRY_POINTS:
            with pytest.raises(InvalidInputError):
                entry([bad, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [[1.0, 0.5j, 1.0], np.array([-1.0, 0.0, 1.0], complex),
                                     [], [[-1.0, 0.0, 1.0]]])
    def test_rejects_complex_empty_and_2d(self, bad):
        for entry in ENTRY_POINTS:
            with pytest.raises(InvalidInputError):
                entry(bad)

    def test_zero_polynomial(self):
        assert _checked_coeffs([0.0, 0.0]).tolist() == [0.0]

    def test_leading_nonzero_after_normalization(self):
        assert _checked_coeffs([3.0, 0.0, 2.0, 0.0])[-1] == 2.0

    def test_derivative(self):
        _, dv = horner([5.0, 0.0, -1.0, 2.0], [0.0, 1.0, -2.0])
        assert dv.tolist() == [0j, 4.0 + 0j, 28.0 + 0j]  # p' = -2x + 6x^2


def horner(c, z):
    """p(z) and p'(z) for the coefficients c by the Newton step's Horner kernel."""
    c = np.array([c], dtype=float)
    z = np.array(z, dtype=complex).reshape(-1)
    return _eval_with_derivative(c, c[:, 1:] * np.arange(1, c.shape[1]), z, [z.size])


class TestEval:
    def test_square_minus_one_at_two(self):
        assert horner([-1.0, 0.0, 1.0], 2.0)[0].tolist() == [3.0 + 0j]

    def test_complex_argument(self):
        # (i)^2 - 1/3 = -4/3
        (val,), _ = horner([-1.0 / 3.0, 0.0, 1.0], 1j)
        assert val == pytest.approx(-4.0 / 3.0)
        assert val.imag == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_monomial_at_zero(self, n):
        assert horner([0.0] * n + [1.0], 0.0)[0].tolist() == [0j]

    def test_vectorized(self):
        # the kernel's values carry the bits of polyval, rows and points at once
        rng = np.random.default_rng(5)
        c, z = rng.normal(size=(3, 6)), rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        pv, dv = _eval_with_derivative(c, c[:, 1:] * np.arange(1, 6), z.ravel(), [4, 4, 4])
        for k in range(3):
            assert pv[4 * k:4 * k + 4].tolist() == P.polyval(z[k], c[k]).tolist()
            assert dv[4 * k:4 * k + 4].tolist() == P.polyval(z[k], P.polyder(c[k])).tolist()


class TestRoots:
    def test_square_minus_one(self):
        np.testing.assert_allclose(roots([-1.0, 0.0, 1.0]).real, [-1.0, 1.0], atol=1e-14)

    def test_square_minus_third(self):
        r = roots([-1.0 / 3.0, 0.0, 1.0])
        np.testing.assert_allclose(r.real, [-1.0 / math.sqrt(3), 1.0 / math.sqrt(3)],
                                   atol=1e-12)

    def test_cubic(self):
        r = roots([0.0, -0.6, 0.0, 1.0])
        t = math.sqrt(0.6)
        np.testing.assert_allclose(r.real, [-t, 0.0, t], atol=1e-12)
        np.testing.assert_allclose(r.imag, 0.0, atol=1e-12)

    def test_sorted_by_real_then_imag(self):
        r = roots(np.poly([1j, -1j, 1.0])[::-1])
        assert r[0].imag < r[1].imag
        assert r[2].real == pytest.approx(1.0)

    def test_rejects_constant_and_zero(self):
        with pytest.raises(InvalidInputError):
            roots([3.0])
        with pytest.raises(InvalidInputError):
            roots([0.0])


def reference_roots(c):
    """The per-polynomial form of the root kernel: np.roots, then three
    Newton steps, each evaluating p and p' afresh by polyval."""
    r = np.roots(c[::-1]).astype(complex)
    dc = P.polyder(c)
    for _ in range(3):
        pv, dv = P.polyval(r, c), P.polyval(r, dc)
        safe = np.abs(dv) > 0
        step = np.zeros_like(r)
        step[safe] = pv[safe] / dv[safe]
        candidate = r - step
        r = np.where(np.abs(P.polyval(candidate, c)) <= np.abs(pv), candidate, r)
    return r[np.lexsort((r.imag, r.real))]


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestStackedRoots:
    def assert_rows_are_single_roots(self, polys):
        stack = stacked_roots(polys)
        assert len(stack) == len(polys)
        for c, row in zip(polys, stack):
            assert same_bits(row, roots(c))
            assert same_bits(row, reference_roots(_checked_coeffs(c)))

    @pytest.mark.parametrize("n", range(2, 31))
    def test_s1_family(self, n):
        rng = np.random.default_rng(n)
        gammas = -math.pi / 2.0 + rng.uniform(0.1, 0.9, 10) * math.pi / n
        self.assert_rows_are_single_roots([s1_polynomial(1.0, n, g) for g in gammas])

    @pytest.mark.parametrize("n", [3, 5, 9, 15, 29])
    def test_pseudo_jacobi_odd_degree_has_an_exact_zero_root(self, n):
        polys = [pseudo_jacobi(1.0, s, n) for s in (1.5, 2.0, 3.25)]
        assert all(c[0] == 0 for c in polys)
        self.assert_rows_are_single_roots(polys)
        assert all(r[n // 2] == 0 for r in stacked_roots(polys))

    @pytest.mark.parametrize("n", [2, 3, 16, 29, 30])
    def test_pseudo_jacobi_and_s1_rows_in_one_stack(self, n):
        # the stacks of the verify battery: at odd n the pseudo-Jacobi rows
        # have a zero root and the s = 1 rows do not
        rng = np.random.default_rng(n)
        gammas = -math.pi / 2.0 + rng.uniform(0.1, 0.9, 10) * math.pi / n
        self.assert_rows_are_single_roots(
            [pseudo_jacobi(1.0, s, n) for s in (1.5, 2.0)]
            + [s1_polynomial(1.0, n, g) for g in gammas])

    def test_complex_coefficients(self):
        rng = np.random.default_rng(7)
        polys = [rng.normal(size=7) + 1j * rng.normal(size=7) for _ in range(6)]
        with pytest.raises(InvalidInputError, match="real"):
            stacked_roots(polys)
        with pytest.raises(InvalidInputError, match="real"):
            stacked_roots([rng.normal(size=7), polys[0]])

    def test_mixed_stack(self):
        # rows with no, one or only zero roots
        rng = np.random.default_rng(8)
        polys = [rng.normal(size=5), rng.normal(size=5),
                 [0.0, 0.0, 1.0, -2.0, 0.5], [0.0, 0.5, 1.0, 0.0, 3.0],
                 [0.0, 0.0, 0.0, 0.0, 2.0]]
        self.assert_rows_are_single_roots(polys)

    def test_every_degree_in_one_stack(self):
        # degrees 1..30 out of order, with zero roots, monomials and trailing
        # zeros: each row keeps its own bits
        rng = np.random.default_rng(9)
        polys = []
        for deg in rng.permutation(np.arange(1, 31)).tolist():
            c = rng.normal(size=deg + 1)
            c[:int(rng.integers(0, deg + 1))] = 0.0  # up to deg zero roots
            polys.append(c)
        polys += [[0.0, 0.0, 0.0, 1.5], [0.0, 2.0], [3.0, 1.0, 0.0],
                  pseudo_jacobi(1.0, 2.0, 7), s1_polynomial(1.0, 30)]
        self.assert_rows_are_single_roots(polys)

    def test_rejects_empty_stacks_and_constants(self):
        with pytest.raises(InvalidInputError):
            stacked_roots([])
        with pytest.raises(InvalidInputError):
            stacked_roots([[2.0], [3.0]])
        with pytest.raises(InvalidInputError):
            stacked_roots([[1.0, 1.0], [0.0, 0.0]])


class TestDiscriminant:
    def test_quadratic_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b, c = rng.uniform(-3, 3, 2)
            disc = discriminant_resultant([c, b, 1.0])
            assert isinstance(disc, float)
            assert disc == pytest.approx(b * b - 4 * c, abs=1e-10)

    def test_square_minus_third(self):
        assert discriminant_resultant([-1.0 / 3.0, 0.0, 1.0]) == pytest.approx(4.0 / 3.0)

    def test_non_monic_leading_factor(self):
        # (3x^2 - 1)/2: gamma^2 * (2/sqrt 3)^2 = 3
        assert discriminant_resultant([-0.5, 0.0, 1.5]) == pytest.approx(3.0)

    def test_rejects_low_degree(self):
        with pytest.raises(InvalidInputError):
            discriminant_resultant([1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_coefficient_is_invalid_input(self, bad):
        # used to leak a bare OverflowError (inf) or ValueError (nan) from the
        # integer conversion of the coefficients
        with pytest.raises(InvalidInputError):
            discriminant_resultant([bad, 1.0, 1.0])

    def test_complex_coefficients_rejected(self):
        with pytest.raises(InvalidInputError, match="real"):
            discriminant_resultant([3.0, 0.5, 0.25j])


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
        # only real at s > 1 calls the tridiagonal eigensolver, so only it and
        # verify load scipy.linalg; the quadrature oracle is numpy, so no
        # command loads scipy.integrate or scipy.special.  The optimizer is
        # numpy-only.  The oracles, fekete.poly and fekete.verify, are loaded
        # by verify alone.
        code = "\n".join([
            "import contextlib, io, sys",
            "from fekete.cli import build_parser, main",
            "def loaded():",
            "    print([m for m in ('scipy.linalg', 'scipy.integrate', 'scipy.special',",
            "                       'fekete.poly', 'fekete.verify') if m in sys.modules])",
            "build_parser()",
            "loaded()",
            "for argv in (['circle', '--b', '0.5', '--n', '8'],",
            "             ['real', '--a', '1', '--s', '1', '--n', '8'],",
            "             ['measure', '--family', 'arctan', '--grid', '-2:2:5'],",
            "             ['converge', '--b', '0.5', '--n-list', '4,8'],",
            "             ['real', '--a', '1.3', '--s', '2', '--n', '12', '--method', 'optimize'],",
            "             ['circle', '--b', '0.9', '--n', '12', '--method', 'optimize'],",
            "             ['real', '--a', '1', '--s', '2', '--n', '8'],",
            "             ['verify', '--suite', 'equilibrium'],",
            "             ['verify', '--suite', 'all']):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0",
            "    loaded()",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines() == ["[]"] * 7 + [
            "['scipy.linalg']",
            "['scipy.linalg', 'fekete.poly', 'fekete.verify']",
            "['scipy.linalg', 'fekete.poly', 'fekete.verify']",
        ]

    def test_layer_names_resolve(self):
        # bench/tracing.py wraps every __all__ name of these modules by name,
        # and equilibrium.quad and cli.main; a stale name breaks a traced run
        for layer in ("poly", "real_line", "circle", "energy", "equilibrium", "verify"):
            module = importlib.import_module(f"fekete.{layer}")
            assert all(hasattr(module, name) for name in module.__all__), layer
        assert callable(importlib.import_module("fekete.equilibrium").quad)
        assert callable(importlib.import_module("fekete.cli").main)

    def test_package_exports_exactly_the_production_names(self):
        from fekete import circle, energy, equilibrium, errors, real_line

        production = {name for module in (circle, energy, equilibrium, errors, real_line)
                      for name in module.__all__}
        assert len(fekete.__all__) == len(set(fekete.__all__))
        assert set(fekete.__all__) == production | {"__version__"}

    @pytest.mark.parametrize("name", ["numeric_diameter", "discrete_energy", "sine_product",
                                      "sine_product_bound", "mobius"])
    def test_oracle_only_names_are_not_exported(self, name):
        # the diameter and the energy are one expression of
        # log_weighted_vandermonde; the sine product and the complex Moebius
        # map are oracles of verify
        from fekete import circle, energy, verify

        assert name not in fekete.__all__ and name not in verify.__all__
        assert not any(hasattr(module, name) for module in (fekete, circle, energy))

