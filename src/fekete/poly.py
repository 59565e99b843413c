"""Dense univariate polynomials with complex coefficients.

Coefficients are stored in ascending degree order and trailing zeros are
trimmed on construction, so ``degree == len(coeffs) - 1`` and the leading
coefficient is nonzero unless the polynomial is identically zero.  Values are
immutable after construction; everything here is a pure function and safe for
concurrent use.

Root extraction uses companion-matrix eigenvalues refined by a few Newton
steps.  The monomial basis is ill-conditioned, so it loses accuracy quickly
with the degree and serves only as a small-degree oracle: the Fekete points
on the line come from Jacobi-matrix eigenvalues (``real_line.sgt1_points``)
and arctangent progressions.  The discriminant is computed from the
Sylvester resultant of p and p' in exact Gaussian-integer arithmetic, rounded
once at the end, and serves as a small-degree oracle against closed-form
discriminants implemented elsewhere.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidInputError, NumericalError

__all__ = [
    "Poly",
    "roots",
    "discriminant_resultant",
    "pochhammer",
    "log_abs_pochhammer",
]


class Poly:
    """Immutable polynomial c[0] + c[1] x + ... + c[n] x^n."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("coefficients must be finite")
        last = arr.size - 1
        while last > 0 and arr[last] == 0:
            last -= 1
        arr = arr[: last + 1]
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, ascending degree."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self._coeffs[-1])

    def is_zero(self) -> bool:
        return self.degree == 0 and self._coeffs[0] == 0

    def eval(self, z):
        """Evaluate at z (scalar or array) by Horner's nested scheme."""
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self._coeffs[-1], dtype=complex)
        for c in self._coeffs[-2::-1]:
            out = out * z + c
        return complex(out) if out.ndim == 0 else out

    def __call__(self, z):
        return self.eval(z)

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0.0])
        k = np.arange(1, self.degree + 1)
        return Poly(self._coeffs[1:] * k)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._coeffs, other._coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(-self._coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(np.convolve(self._coeffs, other._coeffs))
        return Poly(self._coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def shifted_up(self) -> "Poly":
        """Multiply by x."""
        return Poly(np.concatenate(([0.0], self._coeffs)))

    def __repr__(self) -> str:
        return f"Poly(degree={self.degree}, coeffs={np.array2string(self._coeffs, precision=6)})"


def roots(p: Poly, newton_steps: int = 3) -> np.ndarray:
    """All roots of p with multiplicity, sorted by real part then imaginary part.

    Companion-matrix eigenvalues followed by Newton refinement; refinement
    steps are kept only where they do not increase the residual |p(r)|.
    """
    if p.is_zero() or p.degree < 1:
        raise InvalidInputError("root extraction requires a nonzero polynomial of degree >= 1")
    r = np.roots(p.coeffs[::-1])
    dp = p.derivative()
    for _ in range(newton_steps):
        pv = p.eval(r)
        dv = dp.eval(r)
        safe = np.abs(dv) > 0
        step = np.zeros_like(r)
        step[safe] = pv[safe] / dv[safe]
        candidate = r - step
        better = np.abs(p.eval(candidate)) <= np.abs(pv)
        r = np.where(better, candidate, r)
    order = np.lexsort((r.imag, r.real))
    return r[order]


def _dyadic_row(p: Poly) -> tuple[list[int], list[int], int]:
    """Coefficients of p, leading first, as Gaussian integers over 2^shift.

    Every double is num / 2^e with e >= 0, so one shift per polynomial turns
    all its coefficients into integer (re, im) pairs without changing a value.
    """
    ratios = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio())
              for z in reversed(p.coeffs.tolist())]
    shift = max(den.bit_length() - 1 for pair in ratios for _, den in pair)
    re = [num << (shift + 1 - den.bit_length()) for (num, den), _ in ratios]
    im = [num << (shift + 1 - den.bit_length()) for _, (num, den) in ratios]
    return re, im, shift


def _sylvester(p: Poly, q: Poly) -> tuple[list[list[int]], list[list[int]], int]:
    """Sylvester matrix of p and q as real and imaginary integer parts, and
    the shift K with det(Sylvester matrix) = det(re + i im) / 2^K."""
    m, n = p.degree, q.degree
    size = m + n
    re = [[0] * size for _ in range(size)]
    im = [[0] * size for _ in range(size)]
    shift = 0
    for rows, offset, poly in ((n, 0, p), (m, n, q)):
        c_re, c_im, c_shift = _dyadic_row(poly)
        shift += rows * c_shift
        for i in range(rows):
            re[offset + i][i : i + len(c_re)] = c_re
            im[offset + i][i : i + len(c_im)] = c_im
    return re, im, shift


def _det_bareiss(re: list[list[int]], im: list[list[int]]) -> tuple[int, int]:
    """Determinant of the Gaussian-integer matrix re + i im, in place.

    Fraction-free (Bareiss) elimination: every entry after step k is a k+1
    minor, so the division by the previous pivot is exact in Z[i] and is done
    as a multiplication by the pivot's conjugate and a floor division by its
    squared norm.
    """
    size = len(re)
    sign = 1
    prev_re, prev_im, prev_norm = 1, 0, 1
    for k in range(size - 1):
        if not (re[k][k] or im[k][k]):
            pivot = next((i for i in range(k + 1, size) if re[i][k] or im[i][k]), None)
            if pivot is None:
                return 0, 0
            re[k], re[pivot] = re[pivot], re[k]
            im[k], im[pivot] = im[pivot], im[k]
            sign = -sign
        row_re, row_im = re[k], im[k]
        p_re, p_im = row_re[k], row_im[k]
        for i in range(k + 1, size):
            cur_re, cur_im = re[i], im[i]
            l_re, l_im = cur_re[k], cur_im[k]
            for j in range(k + 1, size):
                a_re, a_im = cur_re[j], cur_im[j]
                b_re, b_im = row_re[j], row_im[j]
                x_re = a_re * p_re - a_im * p_im - (l_re * b_re - l_im * b_im)
                x_im = a_re * p_im + a_im * p_re - (l_re * b_im + l_im * b_re)
                cur_re[j] = (x_re * prev_re + x_im * prev_im) // prev_norm
                cur_im[j] = (x_im * prev_re - x_re * prev_im) // prev_norm
        prev_re, prev_im = p_re, p_im
        prev_norm = p_re * p_re + p_im * p_im
    return sign * re[-1][-1], sign * im[-1][-1]


def discriminant_resultant(p: Poly) -> complex:
    """Discriminant of p via the Sylvester resultant of p and p'.

    Equals gamma^(2n-2) * prod_{j<k} (r_j - r_k)^2 over the roots r of p with
    leading coefficient gamma; in particular the squared root-gap product for
    monic p.  Double coefficients are dyadic rationals, so each Sylvester row
    is scaled exactly to Gaussian integers over one power of two and the
    determinant is evaluated by Bareiss elimination in exact integer
    arithmetic; the only rounding is the final correctly rounded conversion of
    its real and imaginary parts to doubles (double-precision elimination
    loses too many digits to the cancellation inherent in resultants).
    Intended as a small-degree oracle (degree <= 8 keeps the exact arithmetic
    cheap).  Raises NumericalError when the discriminant exceeds the double
    range.
    """
    n = p.degree
    if p.is_zero() or n < 2:
        raise InvalidInputError("discriminant requires degree >= 2 and a nonzero leading coefficient")
    re, im, shift = _sylvester(p, p.derivative())
    det_re, det_im = _det_bareiss(re, im)
    try:
        # int / int is correctly rounded in CPython, whatever the operand sizes
        res = complex(det_re / (1 << shift), det_im / (1 << shift))
    except OverflowError:
        res = complex(math.inf)
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    disc = complex(sign * res / p.leading)
    if not cmath.isfinite(disc):
        raise NumericalError(f"discriminant of a degree-{n} polynomial exceeds the double range")
    return disc


def pochhammer(t: float, n: int) -> float:
    """Rising factorial t (t+1) ... (t+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise InvalidInputError("pochhammer requires n >= 0")
    out = 1.0
    for i in range(n):
        out *= t + i
    return out


def log_abs_pochhammer(t: float, n: int) -> tuple[float, int]:
    """Return (log |(t)_n|, sign) with sign in {-1, 0, +1}.

    Keeps magnitudes representable for large n where the plain product would
    overflow; sign 0 (with log -inf) flags a zero factor.
    """
    if n < 0:
        raise InvalidInputError("pochhammer requires n >= 0")
    log = 0.0
    sign = 1
    for i in range(n):
        f = t + i
        if f == 0:
            return -math.inf, 0
        log += math.log(abs(f))
        if f < 0:
            sign = -sign
    return log, sign
