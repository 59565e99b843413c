"""Closed-form weighted Fekete configurations on the real line.

The weight is w(x) = |x - ai|^(-s) with a > 0 and s >= 1, i.e. a single
attracting charge of magnitude s placed at the imaginary point ai.  Two
regimes:

* s = 1 ("elliptic" case).  Every maximizer of the weighted Vandermonde
  product is an arctangent progression {a tan(gamma + k pi/n)} with a free
  phase gamma in (-pi/2, -pi/2 + pi/n); the maximal weighted diameter is
  n^(1/(n-1)) / (2a).

* s > 1.  The maximizer is unique: the roots of a pseudo-Jacobi
  (Romanovski-Routh) polynomial, the unique monic polynomial solution of

      (x^2 + a^2) f''(x) - 2 s (n-1) x f'(x) + n (2 s (n-1) - n + 1) f(x) = 0.

  Its monic three-term recurrence has positive coefficients, so the points
  are the eigenvalues of a symmetric tridiagonal Jacobi matrix (sgt1_points),
  accurate at any n.  The weighted diameter has a closed product formula,
  evaluated in log space with its O(s log s) terms cancelled exactly
  (sgt1_log_diameter); sgt1_diameter is its exponential, which leaves the
  double range at extreme a or s where the log does not.

This module holds one route per quantity.  The polynomials themselves (the
monomial coefficients, the Jacobi connection, closed-form discriminants and
the discriminant route to the diameter) serve only as oracles and live in
``fekete.poly``; nothing here imports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularParameterError, checked_finite, checked_n

__all__ = [
    "RealWeight",
    "canonical_gamma",
    "s1_points",
    "s1_diameter",
    "sgt1_points",
    "sgt1_log_diameter",
    "sgt1_diameter",
    "support_radius",
]

_SINGULAR_TOL = 1e-12
# the range of |a|: past it 2a, a^2 and the diameters' powers of a leave the
# double range, and the closed forms return inf or nan
_A_MIN, _A_MAX = 1e-300, 1e300


def _checked_a(a: float) -> float:
    """|a|, all the weight depends on; zero, non-finite a and |a| outside
    [_A_MIN, _A_MAX] are rejected."""
    a = checked_finite(a, "charge offset a")
    if a == 0.0:
        raise InvalidInputError("charge offset a must be nonzero")
    if not _A_MIN <= abs(a) <= _A_MAX:
        raise InvalidInputError(f"charge offset a requires {_A_MIN:g} <= |a| <= {_A_MAX:g}, "
                                f"got a = {a!r}")
    return abs(a)


def _checked_sgt1(s: float, what: str) -> float:
    """s as a float; InvalidInputError naming `what` unless s > 1 and 2s - 1
    is finite."""
    s = checked_finite(s, "weight exponent s")
    if s <= 1.0:
        raise InvalidInputError(f"{what} requires s > 1")
    if not math.isfinite(2.0 * s - 1.0):
        raise InvalidInputError(f"{what} requires 2s - 1 within the double range, got s = {s!r}")
    return s


def _checked_sigma(s: float, n: int) -> float:
    """The charge product sigma = s(n-1); InvalidInputError where 2 sigma
    leaves the double range."""
    sig = s * (n - 1)
    if not math.isfinite(2.0 * sig):
        raise InvalidInputError(
            f"2s(n-1) exceeds the double range for s = {s!r}, n = {n}")
    return sig


@dataclass(frozen=True)
class RealWeight:
    """Weight w(x) = |x - ai|^(-s) on the real line.

    s < 1 is rejected: the weighted Vandermonde supremum is infinite there
    (send one point to infinity), so the problem is not well posed.
    """

    a: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "a", _checked_a(self.a))
        s = checked_finite(self.s, "weight exponent s")
        if s < 1.0:
            raise InvalidInputError("weight exponent s must satisfy s >= 1")
        object.__setattr__(self, "s", s)

    def log_w(self, x):
        """log w(x) = -s log |x - ai|, vectorized, as -s log hypot(x, a):
        x^2 + a^2 would overflow or underflow at extreme x and a."""
        return -self.s * np.log(np.hypot(np.asarray(x, dtype=float), self.a))


def canonical_gamma(n: int) -> float:
    """Symmetric choice of the free s = 1 phase: -pi/2 + pi/(2n), giving B = 0."""
    n = checked_n(n)
    return -math.pi / 2.0 + math.pi / (2.0 * n)


def _checked_gamma(n: int, gamma: float) -> float:
    gamma = float(gamma)
    lo = -math.pi / 2.0
    hi = lo + math.pi / n
    if not lo < gamma < hi:
        raise InvalidInputError(
            f"gamma = {gamma} outside (-pi/2, -pi/2 + pi/{n}); the tangent grid "
            "would cross a pole"
        )
    return gamma


def s1_points(a: float, n: int, gamma: float) -> np.ndarray:
    """The s = 1 Fekete set {a tan(gamma + k pi/n), k = 0..n-1}, sorted ascending.

    With gamma in (-pi/2, -pi/2 + pi/n) all grid angles stay inside
    (-pi/2, pi/2), so the configuration is finite and increasing in k.
    """
    a = _checked_a(a)
    n = checked_n(n)
    gamma = _checked_gamma(n, gamma)
    angles = gamma + np.arange(n) * (math.pi / n)
    return np.sort(a * np.tan(angles))


def s1_diameter(a: float, n: int) -> float:
    """Weighted n-th diameter for s = 1: n^(1/(n-1)) / (2a)."""
    a = _checked_a(a)
    n = checked_n(n)
    return n ** (1.0 / (n - 1)) / (2.0 * a)


def sgt1_log_diameter(a: float, s: float, n: int) -> float:
    """log delta_n^w for s > 1 from the closed product formula.

    With sigma = s(n-1), i = 0..n-1 and k = 1..n,

        log delta = (1-2s) log a - (1/2) log(2 sigma) + (2/n) log n!
                    + sum_k (k-2n+2) log k / (n(n-1))
                    + sum_i [2i/(n(n-1)) - 2s/n] log(1 - i/sigma)
                    + sum_i [2(s-1)/n + (n-1-i)/(n(n-1))] log(1 - (n-1+i)/(2 sigma)).

    This is the product (2a)^(1-2s) (n!)^(2/n) |(-sigma)_n|^(-2s/n)
    |(n - 2 sigma - 1)_n|^(2(s-1)/n) T^(1/(n(n-1))), with
    T = prod_k k^(k-2n+2) |k-sigma-1|^(2k-2) |n+k-2sigma-2|^(n-k), after
    each factor sigma - i or 2 sigma - (n-1+i) is written as
    sigma (1 - i/sigma) or 2 sigma (1 - (n-1+i)/(2 sigma)): the powers of
    sigma and 2 sigma collect into (2 sigma)^(-1/2) exactly, so the
    O(s log s) terms never form and every remaining sum is O(1).

    Each sum's terms are built in two n-length buffers by out= ufuncs, with
    the operations of its one numpy expression (coefficient array times log
    array) in their order, so np.sum sees the array that the expression
    would build and returns its bits.  The expression's fresh temporaries,
    five to eight per sum, would be faulted in page by page on every call
    at n = 10^5.
    """
    a = _checked_a(a)
    s = _checked_sgt1(s, "sgt1_diameter")
    n = checked_n(n)
    sig = _checked_sigma(s, n)
    i = np.arange(n, dtype=float)
    pairs = n * (n - 1)
    # each sum's terms as coefficient c times log t
    c, t = np.empty(n), np.empty(n)
    np.subtract(np.add(i, 3.0, out=c), 2 * n, out=c)
    np.multiply(c, np.log(np.add(i, 1.0, out=t), out=t), out=c)
    sum_k = float(np.sum(c))
    np.subtract(np.divide(np.multiply(i, 2.0, out=c), pairs, out=c), 2.0 * s / n, out=c)
    np.log1p(np.divide(np.negative(i, out=t), sig, out=t), out=t)
    sum_sigma = float(np.sum(np.multiply(c, t, out=c)))
    np.add(2.0 * (s - 1.0) / n, np.divide(np.subtract(n - 1, i, out=c), pairs, out=c), out=c)
    np.negative(np.add(n - 1, i, out=t), out=t)
    np.log1p(np.divide(t, 2.0 * sig, out=t), out=t)
    sum_2sigma = float(np.sum(np.multiply(c, t, out=c)))
    return (
        (1.0 - 2.0 * s) * math.log(a)
        - 0.5 * math.log(2.0 * sig)
        + (2.0 / n) * math.lgamma(n + 1)
        + sum_k / pairs
        + sum_sigma
        + sum_2sigma
    )


def sgt1_diameter(a: float, s: float, n: int) -> float:
    """Weighted n-th diameter for s > 1, the exponential of sgt1_log_diameter;
    OverflowError where it exceeds the double range."""
    return math.exp(sgt1_log_diameter(a, s, n))


def _recurrence_coefficients(sigma: float, n_max: int) -> np.ndarray:
    """c_k = (k-1)(2 sigma - k + 3) / ((2 sigma - 2k + 3)(2 sigma - 2k + 5))
    for k = 2..n_max, the coefficients of the monic three-term recurrence
    G_k = x G_{k-1} - c_k G_{k-2}, as (k-1)/d1 ((2 sigma - k + 3)/d2): no two
    O(sigma) factors are multiplied, so nothing overflows while 2 sigma is
    finite (the callers in this module check it)."""
    k = np.arange(2, n_max + 1, dtype=float)
    d1 = 2.0 * sigma - 2.0 * k + 3.0
    d2 = 2.0 * sigma - 2.0 * k + 5.0
    singular = (np.abs(d1) <= _SINGULAR_TOL) | (np.abs(d2) <= _SINGULAR_TOL)
    if singular.any():
        raise SingularParameterError(
            f"recurrence denominator vanishes at step n = {int(k[singular.argmax()])} "
            f"for sigma = {sigma}"
        )
    return (k - 1.0) / d1 * ((2.0 * sigma - k + 3.0) / d2)


def sgt1_points(a: float, s: float, n: int) -> np.ndarray:
    """The unique s > 1 Fekete set, the roots of the pseudo-Jacobi polynomial
    (``fekete.poly.pseudo_jacobi``), sorted.

    At sigma = s(n-1) every recurrence coefficient c_k, k <= n, is positive,
    so the roots are a times the eigenvalues of the symmetric tridiagonal
    Jacobi matrix with zero diagonal and off-diagonal sqrt(c_2), ...,
    sqrt(c_n) (Golub & Welsch 1969).  Unlike companion-matrix roots of the
    monomial expansion, this stays accurate at any n.
    """
    from scipy.linalg import eigvalsh_tridiagonal  # the one scipy use here: load on demand

    a = _checked_a(a)
    s = _checked_sgt1(s, "sgt1_points")
    n = checked_n(n)
    off = np.sqrt(_recurrence_coefficients(_checked_sigma(s, n), n))
    return a * eigvalsh_tridiagonal(np.zeros(n), off)


def support_radius(a: float, s: float) -> float:
    """Half-length a sqrt(2s-1) / (s-1) of the limiting support for s > 1."""
    a = _checked_a(a)
    s = _checked_sgt1(s, "support_radius")
    return a * math.sqrt(2.0 * s - 1.0) / (s - 1.0)
