"""Closed-form weighted Fekete configurations on the real line.

The weight is w(x) = |x - ai|^(-s) with a > 0 and s >= 1, i.e. a single
attracting charge of magnitude s placed at the imaginary point ai.  Two
regimes:

* s = 1 ("elliptic" case).  Every maximizer of the weighted Vandermonde
  product is an arctangent progression {a tan(gamma + k pi/n)} with a free
  phase gamma in (-pi/2, -pi/2 + pi/n); the maximal weighted diameter is
  n^(1/(n-1)) / (2a).

* s > 1.  The maximizer is unique: the roots of a pseudo-Jacobi
  (Romanovski-Routh) polynomial, here obtained as the unique monic polynomial
  solution of

      (x^2 + a^2) f''(x) - 2 s (n-1) x f'(x) + n (2 s (n-1) - n + 1) f(x) = 0.

  Its monic three-term recurrence has positive coefficients, so the points
  are computed as the eigenvalues of a symmetric tridiagonal Jacobi matrix
  (sgt1_points), which stays accurate at any n; the monomial coefficients
  and their companion-matrix roots are small-n oracles only.  The same
  polynomial is a rotated Jacobi polynomial with both parameters equal to
  -s(n-1) - 1 (outside the classical range), which yields a product formula
  for its discriminant and hence a second, independent route to the weighted
  diameter.

Diameter formulas are evaluated in log space (log-gamma plus signed
log-Pochhammer) so that they remain finite well past the point where n!
overflows double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import InvalidInputError, NumericalError, SingularParameterError
from .poly import Poly, log_abs_pochhammer, pochhammer

__all__ = [
    "RealWeight",
    "S1Solution",
    "OdeFamily",
    "canonical_gamma",
    "s1_points",
    "s1_polynomial",
    "s1_diameter",
    "ode_monic_solution",
    "pseudo_jacobi",
    "sgt1_points",
    "jacobi",
    "jacobi_discriminant",
    "log_abs_jacobi_discriminant",
    "g_at_ai",
    "sgt1_diameter",
    "sgt1_diameter_routes",
    "recurrence_family",
    "ode_residual",
    "support_radius",
    "gj_scale",
]

_SINGULAR_TOL = 1e-12


def _checked_a(a: float) -> float:
    """The weight depends on a only through |a|; zero is rejected."""
    a = float(a)
    if a == 0.0:
        raise InvalidInputError("charge offset a must be nonzero")
    return abs(a)


def _checked_n(n: int, minimum: int = 2) -> int:
    if int(n) != n or n < minimum:
        raise InvalidInputError(f"n must be an integer >= {minimum}, got {n!r}")
    return int(n)


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
        s = float(self.s)
        if s < 1.0:
            raise InvalidInputError("weight exponent s must satisfy s >= 1")
        object.__setattr__(self, "s", s)

    def log_w(self, x):
        """log w(x), vectorized; equals -(s/2) log(x^2 + a^2)."""
        x = np.asarray(x, dtype=float)
        return -0.5 * self.s * np.log(x * x + self.a * self.a)


@dataclass(frozen=True)
class S1Solution:
    """An s = 1 Fekete configuration: phase, linear coefficient, points, polynomial.

    B is the negated sum of the points, -a sum_k tan(gamma + k pi/n), which
    also equals a n cot(n pi/2 + n gamma); the monic degree-n polynomial has
    the points as its roots.
    """

    gamma: float
    B: float
    points: tuple[float, ...]
    poly: Poly


@dataclass(frozen=True)
class OdeFamily:
    """Parameters (a, lambda, n) of the second-order equation

        (x^2 + a^2) f'' - lambda x f' + n (lambda - n + 1) f = 0.

    lambda must avoid {n-1, n, ..., 2n-2}: inside that set the monic
    polynomial solution either fails to exist or fails to be unique.
    """

    a: float
    lam: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", _checked_a(self.a))
        object.__setattr__(self, "n", _checked_n(self.n, minimum=1))
        lam = float(self.lam)
        for k in range(self.n - 1, 2 * self.n - 1):
            if abs(lam - k) <= _SINGULAR_TOL:
                raise SingularParameterError(
                    f"lambda = {lam} hits the excluded value {k} in "
                    f"{{n-1, ..., 2n-2}} for n = {self.n}"
                )
        object.__setattr__(self, "lam", lam)


def canonical_gamma(n: int) -> float:
    """Symmetric choice of the free s = 1 phase: -pi/2 + pi/(2n), giving B = 0."""
    n = _checked_n(n)
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
    n = _checked_n(n)
    gamma = _checked_gamma(n, gamma)
    angles = gamma + np.arange(n) * (math.pi / n)
    return np.sort(a * np.tan(angles))


def s1_polynomial(a: float, n: int, gamma: float | None = None) -> S1Solution:
    """Monic degree-n polynomial with the s = 1 Fekete set as its roots.

    F(x) = [(an - Bi)(x + ai)^n + (an + Bi)(x - ai)^n] / (2an) with
    B = a n cot(n pi/2 + n gamma).  The two summands are complex conjugates on
    the real axis, so F has real coefficients.  gamma defaults to the
    canonical symmetric phase.  Raises NumericalError when a coefficient
    cannot be represented in double precision (e.g. n = 1500, or a = 1.3 at
    n = 1000); s1_points has no such limit.
    """
    a = _checked_a(a)
    n = _checked_n(n)
    if gamma is None:
        gamma = canonical_gamma(n)
    gamma = _checked_gamma(n, gamma)
    phase = n * math.pi / 2.0 + n * gamma
    sin_phase = math.sin(phase)
    if abs(sin_phase) <= _SINGULAR_TOL:
        raise InvalidInputError(
            f"cot({phase}) undefined: n pi/2 + n gamma is a multiple of pi"
        )
    b_const = a * n * math.cos(phase) / sin_phase
    lead_plus = a * n - 1j * b_const
    lead_minus = a * n + 1j * b_const
    try:
        coeffs = np.array([
            math.comb(n, k)
            * (lead_plus * (1j * a) ** (n - k) + lead_minus * (-1j * a) ** (n - k))
            for k in range(n + 1)
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs /= 2.0 * a * n
    except OverflowError:  # C(n, k) or a power of a beyond the double range
        coeffs = None
    if coeffs is None or not np.all(np.isfinite(coeffs)):
        raise NumericalError(
            f"s1_polynomial(a={a!r}, n={n}): a coefficient exceeds the double range"
        )
    points = s1_points(a, n, gamma)
    return S1Solution(gamma=gamma, B=b_const, points=tuple(points), poly=Poly(coeffs.real))


def s1_diameter(a: float, n: int) -> float:
    """Weighted n-th diameter for s = 1: n^(1/(n-1)) / (2a)."""
    a = _checked_a(a)
    n = _checked_n(n)
    return n ** (1.0 / (n - 1)) / (2.0 * a)


def ode_monic_solution(fam: OdeFamily) -> Poly:
    """The unique monic polynomial solution of the family's differential equation.

    Coefficients follow the two-step downward recursion

        c_{n-2k} = (-1)^k a^(2k) C(n, 2k) prod_{j=1..k} (2j-1)/(lambda - 2n + 2j + 1),

    with every odd-gap coefficient exactly zero.  The ratios are accumulated
    as a running product, so nothing overflows before the final coefficient
    would.
    """
    n, lam, a = fam.n, fam.lam, fam.a
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    ratio = 1.0
    a_sq_pow = 1.0
    for k in range(1, n // 2 + 1):
        denom = lam - 2.0 * n + 2.0 * k + 1.0
        if abs(denom) <= _SINGULAR_TOL:
            raise SingularParameterError(
                f"zero denominator lambda - 2n + 2k + 1 at k = {k} for lambda = {lam}, n = {n}"
            )
        ratio *= (2.0 * k - 1.0) / denom
        a_sq_pow *= a * a
        coeffs[n - 2 * k] = (-1) ** k * a_sq_pow * math.comb(n, 2 * k) * ratio
    return Poly(coeffs)


def pseudo_jacobi(a: float, s: float, n: int) -> Poly:
    """Monic degree-n pseudo-Jacobi polynomial whose roots are the unique
    weighted Fekete set for w(x) = |x - ai|^(-s), s > 1.

    This is the ODE solution at lambda = 2 s (n-1); for s > 1 every
    denominator 2s(n-1) - 2n + 2j + 1 exceeds 2j - 1 >= 1, so the
    construction never degenerates.
    """
    a = _checked_a(a)
    s = float(s)
    if s <= 1.0:
        raise InvalidInputError("pseudo_jacobi requires s > 1")
    n = _checked_n(n)
    return ode_monic_solution(OdeFamily(a=a, lam=2.0 * s * (n - 1), n=n))


def jacobi(alpha: float, beta: float, n: int) -> Poly:
    """Jacobi polynomial P_n^(alpha, beta) for arbitrary real parameters.

    Built from the defining sum

        2^(-n) sum_k C(n+alpha, n-k) C(n+beta, k) (x-1)^k (x+1)^(n-k),

    which stays valid outside the classical range alpha, beta > -1.  Double
    arguments are dyadic rationals alpha = A/da and beta = B/db, so each term
    c_k = C(n+alpha, n-k) C(n+beta, k) times da^n db^n n! is the integer

        C(n, k) da^k db^(n-k) prod_{i<n-k} ((n-i) da + A) prod_{i<k} ((n-i) db + B).

    The alternating sum is accumulated in exact integer arithmetic and each
    coefficient is divided once by da^n db^n n! 2^n with correct rounding, so
    even coefficients that nearly cancel come out correctly rounded.  The
    leading coefficient is (alpha+beta+n+1)_n / (n! 2^n) and may vanish (then
    the returned degree drops below n); the value at 1 is C(n+alpha, n).
    """
    if int(n) != n or n < 0:
        raise InvalidInputError(f"jacobi requires integer n >= 0, got {n!r}")
    n = int(n)
    num_a, den_a = float(alpha).as_integer_ratio()
    num_b, den_b = float(beta).as_integer_ratio()
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        c = (math.comb(n, k) * den_a ** k * den_b ** (n - k)
             * math.prod((n - i) * den_a + num_a for i in range(n - k))
             * math.prod((n - i) * den_b + num_b for i in range(k)))
        if not c:
            continue
        # expand (x-1)^k (x+1)^(n-k) by direct convolution of binomial rows
        left = [math.comb(k, i) * (-1) ** (k - i) for i in range(k + 1)]
        right = [math.comb(n - k, j) for j in range(n - k + 1)]
        for i, li in enumerate(left):
            cli = c * li
            for j, rj in enumerate(right):
                coeffs[i + j] += cli * rj
    # int / int is correctly rounded in CPython, whatever the operand sizes
    den = (den_a * den_b) ** n * math.factorial(n) << n
    return Poly([v / den for v in coeffs])


def log_abs_jacobi_discriminant(alpha: float, beta: float, n: int) -> tuple[float, int]:
    """(log |disc|, sign) of P_n^(alpha, beta) from the closed product formula

        2^(-n(n-1)) prod_{k=1..n} k^(k-2n+2) (k+alpha)^(k-1) (k+beta)^(k-1)
                                  (n+k+alpha+beta)^(n-k).

    The lines alpha + beta = -n - k (k = 1..n) are rejected: there the
    leading coefficient vanishes and the discriminant of the degree-n
    normalization is ambiguous.
    """
    n = _checked_n(n)
    alpha = float(alpha)
    beta = float(beta)
    for k in range(1, n + 1):
        if abs(alpha + beta + n + k) <= _SINGULAR_TOL:
            raise InvalidInputError(
                f"alpha + beta = {alpha + beta} lies on the excluded line -n - {k} "
                f"(vanishing leading coefficient) for n = {n}"
            )
    log = -n * (n - 1) * math.log(2.0)
    sign = 1
    for k in range(1, n + 1):
        log += (k - 2 * n + 2) * math.log(k)
        for base, expo in (
            (k + alpha, k - 1),
            (k + beta, k - 1),
            (n + k + alpha + beta, n - k),
        ):
            if expo == 0:
                continue
            if base == 0.0:
                return -math.inf, 0
            log += expo * math.log(abs(base))
            if base < 0.0 and expo % 2:
                sign = -sign
    return log, sign


def jacobi_discriminant(alpha: float, beta: float, n: int) -> float:
    """Discriminant of P_n^(alpha, beta) as a signed float (see log variant)."""
    log, sign = log_abs_jacobi_discriminant(alpha, beta, n)
    if sign == 0:
        return 0.0
    return sign * math.exp(log)


def _log_g_at_ai(a: float, s: float, n: int) -> float:
    l_num, _ = log_abs_pochhammer(-s * (n - 1), n)
    l_den, _ = log_abs_pochhammer(n - 2.0 * s * (n - 1) - 1.0, n)
    return n * math.log(2.0 * a) + l_num - l_den


def g_at_ai(a: float, s: float, n: int) -> float:
    """|G(ai)| for the s > 1 extremal polynomial G:

        (2a)^n |(-s(n-1))_n| / |(n - 2s(n-1) - 1)_n|.

    Agrees with |pseudo_jacobi(a, s, n)(ai)| and feeds the weight part of the
    discriminant route to the diameter.
    """
    a = _checked_a(a)
    if float(s) <= 1.0:
        raise InvalidInputError("g_at_ai requires s > 1")
    n = _checked_n(n)
    return math.exp(_log_g_at_ai(a, float(s), n))


def _log_diameter_product(a: float, s: float, n: int) -> float:
    """Direct product formula for log delta_n^w."""
    sig = s * (n - 1)
    l_num, _ = log_abs_pochhammer(-sig, n)
    l_den, _ = log_abs_pochhammer(n - 2.0 * sig - 1.0, n)
    tail = 0.0
    for k in range(1, n + 1):
        tail += (k - 2 * n + 2) * math.log(k)
        tail += (2 * k - 2) * math.log(abs(k - sig - 1.0))
        tail += (n - k) * math.log(abs(n + k - 2.0 * sig - 2.0))
    return (
        (1.0 - 2.0 * s) * math.log(2.0 * a)
        + (2.0 / n) * math.lgamma(n + 1)
        - (2.0 * s / n) * l_num
        + (2.0 * (s - 1.0) / n) * l_den
        + tail / (n * (n - 1))
    )


def _log_diameter_discriminant(a: float, s: float, n: int) -> float:
    """Discriminant route: log delta = log |disc G|^(1/(n(n-1))) - (2s/n) log |G(ai)|.

    |disc G| transfers from the Jacobi discriminant at alpha = beta =
    -s(n-1) - 1 through the rotation x -> -ix/a with the scalar prefactor
    (2ai)^n n! / (n - 2s(n-1) - 1)_n.
    """
    al = -s * (n - 1) - 1.0
    log_dp, _ = log_abs_jacobi_discriminant(al, al, n)
    l_den, _ = log_abs_pochhammer(n - 2.0 * s * (n - 1) - 1.0, n)
    log_disc_g_root = (
        math.log(4.0 * a)
        + (2.0 / n) * (math.lgamma(n + 1) - l_den)
        + log_dp / (n * (n - 1))
    )
    return log_disc_g_root - (2.0 * s / n) * _log_g_at_ai(a, s, n)


def sgt1_diameter_routes(a: float, s: float, n: int) -> tuple[float, float]:
    """Weighted diameter for s > 1 by both routes (product formula, discriminant)."""
    a = _checked_a(a)
    s = float(s)
    if s <= 1.0:
        raise InvalidInputError("sgt1_diameter requires s > 1")
    n = _checked_n(n)
    return (
        math.exp(_log_diameter_product(a, s, n)),
        math.exp(_log_diameter_discriminant(a, s, n)),
    )


def sgt1_diameter(a: float, s: float, n: int) -> float:
    """Weighted n-th diameter for s > 1.

    Evaluated by the direct product formula and cross-checked against the
    discriminant route on every call; the two must agree.
    """
    direct, via_disc = sgt1_diameter_routes(a, s, n)
    if not math.isclose(direct, via_disc, rel_tol=1e-8):
        raise NumericalError(
            f"diameter routes disagree: {direct!r} (product) vs {via_disc!r} (discriminant)"
        )
    return direct


def _recurrence_coefficients(sigma: float, n_max: int) -> np.ndarray:
    """c_k = (k-1)(2 sigma - k + 3) / ((2 sigma - 2k + 3)(2 sigma - 2k + 5))
    for k = 2..n_max, the coefficients of the monic three-term recurrence
    G_k = x G_{k-1} - c_k G_{k-2}."""
    k = np.arange(2, n_max + 1, dtype=float)
    d1 = 2.0 * sigma - 2.0 * k + 3.0
    d2 = 2.0 * sigma - 2.0 * k + 5.0
    singular = (np.abs(d1) <= _SINGULAR_TOL) | (np.abs(d2) <= _SINGULAR_TOL)
    if singular.any():
        raise SingularParameterError(
            f"recurrence denominator vanishes at step n = {int(k[singular.argmax()])} "
            f"for sigma = {sigma}"
        )
    return (k - 1.0) * (2.0 * sigma - k + 3.0) / (d1 * d2)


def sgt1_points(a: float, s: float, n: int) -> np.ndarray:
    """The unique s > 1 Fekete set, the roots of pseudo_jacobi(a, s, n), sorted.

    At sigma = s(n-1) every recurrence coefficient c_k, k <= n, is positive,
    so the roots are a times the eigenvalues of the symmetric tridiagonal
    Jacobi matrix with zero diagonal and off-diagonal sqrt(c_2), ...,
    sqrt(c_n) (Golub & Welsch 1969).  Unlike companion-matrix roots of the
    monomial expansion, this stays accurate at any n.
    """
    a = _checked_a(a)
    s = float(s)
    if s <= 1.0:
        raise InvalidInputError("sgt1_points requires s > 1")
    n = _checked_n(n)
    off = np.sqrt(_recurrence_coefficients(s * (n - 1), n))
    return a * eigvalsh_tridiagonal(np.zeros(n), off)


def recurrence_family(sigma: float, n_max: int) -> list[Poly]:
    """Monic family G_0 = 1, G_1 = x and, for 2 <= n <= n_max,

        G_n = x G_{n-1} - (n-1)(2 sigma - n + 3)
              / ((2 sigma - 2n + 3)(2 sigma - 2n + 5)) G_{n-2},

    with the charge product sigma = s (n-1) held fixed along the recursion.
    Member n coincides with the ODE solution at lambda = 2 sigma (and so with
    the pseudo-Jacobi polynomial when sigma = s(n-1), s > 1).
    """
    sigma = float(sigma)
    n_max = _checked_n(n_max)
    coefs = _recurrence_coefficients(sigma, n_max).tolist()
    polys = [Poly([1.0]), Poly([0.0, 1.0])]
    for n in range(2, n_max + 1):
        polys.append(polys[n - 1].shifted_up() - coefs[n - 2] * polys[n - 2])
    return polys


def ode_residual(f: Poly, a: float, s: float, n: int) -> Poly:
    """Left-hand side (x^2 + a^2) f'' - 2s(n-1) x f' + n (2s(n-1) - n + 1) f.

    The zero polynomial exactly when f solves the stationarity equation of
    the discrete energy at the given parameters.
    """
    a = _checked_a(a)
    s = float(s)
    n = _checked_n(n, minimum=1)
    if f.degree != n:
        raise InvalidInputError(f"expected degree {n}, got degree {f.degree}")
    x = Poly([0.0, 1.0])
    quad = Poly([a * a, 0.0, 1.0])
    sig2 = 2.0 * s * (n - 1)
    return quad * f.derivative().derivative() - sig2 * (x * f.derivative()) + (
        n * (sig2 - n + 1.0)
    ) * f


def support_radius(a: float, s: float) -> float:
    """Half-length a sqrt(2s-1) / (s-1) of the limiting support for s > 1."""
    a = _checked_a(a)
    s = float(s)
    if s <= 1.0:
        raise InvalidInputError("support_radius requires s > 1")
    return a * math.sqrt(2.0 * s - 1.0) / (s - 1.0)


def gj_scale(a: float, s: float, n: int) -> complex:
    """Scalar c = (2ai)^n n! / (n - 2s(n-1) - 1)_n linking the pseudo-Jacobi
    polynomial to P_n at alpha = beta = -s(n-1) - 1 via G(x) = c P(-ix/a)."""
    a = _checked_a(a)
    n = _checked_n(n)
    return (2j * a) ** n * math.factorial(n) / pochhammer(n - 2.0 * s * (n - 1) - 1.0, n)
