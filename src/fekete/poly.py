"""Polynomial oracles: real coefficient arrays and the line's polynomial routes.

A polynomial is a 1-d float64 array of its coefficients in ascending degree
order with trailing zeros trimmed, so its degree is ``len(c) - 1`` and its
leading coefficient is nonzero unless it is identically zero; the numpy
routines ``np.polynomial.polynomial.polyval``, ``polyder``, ``polyadd`` and
the like work on it directly.  Every polynomial of the paper has real
coefficients, and so does everything here: ``roots``, ``stacked_roots`` and
``discriminant_resultant`` reject empty, multi-dimensional, non-finite and
complex input with ``InvalidInputError``.  Everything is a pure function and
safe for concurrent use.

Root extraction uses companion-matrix eigenvalues refined by a few Newton
steps; ``stacked_roots`` does this for polynomials of any degrees at once,
with one eigenvalue call per companion size and one Horner pass per step
(``verify`` makes one call per suite), and ``roots`` is its
one-polynomial case.  Every root keeps the bits it has alone.  The
monomial basis is ill-conditioned, so it loses accuracy quickly with the
degree and serves only as a small-degree oracle: the Fekete points
on the line come from Jacobi-matrix eigenvalues (``real_line.sgt1_points``)
and arctangent progressions.  The discriminant is computed from the n x n
Bezout matrix of p and p' in exact integer arithmetic over Z, and the
Jacobi polynomials from their product form in exact integers, so that
rounding happens only at the end.

The second half holds the polynomial side of the line's closed forms, kept
as oracles for ``fekete.verify`` and the tests, never called by the
production modules: the s = 1 polynomial with the arctangent points as roots,
the pseudo-Jacobi polynomial (the monic solution of the stationarity
equation, also reached by the three-term recurrence), its connection to a
Jacobi polynomial with both parameters -s(n-1) - 1 and the closed product
for that polynomial's discriminant, which gives a second, independent route
to the s > 1 weighted diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.polyutils import trimseq

from .errors import (InvalidInputError, NumericalError, SingularParameterError, checked_finite,
                     checked_n)
from .real_line import (
    _SINGULAR_TOL,
    _checked_a,
    _checked_gamma,
    _checked_sgt1,
    _recurrence_coefficients,
    canonical_gamma,
)

__all__ = [
    "roots",
    "stacked_roots",
    "discriminant_resultant",
    "pochhammer",
    "OdeFamily",
    "s1_polynomial",
    "ode_monic_solution",
    "pseudo_jacobi",
    "jacobi",
    "jacobi_discriminant",
    "gj_scale",
    "sgt1_diameter_via_discriminant",
    "recurrence_family",
    "ode_residual",
]

_NEWTON_STEPS = 3  # refinement steps after the companion eigenvalues


def _checked_coeffs(c) -> np.ndarray:
    """c as a float64 coefficient array with trailing zeros trimmed;
    InvalidInputError unless c is a non-empty, 1-d, finite real sequence."""
    arr = np.asarray(c)
    if np.iscomplexobj(arr):
        raise InvalidInputError("coefficients must be real")
    arr = arr.astype(float, copy=False)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("coefficients must form a non-empty 1-d sequence")
    if not np.isfinite(arr).all():
        raise InvalidInputError("coefficients must be finite")
    return trimseq(arr)


def stacked_roots(polys) -> list[np.ndarray]:
    """All roots of real polynomials of any degrees >= 1: one array per
    polynomial, in their order, with multiplicity and sorted by real part
    then imaginary part.

    Each array carries the bits that ``roots`` gives for its polynomial
    alone.  The polynomials are ordered by degree, highest first, and their
    coefficients zero-padded to the top degree.  The real companion
    matrices are built as ``np.roots`` builds them, with the roots at zero
    split off exactly; companion matrices of one size (the degree minus the
    zero roots) share one ``np.linalg.eigvals`` call.  The roots are laid
    out flat, polynomial by polynomial, so that the Newton refinement (see
    ``roots``) runs on all of them at once and on no padded slot.  Its
    Horner step for coefficient j runs on the roots of the polynomials of
    degree above j alone, a prefix of the flat layout, so no padded zero
    enters a value and each polynomial sees the operations it sees alone.
    """
    rows = [_checked_coeffs(p) for p in polys]
    if not rows:
        raise InvalidInputError("root extraction requires at least one polynomial")
    if min(p.size for p in rows) < 2:
        raise InvalidInputError("root extraction requires a nonzero polynomial of degree >= 1")
    order = sorted(range(len(rows)), key=lambda i: -rows[i].size)  # highest degree first
    deg = np.array([rows[i].size - 1 for i in order])
    c = np.zeros((len(rows), deg[0] + 1))  # ascending, zero-padded to the top degree
    for i, k in enumerate(order):
        c[i, :deg[i] + 1] = rows[k]
    zero_roots = np.argmax(c != 0.0, axis=1)
    size = deg - zero_roots  # a monomial's roots are all zero
    first = np.cumsum(deg) - deg  # the first root of each polynomial
    r = np.zeros(int(deg.sum()), dtype=complex)
    for m in set(size.tolist()) - {0}:
        group = np.flatnonzero(size == m)
        # highest first, zero roots stripped
        top = c[group[:, None], zero_roots[group, None] + np.arange(m, -1, -1)]
        companion = np.zeros((group.size, m, m))
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        companion[:, 0, :] = -top[:, 1:] / top[:, :1]
        r[first[group, None] + np.arange(m)] = np.linalg.eigvals(companion)
    _newton_refine(c, r, deg)
    r = r[np.lexsort((r.imag, r.real, np.repeat(np.arange(len(rows)), deg)))]
    out = [None] * len(rows)
    for i, k in enumerate(order):
        out[k] = r[first[i]:first[i] + deg[i]]
    return out


def _eval_with_derivative(c: np.ndarray, dc: np.ndarray, z: np.ndarray, counts: np.ndarray):
    """p(z) and p'(z) at the flat points z, the first counts[0] of them on
    the polynomial of row 0, the next counts[1] on row 1 and so on, from the
    ascending coefficient rows c of p and dc of p', zero-padded to one width
    and ordered by degree, highest first.  One Horner pass runs over the
    two; the step of coefficient j runs on the prefix of points whose row's
    degree exceeds j, so each value has the bits of ``polyval`` of its
    row's polynomial or derivative."""
    n = dc.shape[1]
    deg = n - np.argmax(c[:, ::-1] != 0.0, axis=1)
    ends = np.concatenate(([0], np.cumsum(counts)))
    live = np.searchsorted(-deg, -np.arange(n), side="left")  # rows with degree > j
    v = np.zeros((2, z.size), dtype=complex)
    v[0] = np.repeat(c[np.arange(deg.size), deg], counts)
    for j in range(n - 1, -1, -1):
        rows = live[j]
        vk = v[:, :ends[rows]]
        np.multiply(vk, z[:ends[rows]], out=vk)
        vk[0] += np.repeat(c[:rows, j], counts[:rows])
        vk[1] += np.repeat(dc[:rows, j], counts[:rows])
    return v[0], v[1]


def _newton_refine(c: np.ndarray, r: np.ndarray, counts: np.ndarray) -> None:
    """_NEWTON_STEPS Newton steps, in place, on the flat roots r, counts[i]
    of them on the coefficient row i of c, each kept only where it does not
    increase the residual |p(r)|.  The values at an accepted candidate are
    those of the next step."""
    dc = c[:, 1:] * np.arange(1, c.shape[1])  # the coefficients of polyder
    pv, dv = _eval_with_derivative(c, dc, r, counts)
    candidate = np.empty_like(r)
    for _ in range(_NEWTON_STEPS):
        candidate.fill(0.0)
        np.divide(pv, dv, out=candidate, where=np.abs(dv) > 0)
        np.subtract(r, candidate, out=candidate)
        p_cand, dp_cand = _eval_with_derivative(c, dc, candidate, counts)
        better = np.abs(p_cand) <= np.abs(pv)
        np.copyto(r, candidate, where=better)
        np.copyto(pv, p_cand, where=better)
        np.copyto(dv, dp_cand, where=better)
        del p_cand, dp_cand  # free before the next evaluation


def roots(p) -> np.ndarray:
    """All roots of the real polynomial p with multiplicity, sorted by real
    part then imaginary part.

    Real companion-matrix eigenvalues followed by three Newton steps; a step
    is kept only where it does not increase the residual |p(r)|.  The
    one-polynomial case of ``stacked_roots``.
    """
    return stacked_roots([p])[0]


def _dyadic_row(c: np.ndarray) -> tuple[list[int], int]:
    """Coefficients c as integers over 2^shift, in the same order.

    Every double is num / 2^e with e >= 0, so one shift per polynomial turns
    all its coefficients into integers without changing a value.
    """
    ratios = [x.as_integer_ratio() for x in c.tolist()]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (shift + 1 - den.bit_length()) for num, den in ratios], shift


def _bezoutian(f: list[int], g: list[int]) -> list[list[int]]:
    """The n x n Bezout matrix of the ascending integer rows f and g, both of
    length n + 1: the coefficients of (f(x) g(y) - f(y) g(x)) / (x - y).

    Symmetric; row i follows from row i - 1 by
    B[i][j] = B[i-1][j+1] + f[j+1] g[i] - f[i] g[j+1].
    """
    n = len(f) - 1
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = f[j + 1] * g[i] - f[i] * g[j + 1]
            if i and j + 1 < n:
                v += b[i - 1][j + 1]
            b[i][j] = b[j][i] = v
    return b


def _det_bareiss(a: list[list[int]]) -> int:
    """Determinant of the integer matrix a, in place.

    Fraction-free (Bareiss) elimination: every entry after step k is a k+1
    minor, so the division by the previous pivot is an exact floor division.
    """
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row = a[k][k + 1:]
        p = a[k][k]
        for i in range(k + 1, size):
            cur = a[i]
            lead = cur[k]
            cur[k + 1:] = [(x * p - lead * y) // prev for x, y in zip(cur[k + 1:], row)]
        prev = p
    return sign * a[-1][-1]


def discriminant_resultant(p) -> float:
    """Discriminant of the real polynomial p via the Bezout matrix of p and p'.

    Equals gamma^(2n-2) * prod_{j<k} (r_j - r_k)^2 over the roots r of p with
    leading coefficient gamma; in particular the squared root-gap product for
    monic p.  Double coefficients are dyadic rationals, so p and p' are each
    scaled exactly to integers over one power of two, and the determinant of
    their n x n Bezout matrix is evaluated by Bareiss elimination in exact
    integer arithmetic.  It is det Bez = (-1)^(n(n-1)/2) gamma Res(p, p') in
    terms of the (2n-1) x (2n-1) Sylvester resultant, so the signed resultant
    (-1)^(n(n-1)/2) Res = det Bez / gamma is rounded once to a double (+0.0
    when it vanishes) and then divided by gamma.  Double-precision
    elimination would lose too many digits to the cancellation inherent in
    resultants.
    Intended as a small-degree oracle (degree <= 8 keeps the exact arithmetic
    cheap).  Raises NumericalError when the discriminant exceeds the double
    range.
    """
    p = _checked_coeffs(p)
    n = p.size - 1
    if n < 2:
        raise InvalidInputError("discriminant requires degree >= 2 and a nonzero leading coefficient")
    f, f_shift = _dyadic_row(p)
    g, g_shift = _dyadic_row(_checked_coeffs(p[1:] * np.arange(1, n + 1)))  # p' may overflow
    det = _det_bareiss(_bezoutian(f, g + [0]))
    num, den = float(p[-1]).as_integer_ratio()
    try:
        # int / int is correctly rounded in CPython, whatever the operand sizes
        res = det * den / (num << n * (f_shift + g_shift)) if det else 0.0
    except OverflowError:
        res = math.inf
    disc = res / float(p[-1])
    if not math.isfinite(disc):
        raise NumericalError(f"discriminant of a degree-{n} polynomial exceeds the double range")
    return disc


def pochhammer(t: float, n: int) -> float:
    """Rising factorial t (t+1) ... (t+n-1); the empty product (n = 0) is 1."""
    n = checked_n(n, minimum=0)
    out = 1.0
    for i in range(n):
        out *= t + i
    return out


def log_abs_pochhammer(t: float, n: int) -> tuple[float, int]:
    """Return (log |(t)_n|, sign) with sign in {-1, 0, +1}.

    Keeps magnitudes representable for large n where the plain product would
    overflow; sign 0 (with log -inf) flags a zero factor.
    """
    n = checked_n(n, minimum=0)
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


# ---------------------------------------------------------------------------
# the line's polynomial routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeFamily:
    """Parameters (a, lambda, n) of the second-order equation

        (x^2 + a^2) f'' - lambda x f' + n (lambda - n + 1) f = 0.

    lambda must be finite and avoid {n-1, n, ..., 2n-2}: inside that set the
    monic polynomial solution either fails to exist or fails to be unique.
    """

    a: float
    lam: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", _checked_a(self.a))
        object.__setattr__(self, "n", checked_n(self.n, minimum=1))
        lam = checked_finite(self.lam, "lambda")
        k = min(max(round(lam), self.n - 1), 2 * self.n - 2)  # the nearest excluded value
        if abs(lam - k) <= _SINGULAR_TOL:
            raise SingularParameterError(f"lambda = {lam} hits the excluded value {k} in "
                                         f"{{n-1, ..., 2n-2}} for n = {self.n}")
        object.__setattr__(self, "lam", lam)


def s1_polynomial(a: float, n: int, gamma: float | None = None) -> np.ndarray:
    """The coefficients of the monic degree-n polynomial whose roots are the
    s = 1 Fekete set of phase gamma (``real_line.s1_points``).

    F(x) = [(an - Bi)(x + ai)^n + (an + Bi)(x - ai)^n] / (2an) with
    B = a n cot(n pi/2 + n gamma).  The two summands are complex conjugates on
    the real axis, so F has the real coefficients

        C(n, k) a^(n-k) rho[(n-k) mod 4],  rho = (1, B/(an), -1, -B/(an)),

    formed so, without complex powers; its x^(n-1) coefficient is B, the
    negated sum of the points.  gamma defaults to the canonical
    symmetric phase, where B = 0.  Raises NumericalError when a coefficient
    cannot be represented in double precision (e.g. n = 1500, or a = 1.3 at
    n = 1000); s1_points has no such limit.
    """
    a = _checked_a(a)
    n = checked_n(n)
    if gamma is None:
        gamma = canonical_gamma(n)
    gamma = _checked_gamma(n, gamma)
    phase = n * math.pi / 2.0 + n * gamma
    sin_phase = math.sin(phase)
    if abs(sin_phase) <= _SINGULAR_TOL:
        raise InvalidInputError(
            f"cot({phase}) undefined: n pi/2 + n gamma is a multiple of pi"
        )
    cot = math.cos(phase) / sin_phase  # B / (a n)
    rho = (1.0, cot, -1.0, -cot)  # Re i^j + cot Im i^j
    try:
        coeffs = np.array([math.comb(n, k) * a ** (n - k) * rho[(n - k) % 4]
                           for k in range(n + 1)])
    except OverflowError:  # C(n, k) or a power of a beyond the double range
        coeffs = None
    if coeffs is None or not np.all(np.isfinite(coeffs)):
        raise NumericalError(
            f"s1_polynomial(a={a!r}, n={n}): a coefficient exceeds the double range"
        )
    return coeffs


def ode_monic_solution(fam: OdeFamily) -> np.ndarray:
    """The unique monic polynomial solution of the family's differential equation.

    Coefficients follow the two-step downward recursion

        c_{n-2k} = (-1)^k a^(2k) C(n, 2k) prod_{j=1..k} (2j-1)/(lambda - 2n + 2j + 1),

    with every odd-gap coefficient exactly zero.  The ratios are accumulated
    as a running product, but a^(2k) and C(n, 2k) enter as doubles of their
    own, so NumericalError comes when one of them or a coefficient leaves the
    double range: C(n, 2k) does from n = 1030 (pseudo_jacobi(1, 2, 1030)),
    before the coefficients would.  Small coefficients underflow instead:
    the constant coefficient of pseudo_jacobi(1, 2, 1000) is already 0.0.
    """
    n, lam, a = fam.n, fam.lam, fam.a
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    ratio = 1.0
    a_sq_pow = 1.0
    try:
        for k in range(1, n // 2 + 1):
            # one rounding, so never 0: OdeFamily keeps lambda off 2n - 2k - 1
            ratio *= (2.0 * k - 1.0) / (lam - (2 * n - 2 * k - 1))
            a_sq_pow *= a * a
            coeffs[n - 2 * k] = (-1) ** k * a_sq_pow * math.comb(n, 2 * k) * ratio
    except OverflowError:  # C(n, 2k) beyond the double range
        coeffs = None
    if coeffs is None or not np.all(np.isfinite(coeffs)):
        raise NumericalError(f"ode_monic_solution(a={a!r}, lambda={lam!r}, n={n}): "
                             f"a coefficient exceeds the double range")
    return coeffs


def pseudo_jacobi(a: float, s: float, n: int) -> np.ndarray:
    """Monic degree-n pseudo-Jacobi polynomial whose roots are the unique
    weighted Fekete set for w(x) = |x - ai|^(-s), s > 1.

    This is the ODE solution at lambda = 2 s (n-1); for s > 1 every
    denominator 2s(n-1) - 2n + 2j + 1 exceeds 2j - 1 >= 1, so the
    construction never degenerates.
    """
    s = _checked_sgt1(s, "pseudo_jacobi")
    n = checked_n(n)
    return ode_monic_solution(OdeFamily(a=a, lam=2.0 * s * (n - 1), n=n))


def jacobi(alpha: float, beta: float, n: int) -> np.ndarray:
    """Jacobi polynomial P_n^(alpha, beta) for arbitrary real parameters.

    Built from the product form (DLMF 18.5.8)

        sum_m C(n, m) (alpha+m+1)_(n-m) (alpha+beta+n+1)_m / n! ((x-1)/2)^m,

    which stays valid outside the classical range alpha, beta > -1.  Double
    arguments are dyadic rationals alpha = A/da and beta = B/db, so each
    coefficient c_m times da^n db^n n! 2^n is the integer

        C(n, m) (2 db)^(n-m) prod_{m<i<=n} (A + i da)
                prod_{i<m} (A db + B da + (n+1+i) da db),

    from one running product each way.  A Taylor shift by exact integer
    additions takes sum_m c_m (x-1)^m to the monomial basis, and each
    coefficient is divided once by da^n db^n n! 2^n with correct rounding,
    so even coefficients that nearly cancel come out correctly rounded.  The
    leading coefficient is (alpha+beta+n+1)_n / (n! 2^n) and may vanish
    (then the returned degree drops below n); the value at 1 is
    C(n+alpha, n).
    """
    n = checked_n(n, minimum=0)
    num_a, den_a = float(alpha).as_integer_ratio()
    num_b, den_b = float(beta).as_integer_ratio()
    upper = [1] * (n + 1)  # upper[m] = prod_{m<i<=n} (A + i da)
    for m in range(n - 1, -1, -1):
        upper[m] = upper[m + 1] * (num_a + (m + 1) * den_a)
    coeffs = []
    lower = 1  # prod_{i<m} (A db + B da + (n+1+i) da db)
    for m in range(n + 1):
        coeffs.append(math.comb(n, m) * (2 * den_b) ** (n - m) * upper[m] * lower)
        lower *= num_a * den_b + num_b * den_a + (n + 1 + m) * den_a * den_b
    for j in range(n):  # x -> x - 1, one degree at a time
        for k in range(n - 1, j - 1, -1):
            coeffs[k] -= coeffs[k + 1]
    # int / int is correctly rounded in CPython, whatever the operand sizes
    den = (den_a * den_b) ** n * math.factorial(n) << n
    return trimseq(np.array([v / den for v in coeffs]))


def log_abs_jacobi_discriminant(alpha: float, beta: float, n: int) -> tuple[float, int]:
    """(log |disc|, sign) of P_n^(alpha, beta) from the closed product formula

        2^(-n(n-1)) prod_{k=1..n} k^(k-2n+2) (k+alpha)^(k-1) (k+beta)^(k-1)
                                  (n+k+alpha+beta)^(n-k).

    The lines alpha + beta = -n - k (k = 1..n) are rejected: there the
    leading coefficient vanishes and the discriminant of the degree-n
    normalization is ambiguous.
    """
    n = checked_n(n)
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
    """log |G(ai)| for the s > 1 extremal polynomial G:

        log (2a)^n |(-s(n-1))_n| / |(n - 2s(n-1) - 1)_n|.

    Agrees with log |pseudo_jacobi(a, s, n)(ai)| and feeds the weight part
    of the discriminant route to the diameter.
    """
    l_num, _ = log_abs_pochhammer(-s * (n - 1), n)
    l_den, _ = log_abs_pochhammer(n - 2.0 * s * (n - 1) - 1.0, n)
    return n * math.log(2.0 * a) + l_num - l_den


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


def sgt1_diameter_via_discriminant(a: float, s: float, n: int) -> float:
    """The s > 1 weighted diameter by the discriminant route, an oracle for
    the product formula of ``real_line.sgt1_diameter``."""
    a = _checked_a(a)
    s = _checked_sgt1(s, "sgt1_diameter_via_discriminant")
    n = checked_n(n)
    return math.exp(_log_diameter_discriminant(a, s, n))


def recurrence_family(sigma: float, n_max: int) -> list[np.ndarray]:
    """Monic family G_0 = 1, G_1 = x and, for 2 <= n <= n_max,

        G_n = x G_{n-1} - (n-1)(2 sigma - n + 3)
              / ((2 sigma - 2n + 3)(2 sigma - 2n + 5)) G_{n-2},

    with the charge product sigma = s (n-1) held fixed along the recursion.
    Member n coincides with the ODE solution at lambda = 2 sigma (and so with
    the pseudo-Jacobi polynomial when sigma = s(n-1), s > 1).
    """
    sigma = float(sigma)
    if not math.isfinite(2.0 * sigma):
        raise InvalidInputError(f"recurrence_family requires 2 sigma within the double "
                                f"range, got sigma = {sigma!r}")
    n_max = checked_n(n_max)
    coefs = _recurrence_coefficients(sigma, n_max).tolist()
    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for n in range(2, n_max + 1):
        polys.append(P.polysub(np.append(0.0, polys[n - 1]), coefs[n - 2] * polys[n - 2]))
    return polys


def ode_residual(f, a: float, s: float, n: int) -> np.ndarray:
    """Left-hand side (x^2 + a^2) f'' - 2s(n-1) x f' + n (2s(n-1) - n + 1) f.

    The zero polynomial exactly when f solves the stationarity equation of
    the discrete energy at the given parameters.
    """
    a = _checked_a(a)
    s = float(s)
    n = checked_n(n, minimum=1)
    f = _checked_coeffs(f)
    if f.size != n + 1:
        raise InvalidInputError(f"expected degree {n}, got degree {f.size - 1}")
    k = np.arange(1, n + 1)
    df = k * f[1:]  # k f_k and (k-1) (k f_k), rounded as polyder rounds them
    ddf = k[:-1] * df[1:] if n > 1 else df * 0
    xdf = np.concatenate((df[:1] * 0, df))  # polymulx(df)
    sig2 = 2.0 * s * (n - 1)
    return P.polyadd(P.polysub(np.convolve([a * a, 0.0, 1.0], ddf), sig2 * xdf),
                     n * (sig2 - n + 1.0) * f)


def gj_scale(a: float, s: float, n: int) -> complex:
    """Scalar c = (2ai)^n n! / (n - 2s(n-1) - 1)_n linking the pseudo-Jacobi
    polynomial to P_n at alpha = beta = -s(n-1) - 1 via G(x) = c P(-ix/a)."""
    a = _checked_a(a)
    n = checked_n(n)
    return (2j * a) ** n * math.factorial(n) / pochhammer(n - 2.0 * s * (n - 1) - 1.0, n)
