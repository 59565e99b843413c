"""Continuous-limit objects: equilibrium measures, capacities, Frostman checks.

Five measure families are exposed:

* real-s        sqrt(2s-1 - (s-1)^2 x^2) / (pi (1 + x^2)) on
                [-sqrt(2s-1)/(s-1), sqrt(2s-1)/(s-1)], the s > 1 line limit;
* arctan        1 / (pi (1 + x^2)) on the whole line, the s = 1 line limit;
* circle-poisson |1-b^2| / (2 pi (1 - 2b cos t + b^2)) in the angle t, the
                circle limit;
* harmonic-inf  1 / (pi sqrt(r^2 - x^2)) on (-r, r), the hitting distribution
                of [-r, r] seen from infinity (arcsine law);
* harmonic-i    sqrt(r^2+1) / (pi (1+x^2) sqrt(r^2-x^2)) on (-r, r), the
                hitting distribution seen from the point i.

For s > 1 and r = sqrt(2s-1)/(s-1) the real-s density is the combination
s * harmonic-i - (s-1) * harmonic-inf, which is how it arises from sweeping
the attracting charge onto the support.

CDFs are elementary closed forms (arctangents, and the sweep identity above
for real-s).  cdf takes a float or a whole grid; its atan, atan2 and tan go
through the math module element by element, so a grid's values keep libm's
bits.  Log potentials are closed forms too, over a float or a whole grid:
-log|x - i| for arctan, and otherwise the sums of the log kernel's
Chebyshev series (real-s and the harmonic families, in the angle of
x = r cos(phi)) or Fourier series (the circle) against the family's
moments, which are geometric, so each series sums to a logarithm.  The
Frostman checks take U from log_potential over their whole grid.
Each family's density is one formula, with the family's constants bound
once, written for a float and an array alike: density runs it once over a
grid's points on the support, and the quadrature integrands of
fekete.verify once over all the new nodes of a round, with numpy's
arithmetic and sqrt, which round as Python's do, and the math module's sin
and cos.  The harmonic families take r >= 1e-300 and, for r outside
[2^-480, 2^500), scale r and x by a power of two, so that r^2 and
(r - x)(r + x) stay in the double range.  Densities evaluate to 0 outside their support
(including at the boundary; the harmonic families diverge in the
open-interior limit there).

No production value here is an integral.  quad, a globally adaptive
composite Gauss-Legendre rule in numpy array calls, is the one quadrature
of the package: only the oracles of fekete.verify (total masses, CDFs, the
field integral and potentials by quadrature) call it, and it stays here as
the name that the benchmark tracer wraps.  No module loads scipy.integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .circle import TWO_PI, CircleWeight
from .errors import InvalidInputError, NumericalError, checked_finite
from .real_line import _checked_sgt1, support_radius

__all__ = [
    "MeasureSpec",
    "EquilibriumReport",
    "density",
    "cdf",
    "log_potential",
    "capacity_real",
    "capacity_circle",
    "modified_robin_constant",
    "frostman_check",
    "frostman_check_circle",
    "ks_distance",
]

_REAL_SGT1 = "real-s"
_ARCTAN = "arctan"
_CIRCLE_POISSON = "circle-poisson"
_HARMONIC_INF = "harmonic-inf"
_HARMONIC_I = "harmonic-i"

# the smallest radius of the harmonic families: 1/(pi r) and the densities
# next to the edges stay below the double range's top
_R_MIN = 1e-300


def _checked_radius(r: float, family: str) -> float:
    r = checked_finite(r, "r")
    if not r > 0:
        raise InvalidInputError(f"{family} requires r > 0")
    if r < _R_MIN:
        raise InvalidInputError(f"{family} requires r >= {_R_MIN:g}: below it the "
                                "density leaves the double range")
    return r


def _radius_unit(r: float) -> float:
    """1 for 2^-480 <= r < 2^500, where every product the harmonic formulas
    form (at most about r^2, at least about r^2 2^-53) is a normal double;
    otherwise the power of two 2^-e for 2^(e-1) <= r < 2^e, which brings r
    into [1/2, 1)."""
    e = math.frexp(r)[1]
    return 1.0 if -480 < e <= 500 else math.ldexp(1.0, -e)


@dataclass(frozen=True)
class MeasureSpec:
    """A named measure family with its parameters and support interval.

    Circle families use the angle t in [0, 2 pi] as the coordinate and keep
    the CircleWeight of their charge, whose dist_sq the density uses.  unit
    is the power of two by which the harmonic formulas scale r and x (see
    _radius_unit): 1 for moderate r, where they run unscaled, and for the
    other families.  Build instances through the classmethod
    constructors, which validate parameter domains and fill in the support.
    """

    family: str
    support: tuple[float, float]
    s: float | None = None
    b: float | None = None
    r: float | None = None
    weight: CircleWeight | None = field(default=None, repr=False, compare=False)
    unit: float = field(init=False, repr=False, compare=False)
    # the density formula over floats and arrays (_density_fn), and the
    # density at one float (_on_support_fn)
    _formula: Callable = field(init=False, repr=False, compare=False)
    _density: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        harmonic = self.family in (_HARMONIC_INF, _HARMONIC_I)
        object.__setattr__(self, "unit", _radius_unit(self.r) if harmonic else 1.0)
        object.__setattr__(self, "_formula", _density_fn(self))
        object.__setattr__(self, "_density", _on_support_fn(self))

    @classmethod
    def real_sgt1(cls, s: float) -> "MeasureSpec":
        s = _checked_sgt1(s, "real-s family")
        radius = support_radius(1.0, s)
        return cls(family=_REAL_SGT1, support=(-radius, radius), s=s)

    @classmethod
    def arctan(cls) -> "MeasureSpec":
        return cls(family=_ARCTAN, support=(-math.inf, math.inf))

    @classmethod
    def circle_poisson(cls, b: float) -> "MeasureSpec":
        weight = CircleWeight(b)
        return cls(family=_CIRCLE_POISSON, support=(0.0, TWO_PI), b=weight.b, weight=weight)

    @classmethod
    def harmonic_inf(cls, r: float) -> "MeasureSpec":
        r = _checked_radius(r, _HARMONIC_INF)
        return cls(family=_HARMONIC_INF, support=(-r, r), r=r)

    @classmethod
    def harmonic_i(cls, r: float) -> "MeasureSpec":
        r = _checked_radius(r, _HARMONIC_I)
        return cls(family=_HARMONIC_I, support=(-r, r), r=r)

    @property
    def is_circle(self) -> bool:
        return self.family == _CIRCLE_POISSON


@dataclass(frozen=True)
class EquilibriumReport:
    """Robin constants and Frostman-condition residuals over a grid.

    robin_constant is -log(capacity) (on the circle summed as
    log|1 - b| + log|1 + b|, finite where the capacity underflows);
    frostman_max_violation
    is the largest amount by which U + Q drops below the modified Robin
    constant anywhere on the grid (should be ~0), and
    frostman_max_onsupport_deviation the largest |U + Q - F| over grid points
    interior to the support (equality region).
    """

    capacity: float
    robin_constant: float
    modified_robin: float
    frostman_max_violation: float
    frostman_max_onsupport_deviation: float


def _k_unit(m: MeasureSpec) -> float:
    """sqrt(1 + r^2) times m.unit, the harmonic-i factor: where unit is not 1
    the square root is r or 1 to double precision, and 1 + r^2 may overflow."""
    r, u = m.support[1], m.unit
    return (math.sqrt(1.0 + r * r) if u == 1.0 else max(r, 1.0)) * u


def _libm(fn, *args) -> np.ndarray:
    """A scalar function of the math module over arrays, element by element:
    numpy's sin, cos, atan, atan2 and tan can differ from libm's in the last
    ulp, which would move printed digits."""
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, args[0].size)


# what the density formulas call on an array: numpy's sqrt, which rounds as
# math.sqrt does, and the math module's sin and cos element by element
_ARRAYS = SimpleNamespace(sqrt=np.sqrt, sin=partial(_libm, math.sin),
                          cos=partial(_libm, math.cos))


def _density_fn(m: MeasureSpec) -> Callable:
    """The family's density formula f(x, lib=math) on its support, with the
    family's constants bound once, built with each MeasureSpec: x is a float
    with lib = math, or an array with lib = _ARRAYS, whose operations round
    as math's do, so the two give the same bits.  The one formula behind
    density and the quadrature integrands."""
    lo, hi = m.support
    if m.family == _ARCTAN:
        return lambda x, lib=math: 1.0 / (math.pi * (1.0 + x * x))
    if m.family == _CIRCLE_POISSON:
        # |1 - b^2| / |e^{ix} - b|^2, both scaled by u^2 (CircleWeight.unit)
        u = m.weight.unit
        c = m.b * u
        num = abs(u - c) * abs(u + c)
        dist_sq = m.weight.dist_sq
        return lambda x, lib=math: num / (TWO_PI * dist_sq(x, lib))
    if m.family == _REAL_SGT1:
        s1 = m.s - 1.0
        # sqrt(2s-1 - (s-1)^2 x^2) = (s-1) sqrt(r^2 - x^2), the root taken as
        # sqrt((r-x)(r+x)), which does not cancel at the edges
        return lambda x, lib=math: (s1 * lib.sqrt((hi - x) * (hi + x))
                                    / (math.pi * (1.0 + x * x)))
    # the harmonic families: sqrt(r^2 - x^2) = sqrt((r-x)(r+x)) / u from r and
    # x scaled by u, so that neither r^2 nor the edge products leave the range
    u = m.unit
    ru = hi * u
    if m.family == _HARMONIC_INF:
        return lambda x, lib=math: u / (math.pi * lib.sqrt((ru - x * u) * (ru + x * u)))
    if m.family == _HARMONIC_I:
        k = _k_unit(m)
        # 1 + x^2 overflows past |x| = 1.3e154, where the density is below
        # 1e-300 and evaluates to 0
        return lambda x, lib=math: (k / (math.pi * (1.0 + x * x)
                                         * lib.sqrt((ru - x * u) * (ru + x * u))))
    raise InvalidInputError(f"unknown measure family {m.family!r}")


def _on_support_fn(m: MeasureSpec) -> Callable[[float], float]:
    """The density at one float: the formula on the support, where the
    circle's is closed and every other family's open, and 0 off it (at NaN
    too)."""
    lo, hi = m.support
    formula = m._formula
    if m.is_circle:
        return lambda x: formula(x) if lo <= x <= hi else 0.0
    return lambda x: formula(x) if lo < x < hi else 0.0


def density(m: MeasureSpec, x):
    """Density of the family at x (an angle for circle families), 0 outside
    the support rather than raising.

    x is a float or an array; the result is a float or an array of x's
    shape.  An array runs the family's formula once, over its points on the
    support, with numpy's arithmetic and sqrt and the math module's sin and
    cos, so an array value has the bits of the scalar one.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return m._density(float(xs))
    flat = xs.ravel()
    lo, hi = m.support
    inside = (flat >= lo) & (flat <= hi) if m.is_circle else (flat > lo) & (flat < hi)
    out = np.zeros(flat.size)
    # x^2 overflows past |x| = 1.3e154, as it does silently in a float
    with np.errstate(over="ignore"):
        out[inside] = m._formula(flat[inside], _ARRAYS)
    return out.reshape(xs.shape)


# the Gauss-Legendre (nodes, weights) of quad at 32 and 16 points, filled on
# its first call
_GAUSS: list = []
_QUAD_ROUNDS = 40  # the bisection rounds of quad, at most


def _gauss_pieces(f, lo: np.ndarray, hi: np.ndarray):
    """The 32-point Gauss-Legendre values of f over the pieces [lo, hi] and
    their distances from the 16-point values, in one call of f on the
    nodes of all the pieces."""
    (x32, w32), (x16, w16) = _GAUSS
    half = (hi - lo) / 2.0
    nodes = (lo + half)[:, None] + half[:, None] * np.concatenate((x32, x16))
    # a value that is not finite raises below, with no warning first
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.isfinite(fx).all():
        raise NumericalError("quadrature gave up: the integrand is not finite at a node")
    value = half * (fx[:, :32] @ w32)
    return value, np.abs(value - half * (fx[:, 32:] @ w16))


def quad(f, ends, tol: float = 1e-11) -> np.ndarray:
    """The integrals of f over the intervals [ends[i], ends[i+1]] of the
    mesh ends (negative where ends decrease), as an array, to within
    max(tol, tol |I|) in all, I their sum.

    f maps a 1-d array of nodes to the integrand's values there.  Every
    piece of the mesh gets the 32-point Gauss-Legendre rule, and its
    distance from the 16-point rule as its error estimate (nodes and
    weights from numpy's leggauss, which solves the Golub-Welsch
    eigenproblem, on the first call).  Each round bisects every piece whose
    estimate exceeds a quarter of the largest and evaluates the new halves
    only, until the estimates sum to within the bound.  A non-finite
    integrand value, or a bound not reached in _QUAD_ROUNDS rounds, raises
    NumericalError ("quadrature gave up"): no value is returned that the
    estimate does not put within tol.

    Only verify's quadrature oracles call it, through this module attribute
    (eq.quad): bench/tracing.py wraps equilibrium.quad by name to time
    every integral.
    """
    if not _GAUSS:
        _GAUSS.extend(np.polynomial.legendre.leggauss(k) for k in (32, 16))
    ends = np.asarray(ends, dtype=float)
    wide = ends[1:] != ends[:-1]  # an empty interval has integral 0
    lo, hi = ends[:-1][wide], ends[1:][wide]
    owner = np.flatnonzero(wide)  # the interval of each piece
    value, error = _gauss_pieces(f, lo, hi)
    rounds = 0
    while True:
        total = error.sum()
        if total <= max(tol, tol * abs(value.sum())):
            return np.bincount(owner, value, minlength=ends.size - 1)
        if rounds == _QUAD_ROUNDS:
            raise NumericalError(f"quadrature gave up: error estimate {total:.1e} after "
                                 f"{rounds} rounds of bisection")
        rounds += 1
        split = error > 0.25 * error.max()
        mid = (lo[split] + hi[split]) / 2.0
        halves = (np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split])))
        new_value, new_error = _gauss_pieces(f, *halves)
        keep = ~split
        lo = np.concatenate((lo[keep], halves[0]))
        hi = np.concatenate((hi[keep], halves[1]))
        owner = np.concatenate((owner[keep], np.tile(owner[split], 2)))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))


def cdf(m: MeasureSpec, x):
    """Cumulative mass of the family up to x, clamped to [0, 1].

    x is a float or an array; the result is a float or an array of x's
    shape.  Every family has an elementary CDF: 1/2 + arctan(x)/pi for
    arctan, H = 1/2 + atan(k x / sqrt(r^2 - x^2))/pi with k = 1
    (harmonic-inf) or sqrt(1 + r^2) (harmonic-i), H_inf + s (H_i - H_inf)
    for real-s, and arctan(|(1+b)/(1-b)| tan(t/2))/pi (plus 1 past t = pi)
    for the circle.  The arithmetic, square roots and the clamp run in numpy,
    which rounds them as Python floats do; atan, atan2 and tan go through the
    math module, so an array value has the bits of the scalar one.  NaN is
    rejected; -inf and +inf map to 0 and 1.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if np.isnan(flat).any():
        raise InvalidInputError("cdf is undefined at NaN")
    lo, hi = m.support
    out = np.where(flat <= lo, 0.0, 1.0)
    inside = (flat > lo) & (flat < hi)
    t = flat[inside]
    if m.family == _ARCTAN:
        val = 0.5 + _libm(math.atan, t) / math.pi
    elif m.family == _CIRCLE_POISSON:
        ratio = abs((1.0 + m.b) / (1.0 - m.b))
        val = _libm(math.atan, ratio * _libm(math.tan, t / 2.0)) / math.pi
        val[t > math.pi] += 1.0
    else:
        # both arguments of the arctangent times m.unit (see _density_fn)
        unit, ru, tu = m.unit, hi * m.unit, t * m.unit
        root = np.sqrt((ru - tu) * (ru + tu))
        kx = (_k_unit(m) if m.family == _HARMONIC_I else unit) * t
        val = 0.5 + _libm(math.atan2, kx, root) / math.pi
        if m.family == _REAL_SGT1:
            # H_i - H_inf as one arctangent (k - 1 = r^2/(k+1)) in u = x/r and
            # v = root/r: s H_i - (s-1) H_inf as written cancels O(s)
            k = math.sqrt(1.0 + hi * hi)
            u, v = t / hi, root / hi
            val += m.s * _libm(math.atan2, u * v * hi * hi / (k + 1.0),
                               v * v + k * u * u) / math.pi
    out[inside] = np.minimum(np.maximum(val, 0.0), 1.0)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _interval_potential(m: MeasureSpec, xs: np.ndarray) -> np.ndarray:
    """U at the points xs for real-s and the harmonic families.

    In the angle phi of x = r cos phi the density's Chebyshev moments are
    c_0 = 1, c_2m = w (-p)^m for m >= 1 and 0 at odd orders (Poisson-kernel
    integrals): w = 1, p = 0 for harmonic-inf; w = 1, p = (k-1)/(k+1) =
    (r/(k+1))^2 with k = sqrt(1 + r^2), r and k scaled as in _k_unit, for
    harmonic-i; w = s, p = 1/(2s-1) for real-s, the sweep of cdf.  Summed
    against log|cos phi - cos phi0| = -log 2 - 2 sum_k cos(k phi) cos(k phi0)/k
    (Mason & Handscomb, Chebyshev Polynomials, 2003, section 5), they give

        U = -log(r/2) - (w/2) log((1-p)^2 + 4 p (x/r)^2)       inside,
        U = -log(r/2) - eta - w log1p(p e^{-2 eta})             at +-r cosh(eta).

    Inside, with 1 - p exact, the log is log1p(p (4t^2 - 2 + p)) for
    p < 1/2, and otherwise the log of a hypot, in range where (1 - p)^2
    underflows.  Outside, with q = r/|x|, log(r/2) + eta = log|x| +
    log((1 + sqrt(1 - q^2))/2) and e^{-eta} = q/(1 + sqrt(1 - q^2)) do not overflow.
    """
    r = m.support[1]
    if m.family == _HARMONIC_INF:
        w, p, one_minus_p = 1.0, 0.0, 1.0
    elif m.family == _HARMONIC_I:
        k1 = _k_unit(m) + m.unit
        w, p, one_minus_p = 1.0, (r * m.unit / k1) ** 2, 2.0 * m.unit / k1
    else:
        den = 2.0 * m.s - 1.0
        w, p, one_minus_p = m.s, 1.0 / den, 2.0 * (m.s - 1.0) / den
    u = np.empty(xs.size)
    ax = np.abs(xs)
    inside = ax <= r
    t = xs[inside] / r
    if p < 0.5:
        half_log = 0.5 * np.log1p(p * (4.0 * t * t - 2.0 + p))
    else:
        half_log = np.log(np.hypot(one_minus_p, 2.0 * math.sqrt(p) * t))
    u[inside] = -math.log(r / 2.0) - w * half_log
    x = ax[~inside]
    q = r / x
    root = np.sqrt((1.0 - q) * (1.0 + q))
    z = q / (1.0 + root)  # 0 where r/|x| underflows
    u[~inside] = -(np.log(x) + np.log(0.5 + 0.5 * root)) - w * np.log1p(p * z * z)
    return u


def _circle_potential(m: MeasureSpec, ts: np.ndarray) -> np.ndarray:
    """U(t) = -int log|e^{it} - e^{iu}| d mu(u) for the circle family.  Its
    Fourier moments are beta^|k| / (2 pi), with beta = b for |b| < 1 and 1/b
    past it; against log|e^{it} - e^{iu}| = -sum_k cos(k(t - u))/k they sum to

        U(t) = sum_k beta^k cos(kt)/k = -(1/2) log|1 - beta e^{it}|^2.

    With c = |beta|, |1 - beta e^{it}|^2 = (1 - c)^2 + 4c sin^2(t/2), cos for
    beta < 0, the split of CircleWeight.dist_sq: both terms are nonnegative,
    and 1 - c is taken as (|b| - 1)/|b| past |b| = 1, so nothing cancels
    next to the charge."""
    ab = abs(m.b)
    c, gap = (ab, 1.0 - ab) if ab < 1.0 else (1.0 / ab, (ab - 1.0) / ab)
    half = np.sin(ts / 2.0) if m.b >= 0.0 else np.cos(ts / 2.0)
    return -0.5 * np.log(gap * gap + 4.0 * c * half * half)


def log_potential(m: MeasureSpec, x):
    """Logarithmic potential U(x) = -int log|x - t| d mu(t) of the family (on
    the circle the angle x, with |e^{ix} - e^{it}| for |x - t|), in closed
    form: -log|x - i| for arctan, the sums of the log kernel's series against
    the family's moments otherwise (_interval_potential, _circle_potential).

    x is a float or an array of finite values; the result is a float or an
    array of x's shape.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not np.isfinite(flat).all():
        raise InvalidInputError("log_potential requires finite x")
    if m.family == _ARCTAN:
        # -(1/2) log1p(x^2), as -log|x| - (1/2) log1p(x^-2) past |x| = 1,
        # where x^2 may overflow
        big = np.maximum(np.abs(flat), 1.0)
        small = np.minimum(np.abs(flat), 1.0 / big)
        u = -np.log(big) - 0.5 * np.log1p(small * small)
    elif m.is_circle:
        u = _circle_potential(m, flat)
    else:
        u = _interval_potential(m, flat)
    return float(u[0]) if xs.ndim == 0 else u.reshape(xs.shape)


def capacity_real(s: float) -> float:
    """Weighted capacity of the line at a = 1:

        2^(2s - 2s^2 - 1) s^(-s^2) (s-1)^(-(s-1)^2) (2s-1)^((2s-1)^2 / 2),

    continued by its limit value 1/2 at s = 1.  In its log the coefficients
    of log s and log 2 both collapse to -1/2, leaving

        log cap = -(1/2) log(2s) + R,
        R = -(s-1)^2 log(1 - 1/s) + ((2s-1)^2 / 2) log(1 - 1/(2s)),

    whose two terms still cancel O(s) down to O(1); for s >= 4 R is summed
    as its series -3/4 + sum_{k>=3} 2 (1 - 2^(1-k)) s^(2-k) / (k(k-1)(k-2)),
    whose terms up to k = 31 reach the rounding level at s = 4.  There the
    capacity is e^R / sqrt(2s), which keeps the exponential's argument O(1):
    the exponential of the large -(1/2) log(2s) + R would magnify its
    rounding by up to 355.  Where 2s overflows (s >= 2^1023) the square
    root is taken as sqrt(2) sqrt(s).
    """
    s = checked_finite(s, "weight exponent s")
    if s < 1.0:
        raise InvalidInputError("capacity_real requires s >= 1")
    if s == 1.0:
        return 0.5
    if s < 4.0:
        rest = (-(s - 1.0) ** 2 * math.log1p(-1.0 / s)
                + ((2.0 * s - 1.0) ** 2 / 2.0) * math.log1p(-0.5 / s))
        return math.exp(-0.5 * math.log(2.0 * s) + rest)
    rest = -0.75 + math.fsum(2.0 * (1.0 - 2.0 ** (1 - k)) * s ** (2 - k)
                             / (k * (k - 1) * (k - 2)) for k in range(3, 32))
    if s < 2.0 ** 1023:
        return math.exp(rest) / math.sqrt(2.0 * s)
    # 2s overflows: its square root from two
    return math.exp(rest) / (math.sqrt(2.0) * math.sqrt(s))


def capacity_circle(b: float) -> float:
    """Weighted capacity of the unit circle: 1 / |1 - b^2|, with the
    denominator as |1 - b| |1 + b|, which does not cancel as |b| -> 1."""
    b = CircleWeight(b).b
    return 1.0 / (abs(1.0 - b) * abs(1.0 + b))


def modified_robin_constant(s: float) -> float:
    """The constant value F of U + Q on the support for the s > 1 line weight.

    With r = sqrt(2s-1)/(s-1), q = sqrt(1 + r^2) and the Green function
    value g(i, infinity) = log((q + 1)/r) of the slit-plane domain,

        F = s g(i, infinity) + (s-1) log(r/2)
          = (s-1) log((q + 1)/2) + log((q + 1)/r),

    written as two nonnegative log1p terms, with q - 1 = r^2/(q + 1) and
    q - r = 1/(q + r).  The first form cancels two terms of size
    (s/2) log s at large s and loses every digit by s = 1e100.
    """
    s = _checked_sgt1(s, "modified_robin_constant")
    r = support_radius(1.0, s)
    q = math.hypot(1.0, r)
    return ((s - 1.0) * math.log1p(r * r / (2.0 * (q + 1.0)))
            + math.log1p((1.0 + 1.0 / (q + r)) / r))


def _frostman_report(cap: float, robin: float, f_const: float, diff: np.ndarray,
                     on_support: np.ndarray) -> EquilibriumReport:
    return EquilibriumReport(
        capacity=cap,
        robin_constant=robin,
        modified_robin=f_const,
        frostman_max_violation=float(np.max(-diff, initial=-math.inf)),
        frostman_max_onsupport_deviation=float(np.max(np.abs(diff[on_support]),
                                                      initial=0.0)),
    )


def frostman_check(s: float, grid) -> EquilibriumReport:
    """Verify the variational characterization of the s > 1 line measure.

    Over the given grid, U + Q >= F must hold everywhere with equality on the
    support, where U is the log potential of the measure, Q(x) = s log|x - i|
    the external field and F the modified Robin constant.  Reports the worst
    violation and the worst on-support deviation (-inf and 0 on an empty
    grid).  U is log_potential over the whole grid, which must be finite.
    """
    m = MeasureSpec.real_sgt1(s)
    xs = np.asarray(grid, dtype=float).ravel()
    f_const = modified_robin_constant(s)
    with np.errstate(over="ignore"):  # Q = inf where x^2 overflows
        diff = log_potential(m, xs) + 0.5 * s * np.log1p(xs * xs) - f_const
    cap = capacity_real(s)
    return _frostman_report(cap, -math.log(cap), f_const, diff, np.abs(xs) < m.support[1])


def frostman_check_circle(b: float, angles) -> EquilibriumReport:
    """The Frostman conditions of the circle-poisson measure over a grid of
    angles, all on its support, the whole circle.

    The log potential U of the measure (log_potential, which takes finite
    angles) plus the external field Q(t) = log|e^{it} - b| = -log w must
    equal F = 0 for |b| < 1 and log|b| for |b| > 1 at every angle.  Reports
    the worst violation and the worst deviation (-inf and 0 on an empty
    grid).
    """
    m = MeasureSpec.circle_poisson(b)
    ts = np.asarray(angles, dtype=float).ravel()
    f_const = 0.0 if abs(m.b) < 1.0 else math.log(abs(m.b))
    diff = log_potential(m, ts) - m.weight.log_w(ts) - f_const
    # -log of the capacity 1 / (|1 - b| |1 + b|), which underflows past |b| = 2^512
    robin = math.log(abs(1.0 - m.b)) + math.log(abs(1.0 + m.b))
    return _frostman_report(capacity_circle(m.b), robin, f_const, diff,
                            np.ones(ts.size, bool))


def ks_distance(points, m: MeasureSpec) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of the
    points (angles in [0, 2 pi) for circle families) and the family CDF.

    Both one-sided limits of the empirical CDF are evaluated at every sample
    point, so the sup over the whole line is attained.  The points must be
    finite.
    """
    xs = np.sort(np.asarray(points, dtype=float).ravel())
    if xs.size == 0:
        raise InvalidInputError("need at least one point")
    if not np.isfinite(xs).all():
        raise InvalidInputError("points must be finite")
    n = xs.size
    c = cdf(m, xs)
    i = np.arange(n)
    return float(max(np.abs((i + 1) / n - c).max(), np.abs(i / n - c).max()))
