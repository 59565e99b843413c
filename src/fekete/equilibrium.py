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
for real-s).  Total masses and logarithmic potentials are computed with
adaptive Gauss-Kronrod quadrature; densities with inverse-square-root edges
are integrated after the substitution x = r sin(theta), which removes the
endpoint derivative blowup, and the integrable log singularity of the
potential is handled by splitting the integration at the singular point.
Densities evaluate to 0 outside their support (including at the boundary;
the harmonic families diverge in the open-interior limit there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .circle import TWO_PI, CircleWeight
from .errors import InvalidInputError, NumericalError

__all__ = [
    "MeasureSpec",
    "EquilibriumReport",
    "density",
    "cdf",
    "total_mass",
    "log_potential",
    "capacity_real",
    "capacity_circle",
    "modified_robin_constant",
    "frostman_check",
    "ks_distance",
]

_QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=200)
_QUAD_FAIL = 1e-7

_REAL_SGT1 = "real-s"
_ARCTAN = "arctan"
_CIRCLE_POISSON = "circle-poisson"
_HARMONIC_INF = "harmonic-inf"
_HARMONIC_I = "harmonic-i"


@dataclass(frozen=True)
class MeasureSpec:
    """A named measure family with its parameters and support interval.

    Circle families use the angle t in [0, 2 pi] as the coordinate.  Build
    instances through the classmethod constructors, which validate parameter
    domains and fill in the support.
    """

    family: str
    support: tuple[float, float]
    s: float | None = None
    b: float | None = None
    r: float | None = None

    @classmethod
    def real_sgt1(cls, s: float) -> "MeasureSpec":
        s = float(s)
        if s <= 1.0:
            raise InvalidInputError("real-s family requires s > 1")
        radius = math.sqrt(2.0 * s - 1.0) / (s - 1.0)
        return cls(family=_REAL_SGT1, support=(-radius, radius), s=s)

    @classmethod
    def arctan(cls) -> "MeasureSpec":
        return cls(family=_ARCTAN, support=(-math.inf, math.inf))

    @classmethod
    def circle_poisson(cls, b: float) -> "MeasureSpec":
        b = CircleWeight(b).b
        return cls(family=_CIRCLE_POISSON, support=(0.0, TWO_PI), b=b)

    @classmethod
    def harmonic_inf(cls, r: float) -> "MeasureSpec":
        if not r > 0:
            raise InvalidInputError("harmonic-inf requires r > 0")
        return cls(family=_HARMONIC_INF, support=(-float(r), float(r)), r=float(r))

    @classmethod
    def harmonic_i(cls, r: float) -> "MeasureSpec":
        if not r > 0:
            raise InvalidInputError("harmonic-i requires r > 0")
        return cls(family=_HARMONIC_I, support=(-float(r), float(r)), r=float(r))

    @property
    def is_circle(self) -> bool:
        return self.family == _CIRCLE_POISSON


@dataclass(frozen=True)
class EquilibriumReport:
    """Robin constants and Frostman-condition residuals over a grid.

    robin_constant is -log(capacity) by construction; frostman_max_violation
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


def density(m: MeasureSpec, x: float) -> float:
    """Pointwise density of the family at x (an angle for circle families).

    Returns 0 outside the support rather than raising.
    """
    x = float(x)
    lo, hi = m.support
    if m.family == _ARCTAN:
        return 1.0 / (math.pi * (1.0 + x * x))
    if m.family == _CIRCLE_POISSON:
        if not lo <= x <= hi:
            return 0.0
        b = m.b
        return abs(1.0 - b * b) / (TWO_PI * (1.0 - 2.0 * b * math.cos(x) + b * b))
    if not lo < x < hi:
        return 0.0
    if m.family == _REAL_SGT1:
        s = m.s
        val = 2.0 * s - 1.0 - (s - 1.0) ** 2 * x * x
        return math.sqrt(max(val, 0.0)) / (math.pi * (1.0 + x * x))
    root = math.sqrt(m.r * m.r - x * x)
    if m.family == _HARMONIC_INF:
        return 1.0 / (math.pi * root)
    if m.family == _HARMONIC_I:
        return math.sqrt(m.r * m.r + 1.0) / (math.pi * (1.0 + x * x) * root)
    raise InvalidInputError(f"unknown measure family {m.family!r}")


def _quad_checked(f, lo, hi, points=None) -> float:
    val, err = quad(f, lo, hi, points=points, **_QUAD_KW)
    if err > _QUAD_FAIL:
        raise NumericalError(
            f"quadrature reached absolute error {err:.2e} > {_QUAD_FAIL:.0e}"
        )
    return val


def _sqrt_edge_integral(m: MeasureSpec, f, theta_hi: float, singular_theta=None) -> float:
    """Integrate f(x) d mu(x) from the left endpoint up to r sin(theta_hi)
    using the substitution x = r sin(theta)."""
    r = m.support[1]

    def g(theta):
        x = r * math.sin(theta)
        return f(x) * density(m, x) * r * math.cos(theta)

    pts = [singular_theta] if singular_theta is not None else None
    return _quad_checked(g, -math.pi / 2.0, theta_hi, points=pts)


def _harmonic_cdf(r: float, x: float, slope: float) -> float:
    """1/2 + atan(slope x / sqrt(r^2 - x^2)) / pi for |x| < r.

    slope = 1 is the arcsine law (harmonic-inf), slope = sqrt(1 + r^2) the
    hitting distribution from i (harmonic-i).  sqrt((r-x)(r+x)) avoids the
    cancellation of r^2 - x^2 at the edges."""
    return 0.5 + math.atan2(slope * x, math.sqrt((r - x) * (r + x))) / math.pi


def cdf(m: MeasureSpec, x: float) -> float:
    """Cumulative mass of the family up to x, clamped to [0, 1].

    Every family has an elementary CDF: 1/2 + arctan(x)/pi for arctan, the
    arctangent forms of _harmonic_cdf for the harmonic families, the sweep
    identity s H_i - (s-1) H_inf for real-s, and the half-angle form
    arctan(|(1+b)/(1-b)| tan(t/2))/pi (plus 1 past t = pi) for the circle.
    """
    x = float(x)
    if m.family == _ARCTAN:
        return 0.5 + math.atan(x) / math.pi
    lo, hi = m.support
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    if m.family == _CIRCLE_POISSON:
        val = math.atan(abs((1.0 + m.b) / (1.0 - m.b)) * math.tan(x / 2.0)) / math.pi
        if x > math.pi:
            val += 1.0
    elif m.family == _HARMONIC_INF:
        val = _harmonic_cdf(hi, x, 1.0)
    else:
        val = _harmonic_cdf(hi, x, math.sqrt(1.0 + hi * hi))
        if m.family == _REAL_SGT1:
            val = m.s * val - (m.s - 1.0) * _harmonic_cdf(hi, x, 1.0)
    return min(max(val, 0.0), 1.0)


def total_mass(m: MeasureSpec) -> float:
    """Total integral of the density; 1 for every family, up to quadrature."""
    if m.family == _ARCTAN:
        # substitute x = tan(theta): the transformed integrand is smooth
        return _quad_checked(
            lambda t: density(m, math.tan(t)) / math.cos(t) ** 2,
            -math.pi / 2.0,
            math.pi / 2.0,
        )
    if m.family == _CIRCLE_POISSON:
        return _quad_checked(lambda t: density(m, t), 0.0, TWO_PI)
    return _sqrt_edge_integral(m, lambda _: 1.0, math.pi / 2.0)


def log_potential(m: MeasureSpec, x: float) -> float:
    """Logarithmic potential U(x) = -int log|x - t| d mu(t) for line families.

    The log singularity is integrable; the quadrature interval is split at
    the singular point when x lies inside the support.
    """
    x = float(x)
    if m.is_circle:
        raise InvalidInputError("log_potential supports line families only")
    if m.family == _ARCTAN:
        sing = math.atan(x)
        return _quad_checked(
            lambda t: -math.log(abs(x - math.tan(t))) * density(m, math.tan(t))
            / math.cos(t) ** 2,
            -math.pi / 2.0,
            math.pi / 2.0,
            points=[sing],
        )
    r = m.support[1]
    singular_theta = math.asin(x / r) if abs(x) < r else None
    return _sqrt_edge_integral(
        m, lambda t: -math.log(abs(x - t)), math.pi / 2.0, singular_theta
    )


def capacity_real(s: float) -> float:
    """Weighted capacity of the line at a = 1:

        2^(2s - 2s^2 - 1) s^(-s^2) (s-1)^(-(s-1)^2) (2s-1)^((2s-1)^2 / 2),

    continued by its limit value 1/2 at s = 1.
    """
    s = float(s)
    if s < 1.0:
        raise InvalidInputError("capacity_real requires s >= 1")
    if s == 1.0:
        return 0.5
    log_cap = (
        (2.0 * s - 2.0 * s * s - 1.0) * math.log(2.0)
        - s * s * math.log(s)
        - (s - 1.0) ** 2 * math.log(s - 1.0)
        + ((2.0 * s - 1.0) ** 2 / 2.0) * math.log(2.0 * s - 1.0)
    )
    return math.exp(log_cap)


def capacity_circle(b: float) -> float:
    """Weighted capacity of the unit circle: 1 / |1 - b^2|."""
    b = CircleWeight(b).b
    return 1.0 / abs(1.0 - b * b)


def modified_robin_constant(s: float) -> float:
    """The constant value F of U + Q on the support for the s > 1 line weight.

    With r = sqrt(2s-1)/(s-1) and the Green function value
    g(i, infinity) = log((sqrt(r^2+1) + 1)/r) of the slit-plane domain,

        F = s g(i, infinity) + (s-1) log(r/2).
    """
    s = float(s)
    if s <= 1.0:
        raise InvalidInputError("modified_robin_constant requires s > 1")
    r = math.sqrt(2.0 * s - 1.0) / (s - 1.0)
    green_i_inf = math.log((math.sqrt(r * r + 1.0) + 1.0) / r)
    return s * green_i_inf + (s - 1.0) * math.log(r / 2.0)


def frostman_check(s: float, grid) -> EquilibriumReport:
    """Verify the variational characterization of the s > 1 line measure.

    Over the given grid, U + Q >= F must hold everywhere with equality on the
    support, where U is the log potential of the measure, Q(x) = s log|x - i|
    the external field and F the modified Robin constant.  Reports the worst
    violation and the worst on-support deviation.
    """
    m = MeasureSpec.real_sgt1(s)
    f_const = modified_robin_constant(s)
    cap = capacity_real(s)
    radius = m.support[1]
    worst_violation = -math.inf
    worst_on_support = 0.0
    for x in np.asarray(grid, dtype=float).ravel():
        if not math.isfinite(x):
            raise InvalidInputError("grid points must be finite")
        try:
            u = log_potential(m, x)
        except NumericalError as exc:
            raise NumericalError(f"potential quadrature failed at x = {x}: {exc}") from exc
        q = 0.5 * s * math.log(1.0 + x * x)
        diff = u + q - f_const
        worst_violation = max(worst_violation, -diff)
        if abs(x) < radius:
            worst_on_support = max(worst_on_support, abs(diff))
    return EquilibriumReport(
        capacity=cap,
        robin_constant=-math.log(cap),
        modified_robin=f_const,
        frostman_max_violation=worst_violation,
        frostman_max_onsupport_deviation=worst_on_support,
    )


def ks_distance(points, m: MeasureSpec) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of the
    points (angles in [0, 2 pi) for circle families) and the family CDF.

    Both one-sided limits of the empirical CDF are evaluated at every sample
    point, so the sup over the whole line is attained.
    """
    xs = np.sort(np.asarray(points, dtype=float).ravel())
    if xs.size == 0:
        raise InvalidInputError("need at least one point")
    n = xs.size
    worst = 0.0
    for i, x in enumerate(xs):
        c = cdf(m, x)
        worst = max(worst, abs((i + 1) / n - c), abs(i / n - c))
    return worst
