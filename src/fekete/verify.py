"""Self-check batteries behind the ``verify`` CLI command.

Each suite replays the structural identities of its module on fixed, seeded
inputs and reports the measured residual against the pinned tolerance:
round trips between roots and coefficients, the resultant-vs-closed-form
discriminant pair, the Jacobi connection of the extremal line polynomials,
the product-formula diameter against the discriminant route, alpha/gamma
gauge freedoms, gradient consistency against finite differences, the
sine-product bound, unit masses and shape constraints of the limit measures,
and small optimizer-vs-closed-form spot checks.  The oracle side of each
pair (companion roots, exact resultants, the line's polynomials and the
discriminant route) comes from ``fekete.poly``.  The quadrature oracles,
which no production module has, live here: the unit masses, the CDFs, the
field integral of the modified Robin constant, and
``potential_by_quadrature`` against the closed-form ``log_potential`` behind
the Frostman checks are integrals of ``_integral``, which calls
``equilibrium.quad`` and raises when scipy flags an integral.
``sine_product`` and ``sine_product_bound``, the two sides of the
sine-product bound, live here too.  The production side comes from the
other modules.  Every polynomial is a real coefficient array, so the
``poly`` suite draws its roots in conjugate pairs, plus one real root at
odd degree.  The heavier optimizer sweeps live in the
acceptance test suite; here every suite is kept fast enough to run on each
call: the companion roots of a suite come from one ``stacked_roots`` call
over all its degrees (the ``real`` suite's 348 pseudo-Jacobi and s = 1
polynomials of n = 2..30, the ``poly`` suite's 30 random draws), the exact
discriminants and Jacobi polynomials come from the Bezout-matrix and
product-form kernels of ``fekete.poly``, and each draw of sine-product
points from one ``sine_product`` call on the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from . import circle as circ
from . import energy as en
from . import equilibrium as eq
from . import real_line as rl
from .errors import InvalidInputError, NumericalError, SingularParameterError, checked_n
from .poly import (
    OdeFamily,
    discriminant_resultant,
    gj_scale,
    jacobi,
    jacobi_discriminant,
    ode_monic_solution,
    ode_residual,
    pochhammer,
    pseudo_jacobi,
    recurrence_family,
    roots,
    s1_polynomial,
    sgt1_diameter_via_discriminant,
    stacked_roots,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]

SUITES = ("poly", "real", "circle", "energy", "equilibrium")


@dataclass
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = math.isfinite(self.residual) and self.residual <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.suite}/{self.name} "
                f"residual={self.residual:.3e} tol={self.tol:.1e}")


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

def _real_roots(half: np.ndarray, real: np.ndarray) -> np.ndarray:
    """The roots of a real polynomial: the pairs z, conj(z) over half, then
    the real roots."""
    return np.concatenate((half, half.conj(), real))


def _suite_poly() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(101)

    polys = []
    for _ in range(30):
        deg = int(rng.integers(2, 11))
        rad = np.sqrt(rng.uniform(0.0, 1.0, deg // 2))
        ang = rng.uniform(0.0, math.pi, deg // 2)
        rts = _real_roots(rad * np.exp(1j * ang), rng.uniform(-1.0, 1.0, deg % 2))
        polys.append(np.poly(rts)[::-1])
    worst = 0.0
    for p, rts in zip(polys, stacked_roots(polys)):
        worst = max(worst, float(np.max(np.abs(P.polyval(rts, p)))))
    out.append(CheckResult("poly", "roots-eval-roundtrip", worst, 1e-9))

    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(2, 9))
        while True:
            half = rng.uniform(-1, 1, deg // 2) + 1j * rng.uniform(-1, 1, deg // 2)
            rts = _real_roots(half, rng.uniform(-1, 1, deg % 2))
            gaps = np.abs(rts[:, None] - rts[None, :]) + np.eye(deg)
            if np.min(gaps) > 0.15:
                break
        p = np.poly(rts)[::-1]
        prod = np.prod([(rts[j] - rts[k]) ** 2
                        for j in range(deg) for k in range(j + 1, deg)])
        worst = max(worst, abs(discriminant_resultant(p) - prod) / abs(prod))
    out.append(CheckResult("poly", "discriminant-vs-root-product", worst, 1e-8))

    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(-5.0, 5.0))
        m = int(rng.integers(0, 11))
        n = int(rng.integers(0, 11))
        worst = max(worst, _rel(pochhammer(t, m + n),
                                pochhammer(t, m) * pochhammer(t + m, n)))
    out.append(CheckResult("poly", "pochhammer-split-identity", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# real line
# ---------------------------------------------------------------------------

def _suite_real() -> list[CheckResult]:
    out = []

    worst_rel = 0.0
    worst_imag = 0.0
    for s in (1.5, 2.0, 3.25):
        for n in range(2, 21):
            g = pseudo_jacobi(1.0, s, n)
            al = -s * (n - 1) - 1.0
            p = jacobi(al, al, n)
            c = gj_scale(1.0, s, n)
            composed = np.array([c * p[k] * (-1j) ** k for k in range(n + 1)])
            scale = float(np.max(np.abs(g)))
            worst_rel = max(worst_rel, float(np.max(np.abs(composed - g))) / scale)
            worst_imag = max(worst_imag, float(np.max(np.abs(composed.imag))))
    out.append(CheckResult("real", "jacobi-connection-coeffs", worst_rel, 1e-10))
    out.append(CheckResult("real", "jacobi-connection-imag", worst_imag, 1e-12))

    worst = 0.0
    for s in (1.5, 2.0):
        for a in (1.0, 2.0):
            for n in range(2, 9):
                g = pseudo_jacobi(a, s, n)
                al = -s * (n - 1) - 1.0
                c = gj_scale(a, s, n)
                transfer = (abs(c) ** (2 * n - 2) / a ** (n * (n - 1))
                            * abs(jacobi_discriminant(al, al, n)))
                got = abs(discriminant_resultant(g))
                worst = max(worst, abs(got - transfer) / transfer)
    out.append(CheckResult("real", "discriminant-transfer", worst, 1e-8))

    worst = 0.0
    for s in (1.5, 2.0, 3.25):
        for a in (1.0, 2.0):
            for n in range(2, 21):
                direct = rl.sgt1_diameter(a, s, n)
                via_disc = sgt1_diameter_via_discriminant(a, s, n)
                worst = max(worst, abs(direct - via_disc) / direct)
    out.append(CheckResult("real", "diameter-route-agreement", worst, 1e-10))

    rng = np.random.default_rng(104)
    worst = 0.0
    worst_routes = 0.0
    worst_s1 = 0.0
    s_values = (1.5, 2.0)
    degrees = range(2, 31)
    gammas = [[-math.pi / 2.0 + float(rng.uniform(0.1, 0.9)) * math.pi / n for _ in range(10)]
              for n in degrees]
    # one companion stack for the suite: per degree the pseudo-Jacobi rows,
    # then the s = 1 rows
    stack = iter(stacked_roots([p for n, gs in zip(degrees, gammas)
                                for p in [pseudo_jacobi(1.0, s, n) for s in s_values]
                                + [s1_polynomial(1.0, n, gamma) for gamma in gs]]))
    for n, gs in zip(degrees, gammas):
        for s in s_values:
            rts = next(stack)
            radius = rl.support_radius(1.0, s)
            xs = np.sort(rts.real)
            sym = float(np.max(np.abs(xs + xs[::-1])))
            imag = float(np.max(np.abs(rts.imag)))
            inside = 0.0 if float(np.max(np.abs(xs))) < radius else math.inf
            simple = 0.0 if (n == 1 or float(np.min(np.diff(xs))) > 0) else math.inf
            worst = max(worst, sym, imag, inside, simple)
            gap = float(np.max(np.abs(rl.sgt1_points(1.0, s, n) - xs)))
            worst_routes = max(worst_routes, gap / float(np.max(np.abs(xs))))
        rts = np.sort([next(stack).real for _ in gs], axis=1)
        points = np.array([rl.s1_points(1.0, n, gamma) for gamma in gs])
        worst_s1 = max(worst_s1, float(np.max(np.abs(rts - points))))
    out.append(CheckResult("real", "pseudo-jacobi-roots-real-symmetric-inside", worst, 1e-9))
    out.append(CheckResult("real", "tridiagonal-vs-companion-roots", worst_routes, 1e-10))
    out.append(CheckResult("real", "s1-roots-vs-points", worst_s1, 1e-9))

    worst = 0.0
    for n in range(2, 9):
        sample = (-0.5, 1.3, -3.7, -2.0 * (n - 1) - 1.0)
        for al in sample:
            for be in sample:
                if any(abs(al + be + n + k) < 1e-6 for k in range(1, n + 1)):
                    continue
                p = jacobi(al, be, n)
                if p.size != n + 1:
                    continue
                worst = max(worst, _rel(jacobi_discriminant(al, be, n),
                                        discriminant_resultant(p)))
    out.append(CheckResult("real", "jacobi-discriminant-vs-resultant", worst, 1e-8))

    worst = 0.0
    for s in (1.5, 2.0, 3.25):
        for a in (1.0, 2.0):
            for n in range(2, 31):
                f = pseudo_jacobi(a, s, n)
                res = ode_residual(f, a, s, n)
                scale = n * (2.0 * s * (n - 1) - n + 1.0) * float(np.max(np.abs(f)))
                worst = max(worst, float(np.max(np.abs(res))) / scale)
    out.append(CheckResult("real", "ode-residual-zero", worst, 1e-10))

    worst = 0.0
    for sigma in (3.0, 4.0, 10.0):
        family = recurrence_family(sigma, 15)
        for n in range(2, 16):
            try:
                reference = ode_monic_solution(OdeFamily(a=1.0, lam=2.0 * sigma, n=n))
            except SingularParameterError:
                continue  # uniqueness hypothesis fails for this member
            scale = max(1.0, float(np.max(np.abs(reference))))
            gap = float(np.max(np.abs(P.polysub(family[n], reference))))
            worst = max(worst, gap / scale)
    out.append(CheckResult("real", "recurrence-vs-ode-family", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# circle
# ---------------------------------------------------------------------------

def _suite_circle() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(105)
    bs = (0.0, 0.5, -0.5, 2.0, -2.0, 10.0)

    worst_mod = 0.0
    worst_inv = 0.0
    for b in bs:
        w = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 100))
        img = circ.mobius(b, w)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(img) - 1.0))))
        worst_inv = max(worst_inv, float(np.max(np.abs(circ.mobius(b, img) - w))))
    out.append(CheckResult("circle", "mobius-preserves-modulus", worst_mod, 1e-12))
    out.append(CheckResult("circle", "mobius-involution", worst_inv, 1e-12))

    worst = 0.0
    for b in (0.5, 2.0):
        for n in (2, 5, 8):
            target = n * (n - 1) / 2.0 * math.log(circ.circle_diameter(b, n))
            for alpha in np.linspace(0.0, 2.0 * math.pi / n, 10, endpoint=False):
                sol = circ.circle_points(b, n, alpha)
                lwv = en.log_weighted_vandermonde(sol.angles, circ.CircleWeight(b))
                worst = max(worst, abs(lwv - target))
    out.append(CheckResult("circle", "alpha-free-diameter", worst, 1e-9))

    worst = 0.0
    for n in (2, 4, 7):
        ref = n ** (1.0 / (n - 1))
        for b in bs:
            worst = max(worst, _rel(circ.circle_diameter(b, n) * abs(1 - b * b), ref))
    out.append(CheckResult("circle", "diameter-b-scaling", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _fd_gradient(points, weight, h=1e-6):
    x = np.asarray(points, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        for sgn in (1.0, -1.0):
            xp = x.copy()
            xp[k] += sgn * h
            g[k] += sgn * 2.0 * en.log_weighted_vandermonde(xp, weight)
        g[k] /= 2.0 * h
    return g


def sine_product(ys):
    """prod_{j<k} sin^2(y_j - y_k) for arguments in (-pi/2, pi/2].

    Bounded above by 2^(-n(n-1)) n^n, with equality exactly at arithmetic
    progressions with difference pi/n.  A float for one configuration of n
    points; an (..., n) stack of configurations gives an array of shape
    (...), each entry with the bits of that configuration alone.
    """
    y = np.asarray(ys, dtype=float)
    if y.ndim == 0 or y.shape[-1] < 2:
        raise InvalidInputError("need at least two points")
    j, k = np.triu_indices(y.shape[-1], 1)
    prod = np.prod(np.sin(y[..., j] - y[..., k]) ** 2, axis=-1)
    return float(prod) if y.ndim == 1 else prod


def sine_product_bound(n: int) -> float:
    """The sharp upper bound 2^(-n(n-1)) n^n for the sine product."""
    n = checked_n(n)
    return 2.0 ** (-n * (n - 1)) * float(n) ** n


def _suite_energy() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(106)

    worst = 0.0
    w_line = rl.RealWeight(a=1.0, s=2.0)
    for n in range(2, 9):
        while True:
            x = np.sort(rng.uniform(-2.0, 2.0, n))
            if n == 1 or np.min(np.diff(x)) > 0.05:
                break
        worst = max(worst, float(np.max(np.abs(
            en.energy_gradient(x, w_line) - _fd_gradient(x, w_line)))))
    out.append(CheckResult("energy", "line-gradient-vs-fd", worst, 1e-5))

    worst = 0.0
    for n in range(2, 9):
        t = np.sort(2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.2, 0.2, n) / n)
        for w_circ in (circ.CircleWeight(0.5), circ.CircleWeight(2.0)):
            worst = max(worst, float(np.max(np.abs(
                en.energy_gradient(t, w_circ) - _fd_gradient(t, w_circ)))))
    out.append(CheckResult("energy", "circle-gradient-vs-fd", worst, 1e-5))

    worst = 0.0
    c = 2.0
    for n in range(2, 7):
        x = np.sort(rng.uniform(-2.0, 2.0, n))
        if np.min(np.diff(x)) < 0.05:
            x = np.linspace(-1.5, 1.5, n)
        d_base, d_scaled = (
            math.exp(2.0 * en.log_weighted_vandermonde(y, rl.RealWeight(a, 2.0)) / (n * (n - 1)))
            for y, a in ((x, 1.0), (c * x, c)))
        expected = c ** (1.0 - 2.0 * 2.0) * d_base
        worst = max(worst, abs(d_scaled - expected) / expected)
    expected = 2.0 ** (1.0 - 4.0) * rl.sgt1_diameter(1.0, 2.0, 2)
    worst = max(worst, abs(rl.sgt1_diameter(2.0, 2.0, 2) - expected) / expected)
    out.append(CheckResult("energy", "scaling-covariance", worst, 1e-10))

    rng = np.random.default_rng(107)
    worst_excess = -math.inf
    worst_eq = 0.0
    for n in range(2, 7):
        bound = sine_product_bound(n)
        ys = rng.uniform(-math.pi / 2.0, math.pi / 2.0, (1000, n))
        worst_excess = max(worst_excess, float(np.max(sine_product(ys) - bound)))
        ap = np.arange(n) * math.pi / n
        worst_eq = max(worst_eq, _rel(sine_product(ap), bound))
    out.append(CheckResult("energy", "sine-product-bound", worst_excess, 0.0))
    out.append(CheckResult("energy", "sine-product-equality-at-progression", worst_eq, 1e-12))

    worst_pts = 0.0
    worst_diam = 0.0
    for n in (2, 3, 5):
        res = en.optimize(rl.RealWeight(1.0, 2.0), n)
        ref = np.sort(roots(pseudo_jacobi(1.0, 2.0, n)).real)
        worst_pts = max(worst_pts, float(np.max(np.abs(np.asarray(res.points) - ref))))
        worst_diam = max(worst_diam,
                         _rel(math.exp(res.log_diameter), rl.sgt1_diameter(1.0, 2.0, n)))
    out.append(CheckResult("energy", "optimizer-matches-unique-roots", worst_pts, 1e-6))
    out.append(CheckResult("energy", "optimizer-matches-diameter", worst_diam, 1e-8))

    res = en.optimize(circ.CircleWeight(0.5), 4)
    out.append(CheckResult("energy", "optimizer-circle-diameter",
                           _rel(math.exp(res.log_diameter), circ.circle_diameter(0.5, 4)),
                           1e-6))

    res = en.optimize(rl.RealWeight(1.0, 1.0), 3)
    out.append(CheckResult("energy", "optimizer-s1-energy",
                           abs(res.energy + math.log(rl.s1_diameter(1.0, 3))), 1e-8))
    return out


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

_QUAD_FAIL = 1e-7
_QUAD_MAX_RADIUS = 1e4  # the largest support radius r of [-r, r] _integral takes


def _quad_checked(f, lo, hi, points, tol) -> float:
    """quad's value to absolute and relative tolerance tol; NumericalError
    when quad flags the integral (then its value can be wrong by orders of
    magnitude) or its error estimate exceeds _QUAD_FAIL.  It calls eq.quad,
    the module attribute, which the benchmark tracer wraps."""
    val, err, _, *flag = eq.quad(f, lo, hi, points=points, full_output=1,
                                 epsabs=tol, epsrel=tol, limit=200)
    if flag:
        raise NumericalError(f"quadrature gave up: {flag[0].splitlines()[0]}")
    if err > _QUAD_FAIL:
        raise NumericalError(
            f"quadrature reached absolute error {err:.2e} > {_QUAD_FAIL:.0e}"
        )
    return val


def _integral(m: eq.MeasureSpec, f=None, upto=None, singular=None, tol=1e-11) -> float:
    """int f(t) d mu(t) from the left end of the support up to upto (all of
    it when None; f = 1 when None), split at singular when that lies inside
    the support.  Line families are integrated in an angle: x = tan(theta)
    for arctan, which maps the line onto a finite interval, and
    x = r sin(theta) on [-r, r], which removes the square-root edges; the
    circle family in its own angle.  Every quadrature oracle is a call of
    this helper.  On [-r, r] it raises past r = _QUAD_MAX_RADIUS, where quad
    can step over the mass near x = 0, a theta-width ~1/r, and report 0."""
    lo, hi = m.support
    dens = m._density
    f = f or (lambda _: 1.0)
    if m.family == "arctan":
        angle = math.atan

        def g(theta):
            x = math.tan(theta)
            return f(x) * dens(x) / math.cos(theta) ** 2
    elif m.is_circle:
        angle = float

        def g(t):
            return f(t) * dens(t)
    else:
        def angle(x):
            return math.asin(min(max(x / hi, -1.0), 1.0))

        def g(theta):
            x = hi * math.sin(theta)
            return f(x) * dens(x) * hi * math.cos(theta)
    pts = [angle(singular)] if singular is not None and lo < singular < hi else None
    value = _quad_checked(g, angle(lo), angle(hi if upto is None else upto), pts, tol)
    if m.family != "arctan" and hi > _QUAD_MAX_RADIUS:
        raise NumericalError(f"radius {hi:g} is past the quadrature oracle's {_QUAD_MAX_RADIUS:g}")
    return value


def potential_by_quadrature(m: eq.MeasureSpec, x: float) -> float:
    """The oracle of ``equilibrium.log_potential``: -int log|x - t| d mu(t),
    with 2|sin((x - t)/2)| for |x - t| on the circle, by quadrature split at
    the integrable log singularity."""
    if m.is_circle:
        return _integral(m, lambda t: -math.log(2.0 * abs(math.sin((x - t) / 2.0))),
                         singular=x)
    return _integral(m, lambda t: -math.log(abs(x - t)), singular=x)


def _suite_equilibrium() -> list[CheckResult]:
    out = []
    families = (
        [eq.MeasureSpec.real_sgt1(s) for s in (1.5, 2.0, 5.0)]
        + [eq.MeasureSpec.arctan()]
        + [eq.MeasureSpec.circle_poisson(b) for b in (0.0, 0.5, 2.0, -0.5)]
        + [eq.MeasureSpec.harmonic_inf(r) for r in (1.0, math.sqrt(3.0))]
        + [eq.MeasureSpec.harmonic_i(r) for r in (1.0, math.sqrt(3.0))]
    )
    worst = max(abs(_integral(m) - 1.0) for m in families)
    out.append(CheckResult("equilibrium", "unit-mass", worst, 1e-8))

    s = 2.0
    r = math.sqrt(3.0)
    m_target = eq.MeasureSpec.real_sgt1(s)
    m_i = eq.MeasureSpec.harmonic_i(r)
    m_inf = eq.MeasureSpec.harmonic_inf(r)
    grid = np.linspace(-r, r, 102)[1:-1]
    worst = float(np.max(np.abs(s * eq.density(m_i, grid) - (s - 1.0) * eq.density(m_inf, grid)
                                - eq.density(m_target, grid))))
    out.append(CheckResult("equilibrium", "harmonic-combination-identity", worst, 1e-10))

    worst = 0.0
    for sv in (1.5, 2.0, 5.0):
        m = eq.MeasureSpec.real_sgt1(sv)
        worst = max(worst, abs(eq.density(m, m.support[0])), abs(eq.density(m, m.support[1])))
    out.append(CheckResult("equilibrium", "support-endpoint-density-zero", worst, 0.0))

    worst = 0.0
    for sv in (1.5, 2.0, 5.0):
        expansion = (-((2 * sv - 1) ** 2 / 2.0) * math.log(2 * sv - 1)
                     + (sv - 1) ** 2 * math.log(sv - 1)
                     + sv * sv * math.log(sv)
                     + (2 * sv * sv - 2 * sv + 1) * math.log(2.0))
        v = -math.log(eq.capacity_real(sv))
        worst = max(worst, abs(v - expansion) / max(1.0, abs(v)))
    out.append(CheckResult("equilibrium", "robin-constant-expansion", worst, 1e-12))

    worst_mono = 0.0
    worst_edge = 0.0
    worst_quad = 0.0
    for m in (eq.MeasureSpec.real_sgt1(2.0), eq.MeasureSpec.harmonic_i(math.sqrt(3.0)),
              eq.MeasureSpec.harmonic_inf(1.0), eq.MeasureSpec.circle_poisson(0.5)):
        lo, hi = m.support
        xs = np.linspace(lo, hi, 41)
        vals = eq.cdf(m, xs).tolist()
        worst_mono = max(worst_mono, max(0.0, -min(np.diff(vals))))
        worst_edge = max(worst_edge, abs(vals[0]), abs(vals[-1] - 1.0))
        worst_quad = max(worst_quad, max(abs(v - _integral(m, upto=x))
                                         for x, v in zip(xs, vals)))
    far = eq.cdf(eq.MeasureSpec.arctan(), np.array([-1e12, 1e12])).tolist()
    worst_edge = max(worst_edge, abs(far[0]), abs(far[1] - 1.0))
    out.append(CheckResult("equilibrium", "cdf-nondecreasing", worst_mono, 1e-12))
    out.append(CheckResult("equilibrium", "cdf-endpoints", worst_edge, 1e-8))
    out.append(CheckResult("equilibrium", "cdf-vs-quadrature", worst_quad, 1e-10))

    worst = 0.0
    for sv in (2.0, 5.0):
        field_integral = _integral(eq.MeasureSpec.real_sgt1(sv),
                                   lambda x: 0.5 * math.log(1.0 + x ** 2), tol=1e-12)
        lhs = eq.modified_robin_constant(sv)
        rhs = -math.log(eq.capacity_real(sv)) - sv * field_integral
        worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("equilibrium", "modified-robin-consistency", worst, 1e-6))

    # on each support and out to three times its radius, which grows like
    # 1/(s - 1) as s -> 1+
    reports = [eq.frostman_check(sv, rl.support_radius(1.0, sv) * np.linspace(-3.0, 3.0, 41))
               for sv in (1.0 + 1e-8, 1.0 + 1e-6, 1.0001, 2.0, 1e6, 1e12, 1e100, 1e300)]
    out.append(CheckResult("equilibrium", "frostman-no-violation",
                           max(max(rep.frostman_max_violation for rep in reports), 0.0), 1e-6))
    out.append(CheckResult("equilibrium", "frostman-equality-on-support",
                           max(rep.frostman_max_onsupport_deviation for rep in reports), 1e-6))

    cases = [(m, x) for m in (eq.MeasureSpec.real_sgt1(2.0),
                              eq.MeasureSpec.harmonic_i(math.sqrt(3.0)))
             for x in (m.support[1] * np.array([-2.0, -1.1, -0.8, -0.3, 0.0, 0.45, 0.9,
                                                1.25, 3.0])).tolist()]
    cases += [(eq.MeasureSpec.circle_poisson(b), t)
              for b, t in ((0.5, 2.0), (-0.5, 4.0), (3.0, math.pi))]
    worst = max(abs(eq.log_potential(m, x) - potential_by_quadrature(m, x)) for m, x in cases)
    out.append(CheckResult("equilibrium", "log-potential-vs-quadrature", worst, 1e-10))

    angles = np.linspace(0.0, circ.TWO_PI, 41)
    worst = max(eq.frostman_check_circle(b, angles).frostman_max_onsupport_deviation
                for b in (0.0, 0.5, -0.5, 0.999999, -0.999999, 1.000001, -1.000001, 3.0))
    out.append(CheckResult("equilibrium", "circle-frostman", worst, 1e-6))
    return out


_SUITE_FUNCS = {
    "poly": _suite_poly,
    "real": _suite_real,
    "circle": _suite_circle,
    "energy": _suite_energy,
    "equilibrium": _suite_equilibrium,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite and return its check results."""
    if name not in _SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    return _SUITE_FUNCS[name]()


def run_suites(names) -> list[CheckResult]:
    """Run several suites in declaration order."""
    out = []
    for name in names:
        out.extend(run_suite(name))
    return out
