"""Discrete weighted energy, stationarity gradients, and a local optimizer.

This is the generic numerical route to weighted Fekete points, independent of
the closed forms: maximize the log weighted Vandermonde

    sum_{j<k} log|z_j - z_k| + (n-1) sum_k log w(z_k)

over point configurations on the line (coordinates) or on the unit circle
(angles).  The stationarity residual on the line is

    g_k = sum_{j != k} 2/(x_k - x_j) - 2 s (n-1) x_k / (x_k^2 + a^2),

i.e. the gradient of the unnormalized objective
sum_{j<k} log (x_j - x_k)^2 - s(n-1) sum_k log(x_k^2 + a^2); the circle
variant differentiates the analogous objective with respect to the angles.
`scaled_residual` divides each |g_k| by the sum of the sizes 2q/|z_k - c| of
its terms, one per charge q at c (the other points and the weight's charge):
0 at a Fekete set, at most 1, and unchanged by scaling the problem.

The optimizer works in angles for both weights: x = a tan(theta/2) maps the
line onto theta in (-pi, pi), where the objective becomes, up to a constant,

    sum_{j<k} log|2 sin((theta_j - theta_k)/2)| + sum_k phi(theta_k)

with phi = (n-1)(s-1) log(2 cos(theta/2)); on the circle phi = (n-1) log w in
its own angles.  Each start runs damped Newton ascent, a modified Newton
method (Nocedal & Wright, Numerical Optimization, sec. 3.4): the step uses the
eigendecomposition of the negated Hessian with |lambda| for each eigenvalue,
dropping |lambda| <= 1e-10 max|lambda| (the s = 1 rotation, the free Moebius
rotation), backtracks to the Armijo condition (constant 1e-4) and is kept
only if the points stay ordered.  A start stops when its angle-space scaled
residual is <= 1e-13, or, after one last full step, when g.p falls to the
rounding level of the objective f, 1e-15 (1 + |f| + max|theta| sum_k
scale_k).  A result is converged when its `scaled_residual` in the command's
coordinates is <= RESIDUAL_TOL = 1e-10.  Each start owns its state, and the
multistart reduction is a deterministic max (ties toward the lower start).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, CircleWeight, mobius
from .errors import DegenerateInputError, InvalidInputError
from .real_line import RealWeight

__all__ = [
    "FeketeResult",
    "OptimizerConfig",
    "RESIDUAL_TOL",
    "log_weighted_vandermonde",
    "numeric_diameter",
    "discrete_energy",
    "energy_gradient",
    "scaled_residual",
    "optimize",
    "sine_product",
    "sine_product_bound",
]

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10  # a result is converged when scaled_residual <= this


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings: number of starts, Newton steps per start, seed."""

    starts: int = 8
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise InvalidInputError("starts must be >= 1")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")


@dataclass(frozen=True)
class FeketeResult:
    """An optimized configuration: line coordinates or circle angles in [0, 2 pi).

    energy equals -log_diameter by construction, mirroring the identity
    -log delta_n^w = inf E_w between the diameter and the minimal discrete
    energy.
    """

    points: tuple[float, ...]
    log_diameter: float
    energy: float
    grad_norm: float
    iterations: int
    converged: bool


def _as_points(points) -> np.ndarray:
    x = np.asarray(points, dtype=float).ravel()
    if x.size < 2:
        raise InvalidInputError("need at least two points")
    return x


@functools.lru_cache(maxsize=8)
def _upper_mask(n: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of an n x n matrix; it
    selects the pairs j < k in the same row-major order as np.triu_indices."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _pair_differences(x: np.ndarray) -> np.ndarray:
    return (x[:, None] - x[None, :])[_upper_mask(x.size)]


def log_weighted_vandermonde(points, weight) -> float:
    """log of prod_{j<k} |z_j - z_k| w(z_j) w(z_k).

    Line weights take coordinates, circle weights take angles of e^{it}.
    Coincident points yield -inf (a degenerate configuration, not an error).
    """
    x = _as_points(points)
    n = x.size
    if isinstance(weight, RealWeight):
        gaps = np.abs(_pair_differences(x))
        if np.any(gaps == 0.0):
            return -math.inf
        return float(np.sum(np.log(gaps)) + (n - 1) * np.sum(weight.log_w(x)))
    if isinstance(weight, CircleWeight):
        chords = 2.0 * np.abs(np.sin(_pair_differences(x) / 2.0))
        if np.any(chords == 0.0):
            return -math.inf
        return float(np.sum(np.log(chords)) + (n - 1) * np.sum(weight.log_w(x)))
    raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")


def numeric_diameter(points, weight) -> float:
    """The weighted Vandermonde product of the configuration raised to the
    power 2/(n(n-1)); equals the n-th weighted diameter at a Fekete set."""
    n = _as_points(points).size
    return math.exp(2.0 * log_weighted_vandermonde(points, weight) / (n * (n - 1)))


def discrete_energy(points, weight: RealWeight) -> float:
    """E_w = -2/(n(n-1)) sum_{j<k} log|z_j - z_k| + (2s/n) sum_k log|z_k - ai|.

    Equals -2/(n(n-1)) times the log weighted Vandermonde; +inf for a
    degenerate (coincident) configuration.
    """
    if not isinstance(weight, RealWeight):
        raise InvalidInputError("discrete_energy is defined for line weights")
    n = _as_points(points).size
    return -2.0 * log_weighted_vandermonde(points, weight) / (n * (n - 1))


def _gradient(points, weight, with_scale: bool = False):
    """The stationarity residual g and, if with_scale, the sum of the sizes of
    the terms of each g_k.  Each term is twice the derivative of
    q log|z_k - c| for one charge c: another point (q = 1), or the weight's
    charge, ai of strength s(n-1) on the line or b of strength n-1 on the
    circle.  Its size is the modulus of that derivative in the complex plane,
    2q/|z_k - c|: csc((t_k - t_j)/2) for a pair of circle points."""
    x = _as_points(points)
    n = x.size
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    if isinstance(weight, RealWeight):
        if np.any(d == 0.0):
            raise DegenerateInputError("coincident points: gradient undefined")
        pair = 2.0 / d
        field = 2.0 * weight.s * (n - 1) * x / (x * x + weight.a * weight.a)
        g = np.sum(pair, axis=1) - field
        if not with_scale:
            return g
        return g, np.sum(np.abs(pair), axis=1) + 2.0 * weight.s * (n - 1) / np.hypot(x, weight.a)
    if isinstance(weight, CircleWeight):
        half = d / 2.0
        np.fill_diagonal(half, math.pi / 2.0)  # cot(pi/2) = 0 placeholder
        sin_half = np.sin(half)
        if np.any(sin_half == 0.0):
            raise DegenerateInputError("coincident angles: gradient undefined")
        cot = np.cos(half) / sin_half
        np.fill_diagonal(cot, 0.0)
        den = 1.0 - 2.0 * weight.b * np.cos(x) + weight.b * weight.b
        field = 2.0 * (n - 1) * weight.b * np.sin(x) / den
        g = np.sum(cot, axis=1) - field
        if not with_scale:
            return g
        csc = 1.0 / np.abs(sin_half)
        np.fill_diagonal(csc, 0.0)
        return g, np.sum(csc, axis=1) + 2.0 * (n - 1) / np.sqrt(den)
    raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")


def energy_gradient(points, weight) -> np.ndarray:
    """Stationarity residual of the configuration (see module docstring).

    Vanishes exactly at weighted Fekete configurations; coincident points are
    a hard error here because the residual is undefined.
    """
    return _gradient(points, weight)


def scaled_residual(points, weight) -> float:
    """max_k |g_k| / (sum of the sizes of the terms of g_k), in the weight's
    own coordinates: 0 at a Fekete set, at most 1, unchanged by scaling the
    line.  A term pulling z_k toward or away from a charge q at c has size
    2q/|z_k - c|, at least its absolute value; this stays meaningful where
    symmetry zeroes every term, as for n = 2 circle points at 0 and pi.
    Coincident points are a hard error.
    """
    g, scale = _gradient(points, weight, with_scale=True)
    return float(np.max(np.abs(g) / scale))


def sine_product(ys) -> float:
    """prod_{j<k} sin^2(y_j - y_k) for arguments in (-pi/2, pi/2].

    Bounded above by 2^(-n(n-1)) n^n, with equality exactly at arithmetic
    progressions with difference pi/n.
    """
    y = _as_points(ys)
    return float(np.prod(np.sin(_pair_differences(y)) ** 2))


def sine_product_bound(n: int) -> float:
    """The sharp upper bound 2^(-n(n-1)) n^n for the sine product."""
    if n < 2:
        raise InvalidInputError("bound defined for n >= 2")
    return 2.0 ** (-n * (n - 1)) * float(n) ** n


def _angle_problem(weight, n: int):
    """The per-weight parts of the angle-space objective: the field (phi,
    phi', phi'' per angle), the order test and the map to the command's
    coordinates."""
    if isinstance(weight, RealWeight):
        c = (n - 1) * (weight.s - 1.0)

        def field(t):
            cos_half = np.cos(t / 2.0)
            return (c * np.log(2.0 * cos_half), -0.5 * c * np.tan(t / 2.0),
                    -0.25 * c / cos_half ** 2)

        def ordered(t):
            return -math.pi < t[0] and t[-1] < math.pi and bool(np.all(np.diff(t) > 0.0))

        return field, ordered, lambda t: weight.a * np.tan(t / 2.0)
    if isinstance(weight, CircleWeight):
        b, m = weight.b, n - 1

        def field(t):
            cos, sin = np.cos(t), np.sin(t)
            # 1 - 2b cos t + b^2, free of cancellation next to the charge
            den = ((1.0 - b) ** 2 + 4.0 * b * np.sin(t / 2.0) ** 2 if b >= 0.0
                   else (1.0 + b) ** 2 - 4.0 * b * np.cos(t / 2.0) ** 2)
            return (-0.5 * m * np.log(den), -m * b * sin / den,
                    -m * b * (cos * den - 2.0 * b * sin * sin) / den ** 2)

        def ordered(t):
            return t[-1] - t[0] < TWO_PI and bool(np.all(np.diff(t) > 0.0))

        return field, ordered, lambda t: _gauge_circle(b, t)
    raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")


def _angle_objective(t: np.ndarray, field) -> float:
    chords = 2.0 * np.abs(np.sin(_pair_differences(t) / 2.0))
    return float(np.sum(np.log(chords)) + np.sum(field(t)[0]))


def _angle_derivatives(t: np.ndarray, field):
    """Gradient, the summed sizes of its terms and the negated Hessian.  The
    chord part contributes (1/2) cot(d/2), of size 1/chord = (1/2) csc(d/2),
    to the gradient and the Laplacian with weights (1/4) csc^2(d/2) to the
    negated Hessian."""
    half = (t[:, None] - t[None, :]) / 2.0
    np.fill_diagonal(half, math.pi / 2.0)  # cot = 0, csc^2 = 1 placeholders
    sin_half = np.sin(half)
    inv_chord = 0.5 / sin_half  # 1/chord, up to sign
    np.fill_diagonal(inv_chord, 0.0)
    neg_h = -inv_chord * inv_chord
    _, d1, d2 = field(t)
    np.fill_diagonal(neg_h, -np.sum(neg_h, axis=1) - d2)
    g = np.sum(inv_chord * np.cos(half), axis=1) + d1
    return g, np.sum(np.abs(inv_chord), axis=1) + np.abs(d1), neg_h


def _newton(t: np.ndarray, field, ordered, max_iters: int):
    """Damped Newton ascent from the ordered angles t (see module docstring);
    returns the final angles, the Newton steps and the backtracks."""
    f = _angle_objective(t, field)
    steps = backtracks = 0
    while steps < max_iters:
        g, scale, neg_h = _angle_derivatives(t, field)
        if np.max(np.abs(g) / scale) <= 1e-13:
            break
        lam, vec = np.linalg.eigh(neg_h)
        lam = np.abs(lam)
        keep = lam > 1e-10 * np.max(lam)
        vec = vec[:, keep]
        p = vec @ ((vec.T @ g) / lam[keep])
        slope = float(g @ p)
        if slope <= 1e-15 * (1.0 + abs(f) + np.max(np.abs(t)) * np.sum(scale)):
            if ordered(t + p):
                t = t + p
                steps += 1
            break
        step = 1.0
        for _ in range(60):
            cand = t + step * p
            if ordered(cand):
                f_cand = _angle_objective(cand, field)
                if f_cand > f + 1e-4 * step * slope:
                    break
            step *= 0.5
            backtracks += 1
        else:
            break  # no ascent along p: stalled
        t, f = cand, f_cand
        steps += 1
    return t, steps, backtracks


def _initial_angles(n: int, start: int, rng, ordered, spin: bool) -> np.ndarray:
    """Equispaced angles in (-pi, pi); starts after the first get seeded
    perturbations of 0.2/n and, on the circle (spin), a random rotation."""
    t = (2.0 * np.arange(n) + 1.0 - n) * math.pi / n
    if start == 0:
        return t
    if spin:
        t = t + rng.uniform(0.0, TWO_PI)
    while True:
        cand = np.sort(t + rng.normal(0.0, 0.2 / n, n))
        if ordered(cand):
            return cand


def _gauge_circle(b: float, t: np.ndarray) -> np.ndarray:
    """Rotate in preimage space so the first preimage angle is 0, then report
    sorted angles in [0, 2 pi)."""
    pre = np.sort(np.mod(np.angle(mobius(b, np.exp(1j * t))), TWO_PI))
    gauged = mobius(b, np.exp(1j * (pre - pre[0])))
    return np.sort(np.mod(np.angle(gauged), TWO_PI))


def optimize(weight, n: int, cfg: OptimizerConfig | None = None) -> FeketeResult:
    """Numerically maximize the weighted Vandermonde for n points.

    Deterministic given cfg.seed.  Returns the best of cfg.starts runs; a
    result whose scaled residual exceeds RESIDUAL_TOL is reported through
    converged=False with the best iterate kept, never silently.  grad_norm is
    max |g_k| in the command's coordinates.
    """
    if int(n) != n or n < 2:
        raise InvalidInputError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    if cfg is None:
        cfg = OptimizerConfig()
    field, ordered, to_points = _angle_problem(weight, n)

    rng = np.random.default_rng(cfg.seed)
    best = None
    for start in range(cfg.starts):
        t0 = _initial_angles(n, start, rng, ordered, isinstance(weight, CircleWeight))
        t, steps, backtracks = _newton(t0, field, ordered, cfg.max_iters)
        x = to_points(t)
        f = log_weighted_vandermonde(x, weight)
        log.debug("start %d: objective %.15g after %d+%d iterations",
                  start, f, steps, backtracks)
        if best is None or f > best[0]:
            best = (f, x, steps)

    f, x, steps = best
    g, scale = _gradient(x, weight, with_scale=True)
    log_diameter = 2.0 * f / (n * (n - 1))
    return FeketeResult(
        points=tuple(float(v) for v in x),
        log_diameter=log_diameter,
        energy=-log_diameter,
        grad_norm=float(np.max(np.abs(g))),
        iterations=steps,
        converged=float(np.max(np.abs(g) / scale)) <= RESIDUAL_TOL,
    )
