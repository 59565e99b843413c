"""Discrete weighted energy, stationarity gradients, and a local optimizer.

This is the generic numerical route to weighted Fekete points, independent of
the closed forms: maximize the log weighted Vandermonde

    sum_{j<k} log|z_j - z_k| + (n-1) sum_k log w(z_k)

over point configurations on the line (coordinates) or on the unit circle
(angles).  The optimizer is multistart projected gradient ascent with
Barzilai-Borwein step sizes, a backtracking line search guarded against point
collisions, and a final Newton polish on the stationarity system.  All
evaluations are pure; each start owns its state, and the multistart reduction
is a deterministic max (ties resolved toward the lower start index).

The stationarity residual on the line is

    g_k = sum_{j != k} 2/(x_k - x_j) - 2 s (n-1) x_k / (x_k^2 + a^2),

i.e. the gradient of the unnormalized objective
sum_{j<k} log (x_j - x_k)^2 - s(n-1) sum_k log(x_k^2 + a^2); the circle
variant differentiates the analogous objective with respect to the angles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, CircleWeight, mobius
from .errors import DegenerateInputError, InvalidInputError
from .real_line import RealWeight, support_radius

__all__ = [
    "FeketeResult",
    "OptimizerConfig",
    "log_weighted_vandermonde",
    "numeric_diameter",
    "discrete_energy",
    "energy_gradient",
    "optimize",
    "sine_product",
    "sine_product_bound",
]

log = logging.getLogger(__name__)

_MIN_GAP = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings; `box` bounds line coordinates to [-box, box].

    A finite box is mandatory for the s = 1 line weight (the maximizer family
    reaches toward infinity as the free phase approaches its boundary); when
    left unset it defaults to 50 a.
    """

    starts: int = 8
    max_iters: int = 2000
    grad_tol: float = 1e-9
    seed: int = 0
    box: float | None = None

    def __post_init__(self):
        if self.starts < 1:
            raise InvalidInputError("starts must be >= 1")
        if self.grad_tol <= 0:
            raise InvalidInputError("grad_tol must be positive")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        if self.box is not None and not self.box > 0:
            raise InvalidInputError("box must be positive when given")


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


def _pair_differences(x: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(x.size, 1)
    return (x[:, None] - x[None, :])[iu]


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


def energy_gradient(points, weight) -> np.ndarray:
    """Stationarity residual of the configuration (see module docstring).

    Vanishes exactly at weighted Fekete configurations; coincident points are
    a hard error here because the residual is undefined.
    """
    x = _as_points(points)
    n = x.size
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    if isinstance(weight, RealWeight):
        if np.any(d == 0.0):
            raise DegenerateInputError("coincident points: gradient undefined")
        return np.sum(2.0 / d, axis=1) - 2.0 * weight.s * (n - 1) * x / (
            x * x + weight.a * weight.a
        )
    if isinstance(weight, CircleWeight):
        half = d / 2.0
        np.fill_diagonal(half, math.pi / 2.0)  # cot(pi/2) = 0 placeholder
        sin_half = np.sin(half)
        if np.any(sin_half == 0.0):
            raise DegenerateInputError("coincident angles: gradient undefined")
        cot = np.cos(half) / sin_half
        np.fill_diagonal(cot, 0.0)
        den = 1.0 - 2.0 * weight.b * np.cos(x) + weight.b * weight.b
        return np.sum(cot, axis=1) - 2.0 * (n - 1) * weight.b * np.sin(x) / den
    raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")


def _hessian(x: np.ndarray, weight) -> np.ndarray:
    n = x.size
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    if isinstance(weight, RealWeight):
        h = 2.0 / d ** 2
        a2 = weight.a * weight.a
        diag = -np.sum(h, axis=1) - 2.0 * weight.s * (n - 1) * (a2 - x * x) / (
            x * x + a2
        ) ** 2
    else:
        half = d / 2.0
        np.fill_diagonal(half, math.pi / 2.0)
        h = 0.5 / np.sin(half) ** 2
        np.fill_diagonal(h, 0.0)
        b = weight.b
        den = 1.0 - 2.0 * b * np.cos(x) + b * b
        diag = -np.sum(h, axis=1) - 2.0 * (n - 1) * b * (
            np.cos(x) * den - 2.0 * b * np.sin(x) ** 2
        ) / den ** 2
    np.fill_diagonal(h, diag)
    return h


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


def _min_gap_line(x: np.ndarray) -> float:
    xs = np.sort(x)
    return float(np.min(np.diff(xs))) if xs.size > 1 else math.inf


def _min_gap_circle(t: np.ndarray) -> float:
    ts = np.sort(np.mod(t, TWO_PI))
    gaps = np.diff(ts)
    wrap = ts[0] + TWO_PI - ts[-1]
    inner = float(np.min(gaps)) if gaps.size else wrap
    return min(inner, float(wrap))


def _initial_points(weight, n, start, rng, box):
    """Scaled Chebyshev nodes (line) or equispaced angles (circle); starts
    after the first are randomly perturbed."""
    if isinstance(weight, RealWeight):
        if weight.s > 1.0:
            radius = support_radius(weight.a, weight.s)
        else:
            radius = weight.a * math.tan(math.pi / 2.0 - math.pi / (2.0 * n))
        if box is not None:
            radius = min(radius, 0.95 * box)
        x = radius * np.cos((2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n))[::-1]
        if start > 0:
            while True:
                cand = np.sort(x + rng.normal(0.0, 0.05 * radius / n, n))
                if _min_gap_line(cand) > 1e-6 * radius / n:
                    return cand
        return x
    t = TWO_PI * np.arange(n) / n
    if start > 0:
        while True:
            cand = t + rng.uniform(0.0, TWO_PI) + rng.normal(0.0, 0.2 / n, n)
            if _min_gap_circle(cand) > 1e-6 / n:
                return cand
    return t


def _ascent(objective, gradient, min_gap, project, x, max_iters, grad_tol):
    """Gradient ascent with Barzilai-Borwein steps and backtracking."""
    f = objective(x)
    eta = 1e-3
    x_prev = g_prev = None
    iters = 0
    while iters < max_iters:
        g = gradient(x)
        if np.max(np.abs(g)) <= grad_tol:
            break
        if x_prev is not None:
            dx = x - x_prev
            dg = g - g_prev
            denom = float(np.dot(dx, dg))
            if abs(denom) > 1e-300:
                eta = abs(float(np.dot(dx, dx)) / denom)
            eta = min(max(eta, 1e-12), 1e4)
        x_prev, g_prev = x, g
        accepted = None
        while eta >= 1e-16:
            cand = project(x + eta * g)
            if min_gap(cand) > _MIN_GAP and objective(cand) > f - 1e-9 * (1.0 + abs(f)):
                accepted = cand
                break
            eta *= 0.5
        if accepted is None:
            break  # line search stalled; leave refinement to the polish stage
        x = accepted
        f = objective(x)
        iters += 1
    return x, iters


def _newton_polish(objective, gradient, hessian, min_gap, project, x, grad_tol,
                   max_polish=60):
    """Refine a near-stationary configuration by damped Newton steps on the
    residual; least-squares solves tolerate the flat directions of the s = 1
    and circle gauge freedoms."""
    f = objective(x)
    iters = 0
    for _ in range(max_polish):
        g = gradient(x)
        if np.max(np.abs(g)) <= grad_tol:
            break
        step = np.linalg.lstsq(hessian(x), -g, rcond=None)[0]
        if float(np.dot(step, g)) <= 0.0:
            step = 1e-3 * g
        t = 1.0
        accepted = None
        while t > 1e-14:
            cand = project(x + t * step)
            if min_gap(cand) > _MIN_GAP and objective(cand) >= f - 1e-12 * (1.0 + abs(f)):
                accepted = cand
                break
            t *= 0.5
        if accepted is None:
            break
        x = accepted
        f = objective(x)
        iters += 1
    return x, iters


def _gauge_circle(b: float, t: np.ndarray) -> np.ndarray:
    """Rotate in preimage space so the first preimage angle is 0, then report
    sorted angles in [0, 2 pi)."""
    pre = np.sort(np.mod(np.angle(mobius(b, np.exp(1j * t))), TWO_PI))
    gauged = mobius(b, np.exp(1j * (pre - pre[0])))
    return np.sort(np.mod(np.angle(gauged), TWO_PI))


def optimize(weight, n: int, cfg: OptimizerConfig | None = None) -> FeketeResult:
    """Numerically maximize the weighted Vandermonde for n points.

    Deterministic given cfg.seed.  Returns the best of cfg.starts runs; a run
    that fails to push the stationarity residual below cfg.grad_tol is
    reported through converged=False with the best iterate kept, never
    silently.
    """
    if int(n) != n or n < 2:
        raise InvalidInputError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    if cfg is None:
        cfg = OptimizerConfig()

    box = cfg.box
    is_line = isinstance(weight, RealWeight)
    if is_line and weight.s == 1.0 and box is None:
        box = 50.0 * weight.a
    if is_line:
        min_gap = _min_gap_line
        project = (lambda x: np.clip(x, -box, box)) if box is not None else (lambda x: x)
    elif isinstance(weight, CircleWeight):
        min_gap = _min_gap_circle
        project = lambda x: x
    else:
        raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")

    objective = lambda x: log_weighted_vandermonde(x, weight)
    gradient = lambda x: energy_gradient(x, weight)
    hessian = lambda x: _hessian(x, weight)

    rng = np.random.default_rng(cfg.seed)
    best = None
    for start in range(cfg.starts):
        x0 = _initial_points(weight, n, start, rng, box)
        x, it_a = _ascent(objective, gradient, min_gap, project, x0,
                          cfg.max_iters, cfg.grad_tol)
        x, it_p = _newton_polish(objective, gradient, hessian, min_gap, project,
                                 x, min(cfg.grad_tol, 1e-11))
        f = objective(x)
        log.debug("start %d: objective %.15g after %d+%d iterations", start, f, it_a, it_p)
        if best is None or f > best[0]:
            best = (f, x, it_a + it_p)

    f, x, iters = best
    if is_line:
        x = np.sort(x)
    else:
        x = _gauge_circle(weight.b, x)
        f = objective(x)
    grad_norm = float(np.max(np.abs(energy_gradient(x, weight))))
    log_diameter = 2.0 * f / (n * (n - 1))
    return FeketeResult(
        points=tuple(float(v) for v in x),
        log_diameter=log_diameter,
        energy=-log_diameter,
        grad_norm=grad_norm,
        iterations=iters,
        converged=grad_norm <= cfg.grad_tol,
    )
