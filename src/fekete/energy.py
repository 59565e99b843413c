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

    sum_{j<k} log|2 sin((theta_k - theta_j)/2)| + sum_k phi(theta_k)

with phi = (n-1)(s-1) log(2 cos(theta/2)); on the circle phi = (n-1) log w in
its own angles.  Each stage runs damped Newton ascent, a modified Newton
method (Nocedal & Wright, Numerical Optimization, sec. 3.4).  Where the
negated Hessian has a Cholesky factor whose smallest pivot squared exceeds
1e-10 of its largest diagonal entry (the pivot guard), the step is the
plain Newton step.  Otherwise it comes from the eigendecomposition with
|lambda| for each eigenvalue, dropping |lambda| <= 1e-10 max|lambda| (the
s = 1 rotation, the free Moebius rotation).  The guard is needed on the
circle, whose objective is unchanged along the Moebius-conjugated rotation
(the gauge orbit): next to every stationary point the matrix is nearly
singular along it, and a plain Newton step there stalls.  On the line the
matrix is bounded below by (n-1)(s-1)/4 and every step takes the Cholesky
path; on the circle the eigen path serves the steps where it is indefinite
or nearly singular.  The step backtracks to the Armijo condition (constant
1e-4) and is kept only if the points stay ordered.  A stage stops when its
angle-space scaled residual is <= 1e-13, or, after one last full step, when
g.p falls to the rounding level of the objective f, 1e-15 (1 + |f| +
max|theta| sum_k scale_k).

The path starts at the equispaced angles, exact for the line at s = 1 and
for the circle at b = 0 and b -> infinity; the line runs one stage.  From
there Newton stalls next to the circle's charge (|b| = 0.999, n = 240), so
the circle continues in the charge (Allgower & Georg, Introduction to
Numerical Continuation Methods): stages at sign(b) (1 - 2^-k), or its
reciprocal when |b| > 1, for k = 1, 2, ... while 1 - 2^-k < min(|b|, 1/|b|),
then at b, each from the angles of the last.  Nothing is drawn at random.

Every ordered stationary configuration is a global maximum, so the scaled
residual alone judges the answer.  On the line, with -pi < theta_1 < ... <
theta_n < pi, each pair difference lies in (0, 2 pi), where log sin(d/2) is
strictly concave, and log cos(theta/2) is concave on (-pi, pi): the objective
is concave, strictly for s > 1 and flat only along the common rotation at
s = 1.  On the circle the Moebius map carries the objective to the unweighted
one of the preimage angles plus a constant, concave in the same way in those
angles.  The optimizer works in the raw angles, where it is not: the
negated Hessian is indefinite on some steps next to the charge, and nearly
singular along the gauge orbit.  The result is converged when its
`scaled_residual` in the command's coordinates is <= RESIDUAL_TOL = 1e-10.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, CircleWeight, _sorted_angles, mobius
from .errors import DegenerateInputError, InvalidInputError, NumericalError, checked_n
from .real_line import RealWeight

__all__ = [
    "FeketeResult", "log_weighted_vandermonde", "numeric_diameter",
    "discrete_energy", "energy_gradient", "scaled_residual", "optimize",
    "sine_product", "sine_product_bound",
]

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10  # a result is converged when scaled_residual <= this
_MAX_NEWTON_STEPS = 200  # the Newton steps of each optimizer stage, at most
_BLOCK_ELEMENTS = 1 << 16  # entries per row block of the gradient (see energy_gradient)


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
    if isinstance(weight, RealWeight):
        gaps = np.abs(_pair_differences(x))
    elif isinstance(weight, CircleWeight):
        gaps = 2.0 * np.abs(np.sin(_pair_differences(x) / 2.0))
    else:
        raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")
    if np.any(gaps == 0.0):
        return -math.inf
    return float(np.sum(np.log(gaps)) + (x.size - 1) * np.sum(weight.log_w(x)))


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


def _row_blocks(x: np.ndarray, spare: bool = False):
    """The pair differences x_k - x_j in blocks of whole rows, at most
    _BLOCK_ELEMENTS entries each (at least one row): yields the row slice,
    the block, the index of its diagonal entries j = k and, if spare, a
    second block-shaped array (else None).  Every block is a view of one
    buffer, which the next block overwrites; the spare arrays likewise.  Both
    come from one allocation: as two, the heap top was given back and
    faulted in again on every call."""
    n = x.size
    rows = min(n, max(1, _BLOCK_ELEMENTS // n))
    buf = np.empty((2 if spare else 1, rows, n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        yield (slice(lo, hi), np.subtract(x[lo:hi, None], x[None, :], out=buf[0, :hi - lo]),
               diag, buf[1, :hi - lo] if spare else None)


def _line_pair_sums(d, diag, with_scale: bool, _spare):
    d[diag] = np.inf
    if np.any(d == 0.0):
        raise DegenerateInputError("coincident points: gradient undefined")
    pair = np.divide(2.0, d, out=d)
    g = np.sum(pair, axis=1)
    return g, np.sum(np.abs(pair, out=pair), axis=1) if with_scale else None


def _circle_pair_sums(d, diag, with_scale: bool, sin_out):
    half = np.multiply(d, 0.5, out=d)
    half[diag] = math.pi / 2.0  # cot(pi/2) ~ 0 and csc(pi/2) = 1 placeholders
    sin_half = np.sin(half, out=sin_out) if with_scale else None
    # tan(h) = 0 exactly where sin(h) = 0 for |h| < pi
    cot = np.tan(half, out=half)
    if np.any(cot == 0.0):
        raise DegenerateInputError("coincident angles: gradient undefined")
    np.divide(1.0, cot, out=cot)
    cot[diag] = 0.0
    if not with_scale:
        return np.sum(cot, axis=1), None
    csc = np.divide(1.0, np.abs(sin_half, out=sin_half), out=sin_half)
    csc[diag] = 0.0
    return np.sum(cot, axis=1), np.sum(csc, axis=1)


def _gradient(points, weight, with_scale: bool = False):
    """The stationarity residual g and, if with_scale, the sum of the sizes of
    the terms of each g_k.  Each term is twice the derivative of
    q log|z_k - c| for one charge c: another point (q = 1), or the weight's
    charge, ai of strength s(n-1) on the line or b of strength n-1 on the
    circle.  Its size is the modulus of that derivative in the complex plane,
    2q/|z_k - c|: csc((t_k - t_j)/2) for a pair of circle points.  A circle
    pair takes its cot as 1/tan of the half difference, one transcendental
    per pair, and the sine for its csc only when the scale is asked for, into
    a second block buffer allocated once per call.  The pair terms are
    summed over row blocks, each row in one pass as over the full matrix, so
    the bits are those of the n x n form."""
    x = _as_points(points)
    n = x.size
    if isinstance(weight, RealWeight):
        # 2s(n-1) x / (x^2 + a^2) with h = |x - ai|: x^2 + a^2 would
        # overflow or underflow at extreme x and a
        h = np.hypot(x, weight.a)
        field = 2.0 * weight.s * (n - 1) * (x / h) / h
        field_size = 2.0 * weight.s * (n - 1) / h if with_scale else None
        pair_sums, spare = _line_pair_sums, False
    elif isinstance(weight, CircleWeight):
        # den = |e^{ix} - b|^2 u^2: each term below carries one factor u back
        u = weight.unit
        den = weight.dist_sq(x)
        field = 2.0 * (n - 1) * (weight.b * u) * np.sin(x) / den * u
        field_size = 2.0 * (n - 1) / np.sqrt(den) * u if with_scale else None
        # the csc of the scale takes a sine per pair, into a spare block
        pair_sums, spare = _circle_pair_sums, with_scale
    else:
        raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")
    g = np.empty(n)
    scale = np.empty(n) if with_scale else None
    for rows, d, diag, spare_block in _row_blocks(x, spare):
        g[rows], block_scale = pair_sums(d, diag, with_scale, spare_block)
        if with_scale:
            scale[rows] = block_scale
    g -= field
    if not with_scale:
        return g
    return g, scale + field_size


def energy_gradient(points, weight) -> np.ndarray:
    """Stationarity residual g of the configuration (see module docstring):
    zero exactly at weighted Fekete sets; coincident points are an error.
    The pair terms are formed one row block of at most 2^16 entries
    (512 KiB) at a time in one buffer that every block reuses, so memory
    grows linearly in n, a block stays in a core's L2 cache across its
    passes, and no block is freshly mapped, zeroed and faulted in."""
    return _gradient(points, weight)


def scaled_residual(points, weight) -> float:
    """max_k |g_k| / (sum of the sizes of the terms of g_k) in the weight's own
    coordinates (see module docstring); meaningful also where symmetry zeroes
    every term, as for n = 2 circle points at 0 and pi.  Coincident points
    are an error."""
    g, scale = _gradient(points, weight, with_scale=True)
    return float(np.max(np.abs(g) / scale))


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
    diffs = (y[..., :, None] - y[..., None, :])[..., _upper_mask(y.shape[-1])]
    prod = np.prod(np.sin(diffs) ** 2, axis=-1)
    return float(prod) if y.ndim == 1 else prod


def sine_product_bound(n: int) -> float:
    """The sharp upper bound 2^(-n(n-1)) n^n for the sine product."""
    n = checked_n(n)
    return 2.0 ** (-n * (n - 1)) * float(n) ** n


def _angle_problem(weight, n: int):
    """The per-weight parts of the angle-space objective: the field (phi,
    phi', phi'' per angle), the order test and the map to the command's
    coordinates."""
    if isinstance(weight, RealWeight):
        # a numpy scalar, so that a c past the double range raises under
        # optimize's errstate before the first Newton step
        c = (n - 1) * np.float64(weight.s - 1.0)

        def field(t):
            cos_half = np.cos(t / 2.0)
            return (c * np.log(2.0 * cos_half), -0.5 * c * np.tan(t / 2.0),
                    -0.25 * c / cos_half ** 2)

        def ordered(t):
            return -math.pi < t[0] and t[-1] < math.pi and bool(np.all(np.diff(t) > 0.0))

        return field, ordered, lambda t: weight.a * np.tan(t / 2.0)
    if isinstance(weight, CircleWeight):
        # den = |e^{it} - b|^2 u^2 and c = bu: phi' and phi'' carry one factor u back
        b, m, u = weight.b, n - 1, weight.unit
        c, log_u = b * u, math.log(u)

        def field(t):
            cos, sin = np.cos(t), np.sin(t)
            den = weight.dist_sq(t)
            return (-0.5 * m * np.log(den) + m * log_u, -m * c * sin / den * u,
                    -m * c * (cos * den - 2.0 * c * u * sin * sin) / den ** 2 * u)

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


def _newton_step(neg_h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The modified Newton step for the negated Hessian neg_h and gradient g.

    Fast path: when the Cholesky factor L of neg_h exists and its smallest
    pivot passes min(diag L)^2 > 1e-10 max(diag neg_h), the plain step
    neg_h^-1 g.  Otherwise the eigen-step: |lambda| for each eigenvalue of
    neg_h, dropping |lambda| <= 1e-10 max|lambda|.

    The guard keeps nearly singular matrices, which Cholesky would accept,
    on the eigen path.  Each pivot squared is a Schur complement, at least
    lambda_min, so every matrix whose eigenvalues all lie above the cut
    passes it, and there the two steps agree up to rounding.  Conversely the
    last pivot is L_nn^2 = 1/(neg_h^-1)_nn <= lambda_i / (v_i)_n^2 for every
    eigenpair: a small eigenvalue fails the guard unless its eigenvector
    nearly vanishes in the last angle.  The circle's gauge orbit (see module
    docstring) moves every angle, so its near-null direction is caught.
    """
    try:
        pivots = np.diagonal(np.linalg.cholesky(neg_h))
    except np.linalg.LinAlgError:
        pass
    else:
        if np.min(pivots) ** 2 > 1e-10 * np.max(np.diagonal(neg_h)):
            return np.linalg.solve(neg_h, g)
    lam, vec = np.linalg.eigh(neg_h)
    lam = np.abs(lam)
    keep = lam > 1e-10 * np.max(lam)
    vec = vec[:, keep]
    return vec @ ((vec.T @ g) / lam[keep])


def _newton(t: np.ndarray, field, ordered):
    """Damped Newton ascent from the ordered angles t (see module docstring);
    returns the final angles, their objective (before a last full step, which
    gains less than its rounding), the Newton steps and the backtracks."""
    f = _angle_objective(t, field)
    steps = backtracks = 0
    while steps < _MAX_NEWTON_STEPS:
        g, scale, neg_h = _angle_derivatives(t, field)
        if np.max(np.abs(g) / scale) <= 1e-13:
            break
        p = _newton_step(neg_h, g)
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
    return t, f, steps, backtracks


def _gauge_circle(b: float, t: np.ndarray) -> np.ndarray:
    """Rotate in preimage space so the first preimage angle is 0, then report
    sorted angles in [0, 2 pi)."""
    pre, _ = _sorted_angles(mobius(b, np.exp(1j * t)))
    return _sorted_angles(mobius(b, np.exp(1j * (pre - pre[0]))))[0]


def _continuation(b: float) -> list[float]:
    """The charges of the circle's stages before the one at b (see module
    docstring); none when min(|b|, 1/|b|) <= 1/2."""
    rho = min(abs(b), 1.0 / abs(b)) if b else 0.0
    charges = []
    k = 1
    while 1.0 - 2.0 ** -k < rho:
        c = math.copysign(1.0 - 2.0 ** -k, b)
        charges.append(c if abs(b) < 1.0 else 1.0 / c)
        k += 1
    return charges


def optimize(weight, n: int) -> FeketeResult:
    """Numerically maximize the weighted Vandermonde for n points.

    Runs the stages of the module docstring, each for at most
    _MAX_NEWTON_STEPS = 200 Newton steps; iterations is their sum.  A result whose
    scaled residual in the command's coordinates exceeds RESIDUAL_TOL still
    comes back, with converged=False; NumericalError if its points coincide
    in double precision.  grad_norm is max |g_k| in those coordinates.

    A numpy overflow raises here: where the objective of the weight leaves
    the double range at this n (the largest s, or an extreme a with a large
    s), InvalidInputError comes instead of a warning.  Only overflow is
    mapped so; an invalid value or a division by zero warns as before.
    """
    n = checked_n(n)
    stages = [weight]
    if isinstance(weight, CircleWeight):
        stages = [CircleWeight(c) for c in _continuation(weight.b)] + stages

    t = (2.0 * np.arange(n) + 1.0 - n) * math.pi / n
    iterations = 0
    try:
        with np.errstate(over="raise"):
            for stage, stage_weight in enumerate(stages):
                field, ordered, to_points = _angle_problem(stage_weight, n)
                t, f, steps, backtracks = _newton(t, field, ordered)
                # the benchmark tracer parses this record, "start" wording and all
                log.debug("start %d: objective %.15g after %d+%d iterations",
                          stage, f, steps, backtracks)
                iterations += steps

            x = to_points(t)
            try:
                g, scale = _gradient(x, weight, with_scale=True)
            except DegenerateInputError:
                raise NumericalError(f"the {n} optimized points for {weight!r} coincide in "
                                     "double precision: gradient undefined") from None
            log_diameter = 2.0 * log_weighted_vandermonde(x, weight) / (n * (n - 1))
            converged = float(np.max(np.abs(g) / scale)) <= RESIDUAL_TOL
    except FloatingPointError:
        raise InvalidInputError(f"the objective of {weight!r} at n = {n} leaves the "
                                "double range") from None
    return FeketeResult(
        points=tuple(float(v) for v in x),
        log_diameter=log_diameter,
        energy=-log_diameter,
        grad_norm=float(np.max(np.abs(g))),
        iterations=iterations,
        converged=converged,
    )
