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
`scaled_residual` divides each |g_k| by the sum of the sizes of its terms,
one per charge q at c (the other points and the weight's charge): 2q/|z_k - c|
for a pair and for the circle's charge, and its own modulus
2s(n-1)|x_k|/(x_k^2 + a^2) for the line weight's term.  It reads 0 at a
Fekete set, at most 1, and is unchanged by scaling the problem.  The log
weighted Vandermonde, which gives the optimizer's diameter, and this gate
walk the point pairs in the same upper strips of at most 2^16 entries, in
memory linear in n.

The optimizer works in angles for both weights: x = a tan(theta/2) maps the
line onto theta in (-pi, pi), where the objective becomes, up to a constant,

    sum_{j<k} log|2 sin((theta_k - theta_j)/2)| + sum_k phi(theta_k)

with phi = -((n-1)(s-1)/2) log1p(tan^2(theta/2)), written in tan(theta/2)
alone so that it keeps its digits at |theta| ~ 2/sqrt(s), where a large s
puts the points.  On the circle |e^{it} - b| = |b| |e^{it} - 1/b| and
w_{-b}(t) = w_b(t + pi): b and 1/b have the same Fekete sets, and those of
-b are those of b turned by a half-turn.  So the optimizer works at the
charge c = min(|b|, 1/|b|) in [0, 1) (0 at b = 0), with phi = (n-1) log w_c,
and negates the points e^{it} for b < 0.  Both weights are even under
theta -> -theta, and the optimizer keeps the angles reflection-symmetric:
it moves the m = n // 2 positive angles u of theta = (-u reversed, [0 at
odd n], u), and each stage of it maximizes
the objective of those n angles as a function of u.  By the principle of
symmetric criticality (Palais 1979) a stationary point in u is stationary
in all n angles, which the final residual checks.  Each stage runs damped
Newton ascent, a modified Newton method (Nocedal & Wright, Numerical
Optimization, sec. 3.4), on the m x m folded negated Hessian M = (Q^T N Q)/2,
N that of the n angles and Q the map u -> theta.  The step is the plain
Newton step M^-1 g where it climbs, g.p > 0, as wherever M is positive
definite; otherwise, or where M is singular, it is g scaled by 1/|diag M|,
which for a 1 x 1 M is the eigen-step g/|lambda|.  In all n angles the
circle's objective is unchanged along the Moebius-conjugated rotation (the
gauge orbit), and on the line at s = 1 along the common rotation; both
tangents are odd under the reflection, so the fold removes them.  On the
line M is bounded below by (n-1)(s-1)/4 and positive definite even at
s = 1, so every step is the Newton step; on the circle the steps that are
not come next to the charge, and on every grid tried they were 1 x 1
(n = 2, 3) with M < 0.  The step backtracks to the Armijo condition
(constant 1e-4) and is kept only if 0 < u_1 < ... < u_m < pi.  A stage
stops when its scaled residual in the angles u is <= 1e-13, or, after one
last full step, when the slope 2 g.p falls to the rounding level of the
objective f, 1e-15 (1 + |f| + max|theta| sum_k scale_k), the sum over all
n angles.

The path starts at the equispaced angles, exact for the line at s = 1 and
for the circle at c = 0; the line runs one stage.  From there Newton stalls
next to the circle's charge (c = 0.999, n = 240), so the circle continues in
the charge (Allgower & Georg, Introduction to Numerical Continuation
Methods): stages at each 1 - 2^-k < c, k = 1, 2, ..., then at c, each from
the angles of the last.  Nothing is drawn at random.

Every ordered stationary configuration is a global maximum, so the scaled
residual alone judges the answer.  On the line, with -pi < theta_1 < ... <
theta_n < pi, each pair difference lies in (0, 2 pi), where log sin(d/2) is
strictly concave, and log cos(theta/2) is concave on (-pi, pi): the objective
is concave, strictly for s > 1 and flat only along the common rotation at
s = 1.  On the circle the Moebius map carries the objective to the unweighted
one of the preimage angles plus a constant, concave in the same way in those
angles.  The optimizer works in the raw angles, where it is not: the
folded negated Hessian is not positive definite on some steps next to the
charge.  The result is converged when its `scaled_residual` in the
command's coordinates is <= RESIDUAL_TOL = 1e-10.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleWeight, _sorted_angles, mobius
from .errors import DegenerateInputError, InvalidInputError, NumericalError, checked_n
from .real_line import RealWeight

__all__ = [
    "FeketeResult", "log_weighted_vandermonde", "energy_gradient", "scaled_residual", "optimize",
]

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10  # a result is converged when scaled_residual <= this
_MAX_NEWTON_STEPS = 200  # the Newton steps of each optimizer stage, at most
_BLOCK_ELEMENTS = 1 << 16  # entries per upper strip of the pair sums (see _upper_strips)


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


def _upper_strips(x: np.ndarray):
    """The pair differences x_k - x_j in upper strips: a strip holds the rows
    lo <= k < hi against the columns j >= lo only, h = hi - lo rows of
    w = n - lo entries, h = min(w, max(1, _BLOCK_ELEMENTS // w)), so at most
    _BLOCK_ELEMENTS entries (at least one row), the strips growing taller as
    they narrow.  Its first h columns are the diagonal square, which holds
    the pairs of its rows both ways and the diagonal j = k; the columns
    right of it hold each pair k < j with j >= hi once.  Where n^2 <=
    _BLOCK_ELEMENTS the one strip is the n x n square.  Yields lo and the
    strip, which a kernel overwrites: with each pair's log chord (see
    log_weighted_vandermonde), or with its gradient term, then that term's
    size, the modulus of the complex term (see _gradient).  A strip is filled by
    copying x[lo:] into each row and subtracting it in place from x_k: two
    contiguous passes, which numpy runs faster than one subtract of two
    broadcast operands.  Every strip is a view of one buffer, which the
    next strip overwrites."""
    n = x.size
    buf = np.empty(min(n * n, max(_BLOCK_ELEMENTS, n)))
    lo = 0
    while lo < n:
        w = n - lo
        h = min(w, max(1, _BLOCK_ELEMENTS // w))
        d = buf[:h * w].reshape(h, w)
        np.copyto(d, x[lo:])
        yield lo, np.subtract(x[lo:lo + h, None], d, out=d)
        lo += h


def _diagonal(strip: np.ndarray) -> np.ndarray:
    """The entries (k, k) of an h x w strip, h <= w, as a writable view."""
    return strip.reshape(-1)[::strip.shape[1] + 1]


def _coincident(x: np.ndarray) -> bool:
    """Whether two of the coordinates the strips are filled from coincide: a
    zero difference of neighbours in sorted order, that is equal finite
    neighbours (inf - inf is NaN), exactly where a pair's difference in a
    strip, and so its chord and its tangent, is 0."""
    s = np.sort(x)
    equal = s[1:] == s[:-1]
    return bool(equal.any()) and bool(np.isfinite(s[1:][equal]).any())


def log_weighted_vandermonde(points, weight) -> float:
    """log of prod_{j<k} |z_j - z_k| w(z_j) w(z_k).

    Line weights take coordinates, circle weights take angles of e^{it}.
    Coincident points yield -inf (a degenerate configuration, not an error).
    The log chords, log|x_k - x_j| on the line and log|2 sin(t_k/2 - t_j/2)|
    on the circle, are summed over the gate's upper strips (see
    _upper_strips): those right of a strip's diagonal square once, plus
    half the square's sum with its diagonal at chord 1.  The square holds
    each pair both ways with the same bits, since subtraction and numpy's
    sin are odd, and halving the circle's angles is exact where the gate's
    is (see _gradient).
    """
    x = _as_points(points)
    if not isinstance(weight, (RealWeight, CircleWeight)):
        raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")
    circle = isinstance(weight, CircleWeight)
    block_x = x / 2.0 if circle else x
    if _coincident(block_x):
        return -math.inf
    chords = 0.0
    for _, d in _upper_strips(block_x):
        h = d.shape[0]
        if circle:
            np.sin(d, out=d)
            d *= 2.0
        chord = np.abs(d, out=d)
        _diagonal(chord)[...] = 1.0
        logs = np.log(chord, out=chord)
        square = 0.5 * logs[:, :h].sum()
        chords += logs[:, h:].sum() + square if h < logs.shape[1] else square
    return float(chords + (x.size - 1) * np.sum(weight.log_w(x)))


def _add_strip(out: np.ndarray, strip: np.ndarray, mirror) -> None:
    """Adds the row sums of an h-row strip to out[:h], its own rows, and
    mirror(out[h:], the column sums of its entries right of the diagonal
    square) to out[h:], the later rows: np.subtract for a term odd in the
    pair, np.add for a size, which is even."""
    h = strip.shape[0]
    out[:h] += strip.sum(axis=1)
    if h < strip.shape[1]:
        mirror(out[h:], strip[:, h:].sum(axis=0), out=out[h:])


def _line_strip(d, g, scale):
    """2/d into g and, if asked, its size |2/d + 0i| into the scale."""
    _diagonal(d)[...] = np.inf
    pair = np.divide(2.0, d, out=d)
    _add_strip(g, pair, np.subtract)
    if scale is not None:
        _add_strip(scale, np.abs(pair, out=pair), np.add)


def _circle_strip(half, g, scale):
    """cot h into g and, if asked, its size |cot h + i| = hypot(1, cot h),
    within 3 ulps of 1/|sin h|, into the scale; 0 on the diagonal."""
    _diagonal(half)[...] = math.pi / 2.0  # a finite tan placeholder
    cot = np.divide(1.0, np.tan(half, out=half), out=half)
    _diagonal(cot)[...] = 0.0
    _add_strip(g, cot, np.subtract)
    if scale is not None:
        size = np.hypot(1.0, cot, out=cot)
        _diagonal(size)[...] = 0.0
        _add_strip(scale, size, np.add)


def _gradient(points, weight, with_scale: bool = False):
    """The stationarity residual g and, if with_scale, the sum of the sizes of
    the terms of each g_k.  Each term is twice the derivative of
    q log|z_k - c| for one charge c: another point (q = 1), or the weight's
    charge, ai of strength s(n-1) on the line or b of strength n-1 on the
    circle.  Its size is the modulus of that derivative in the complex plane,
    2q/|z_k - c|.  A pair's derivative is its term plus i times 0 on the line
    and 1 on the circle: 2/(x_k - x_j), of size |2/(x_k - x_j)|, and
    cot h + i, h = (t_k - t_j)/2, of size hypot(1, cot h) = |csc h|, within
    3 ulps of 1/|sin h| and formed in place from the term with no sine.  The
    line weight's term is the real part of such a derivative, smaller than
    its modulus 2s(n-1)/|x_k - ai| by |x_k|/|x_k - ai|, and takes its own
    modulus as its size: the larger one would hide the error of points at
    |x_k| << a, where a large s puts them.  The circle's strips hold the
    half differences as t_k/2 - t_j/2, with no halving pass over them:
    halving is exact for t = 0 and |t| in [2^-1021, 2^1023), so the
    difference of two halves rounds as (t_k - t_j)/2 does, bit for bit.

    Coincident points are found before any pair term is formed, as a zero
    difference of neighbours in the sorted coordinates the strips are filled
    from (x, or t/2 on the circle; see _coincident): exactly where a pair's
    difference, and so its tangent, is 0.

    The pair terms are summed over upper strips (see _upper_strips).  A pair
    term, 2/(x_k - x_j) or cot((t_k - t_j)/2), is odd in the pair and its
    size is even, so each pair k < j right of a diagonal square is formed
    once: its strip's row sums go to its rows, and the column sums of its
    part right of the diagonal square are subtracted from g and added to
    the scale of the later rows.  So g_k is 0, minus the column sums of the
    strips above row k one strip after another (each the sum of that
    strip's rows in order), plus the sum of its own strip's row (one
    pairwise pass, as over a full row), minus the weight's term.  Where
    n^2 <= _BLOCK_ELEMENTS = 2^16 (n <= 256) the one strip is the n x n
    square, and g and the scale have the bits of the n x n form.  Beyond
    it each pair term keeps its rounded value (negation, subtraction and
    numpy's tan are odd), and only the order of the sum changes: g_k sums
    n + 2 rounded numbers (n - 1 pair terms, two zeros and the weight's
    term) in n + 1 additions, and any order of them errs by at most
    gamma_{n+1} = (n+1)u / (1 - (n+1)u), u = 2^-53, times the sum of their
    moduli (Higham, Accuracy and Stability of Numerical Algorithms, sec.
    4.2), at most the scale."""
    x = _as_points(points)
    n = x.size
    if isinstance(weight, RealWeight):
        # 2s(n-1) x / (x^2 + a^2) with h = |x - ai|: x^2 + a^2 would
        # overflow or underflow at extreme x and a
        h = np.hypot(x, weight.a)
        field = 2.0 * weight.s * (n - 1) * (x / h) / h
        field_size = np.abs(field) if with_scale else None
        strip_sums, block_x, what = _line_strip, x, "points"
    elif isinstance(weight, CircleWeight):
        # den = |e^{ix} - b|^2 u^2: each term below carries one factor u back
        u = weight.unit
        den = weight.dist_sq(x)
        field = 2.0 * (n - 1) * (weight.b * u) * np.sin(x) / den * u
        field_size = 2.0 * (n - 1) / np.sqrt(den) * u if with_scale else None
        # the strips hold the half differences t_k/2 - t_j/2
        strip_sums, block_x, what = _circle_strip, x / 2.0, "angles"
    else:
        raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")
    if _coincident(block_x):
        raise DegenerateInputError(f"coincident {what}: gradient undefined")
    g = np.zeros(n)
    scale = np.zeros(n) if with_scale else None
    for lo, d in _upper_strips(block_x):
        strip_sums(d, g[lo:], scale[lo:] if with_scale else None)
    g -= field
    if not with_scale:
        return g
    return g, scale + field_size


def energy_gradient(points, weight) -> np.ndarray:
    """Stationarity residual g of the configuration (see module docstring):
    zero exactly at weighted Fekete sets; coincident points are an error.
    Each pair term is formed once, in an upper strip of at most 2^16
    entries (512 KiB) that holds some rows against the later columns; its
    column sums give the later rows their terms, which are the same numbers
    with the sign flipped.  Every strip reuses one buffer, so memory grows
    linearly in n, a strip stays in a core's L2 cache across its passes,
    and no strip is freshly mapped, zeroed and faulted in.  For n <= 256
    the one strip is the n x n square, and g has the bits of the n x n
    form; beyond it only the order of each row's sum differs, and g_k errs
    by at most (n+1) 2^-53 (to first order) times its scale, which sizes a
    pair by the modulus of its complex term, 2/(x_k - x_j) or cot h + i
    (see _gradient).  Circle strips are filled from the halved angles, at
    no pass of their own, and keep the n x n form's bits for angles 0 and
    |t| in [2^-1021, 2^1023), where halving is exact."""
    return _gradient(points, weight)


def scaled_residual(points, weight) -> float:
    """max_k |g_k| / (sum of the sizes of the terms of g_k) in the weight's own
    coordinates, each term sized as in the module docstring (the line
    weight's term by its own modulus); meaningful also where symmetry zeroes
    every term, as for n = 2 circle points at 0 and pi.  Coincident points
    are an error."""
    g, scale = _gradient(points, weight, with_scale=True)
    return float(np.max(np.abs(g) / scale))


def _angle_problem(weight, n: int):
    """The per-weight parts of the angle-space objective: the stages' fields
    (phi, phi', phi'' per angle) and the map to the command's coordinates."""
    if isinstance(weight, RealWeight):
        # a numpy scalar, so that a c past the double range raises under
        # optimize's errstate before the first Newton step
        c = (n - 1) * np.float64(weight.s - 1.0)

        def field(t):
            tan_half = np.tan(t / 2.0)
            tan_sq = tan_half ** 2
            return -0.5 * c * np.log1p(tan_sq), -0.5 * c * tan_half, -0.25 * c * (1.0 + tan_sq)

        return [field], lambda t: weight.a * np.tan(t / 2.0)
    if isinstance(weight, CircleWeight):
        b = weight.b
        c = min(abs(b), 1.0 / abs(b)) if b else 0.0
        return [_circle_field(q, n - 1) for q in _continuation(c)], lambda t: _gauge_circle(b, t)
    raise InvalidInputError(f"unsupported weight type {type(weight).__name__}")


def _circle_field(c: float, m: int):
    """phi = m log w, phi' and phi'' in the angles for the charge 0 <= c < 1."""
    dist_sq = CircleWeight(c).dist_sq

    def field(t):
        cos, sin = np.cos(t), np.sin(t)
        den = dist_sq(t)
        return (-0.5 * m * np.log(den), -m * c * sin / den,
                -m * c * (cos * den - 2.0 * c * sin * sin) / den ** 2)

    return field


def _unfolded(u: np.ndarray, n: int) -> np.ndarray:
    """The n reflection-symmetric angles (-u reversed, [0 at odd n], u) of the
    m = n // 2 positive angles u."""
    return np.concatenate((-u[::-1], np.zeros(n % 2), u))


def _self_pairs(block: np.ndarray) -> np.ndarray:
    """The entries (k, n - m + k) of an m x n block, the pairs of each row's
    angle u_k with itself, as a writable view."""
    m, n = block.shape
    return block.reshape(-1)[n - m::n + 1]


def _ordered(u: np.ndarray) -> bool:
    """0 < u_1 < ... < u_m < pi: the unfolded angles are ordered in (-pi, pi)."""
    return 0.0 < u[0] and u[-1] < math.pi and bool((u[1:] > u[:-1]).all())


def _angle_evaluation(u: np.ndarray, n: int, field, phi_mid: float):
    """The objective at the unfolded angles t of u, and what
    _angle_derivatives needs there: the half differences (u_k - t_j)/2 of the
    m rows against all n columns, their sines, phi' and phi'' at u.  The half
    differences are u_k/2 - t_j/2, which halving leaves exact.  Each pair of
    positive angles sits twice in the block and stands for itself and its
    mirror pair of negative angles; each pair of a positive and a negative
    angle sits once; the middle angle 0 at odd n pairs with u_k and -u_k at
    the same chord, so its column counts twice.  The self pairs get the sine
    1/2, a chord of 1 and a log of 0.  phi_mid is phi(0) at odd n, else 0."""
    m = u.size
    u_half = u / 2.0
    half = u_half[:, None] - _unfolded(u_half, n)[None, :]
    sin_half = np.sin(half)
    _self_pairs(sin_half)[...] = 0.5
    logs = np.log(np.abs(sin_half) * 2.0)
    phi, d1, d2 = field(u)
    chords = logs.sum() + logs[:, m].sum() if n % 2 else logs.sum()
    return float(chords + 2.0 * phi.sum() + phi_mid), (half, sin_half, d1, d2)


def _angle_derivatives(half, sin_half, d1, d2):
    """From an evaluation's arrays, which it overwrites: the gradient g of the
    m rows, the summed sizes of its terms per row, their sum over all n rows
    of the unfolded angles, and the folded negated Hessian M.  The chord part
    contributes (1/2) cot(d/2), of size 1/chord = (1/2) csc(d/2), to the
    gradient, and weights w = (1/4) csc^2(d/2) to the negated Hessian N of
    the n angles.  The rows -u_k mirror the rows u_k, and the middle row's
    sizes are twice its column's in the block.  M = (Q^T N Q)/2 for the map
    Q: u -> t: M_kl = w(k, -l) - w(k, +l) and M_kk = sum_j w(k, j) + w(k, -k)
    - phi''(u_k)."""
    m, n = half.shape
    inv_chord = np.divide(0.5, sin_half, out=sin_half)  # 1/chord, up to sign
    _self_pairs(inv_chord)[...] = 0.0
    g = np.multiply(inv_chord, np.cos(half, out=half), out=half).sum(axis=1) + d1
    size = np.abs(inv_chord, out=inv_chord)
    scale = size.sum(axis=1) + np.abs(d1)
    scale_sum = 2.0 * (scale.sum() + size[:, m].sum() if n % 2 else scale.sum())
    w = np.square(size, out=size)
    neg_h = w[:, m - 1::-1] - w[:, n - m:]
    neg_h.reshape(-1)[::m + 1] += w.sum(axis=1) - d2
    return g, scale, scale_sum, neg_h


def _newton_step(neg_h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The modified Newton step for the negated Hessian neg_h and gradient g:
    the plain step neg_h^-1 g where it is an ascent direction, g.p > 0, as
    wherever neg_h is positive definite.  Otherwise, or where neg_h is
    singular, g scaled by 1/|diag neg_h|, with 0 where the diagonal entry is
    0: its slope g.p = sum g_k^2/|neg_h_kk| is never negative.  For a 1 x 1
    neg_h this is the eigen-step g/|lambda|."""
    try:
        p = np.linalg.solve(neg_h, g)
    except np.linalg.LinAlgError:
        pass
    else:
        if g @ p > 0.0:
            return p
    diag = np.abs(neg_h.diagonal())
    return np.divide(g, diag, out=np.zeros_like(g), where=diag > 0.0)


def _newton(u: np.ndarray, n: int, field):
    """Damped Newton ascent from the ordered positive angles u of n
    reflection-symmetric angles (see module docstring); returns the final u,
    the objective of the n angles (before a last full step, which gains less
    than its rounding), the Newton steps and the backtracks.  The objective
    of u is that of its unfolded angles, whose gradient in u is 2 g, so the
    step solves M p = g and the slope along it is 2 g.p.  Each iterate is
    evaluated once: the line search's evaluation of the accepted candidate,
    its sines and its field, feeds the next step's derivatives."""
    phi_mid = float(field(np.zeros(1))[0][0]) if n % 2 else 0.0
    f, at_u = _angle_evaluation(u, n, field, phi_mid)
    steps = backtracks = 0
    while steps < _MAX_NEWTON_STEPS:
        g, scale, scale_sum, neg_h = _angle_derivatives(*at_u)
        if (np.abs(g) / scale).max() <= 1e-13:
            break
        p = _newton_step(neg_h, g)
        slope = 2.0 * float(g @ p)
        if slope <= 1e-15 * (1.0 + abs(f) + u[-1] * scale_sum):
            if _ordered(u + p):
                u = u + p
                steps += 1
            break
        step = 1.0
        for _ in range(60):
            cand = u + step * p
            if _ordered(cand):
                f_cand, at_cand = _angle_evaluation(cand, n, field, phi_mid)
                if f_cand > f + 1e-4 * step * slope:
                    break
            step *= 0.5
            backtracks += 1
        else:
            break  # no ascent along p: stalled
        u, f, at_u = cand, f_cand, at_cand
        steps += 1
    return u, f, steps, backtracks


def _gauge_circle(b: float, t: np.ndarray) -> np.ndarray:
    """The command's sorted angles in [0, 2 pi) of the angles t at |b|: e^{it},
    negated for b < 0, rotated in preimage space to a first angle of 0.

    The rotation puts the image of w = 1 at -1.  For b < 0 that is in the
    middle of the cluster of points next to a charge near -1, so the
    rotation angle would come from a cluster point's preimage, whose error
    the map amplifies by about 1/(1 - |b|).  At even n the grid
    e^{2 pi i k/n} is closed under negation and
    mobius(-b, -w) = -mobius(b, w), so there b < 0 is gauged at |b| and
    the images are negated.
    """
    flip = b < 0.0 and t.size % 2 == 0
    if flip:
        b = -b
    z = np.exp(1j * t)
    pre, _ = _sorted_angles(mobius(b, -z if b < 0.0 else z))
    w = mobius(b, np.exp(1j * (pre - pre[0])))
    return _sorted_angles(-w if flip else w)[0]


def _continuation(c: float) -> list[float]:
    """The circle's stage charges for 0 <= c < 1: each 1 - 2^-k < c, then c."""
    k = 1
    while 1.0 - 2.0 ** -k < c:
        k += 1
    return [1.0 - 2.0 ** -j for j in range(1, k)] + [c]


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
    # the positive half of the equispaced angles (2k + 1 - n) pi / n
    u = (2.0 * np.arange(n // 2) + 1.0 + n % 2) * math.pi / n
    iterations = 0
    try:
        with np.errstate(over="raise"):
            fields, to_points = _angle_problem(weight, n)
            for stage, field in enumerate(fields):
                u, f, steps, backtracks = _newton(u, n, field)
                # the benchmark tracer parses this record, "start" wording and all
                log.debug("start %d: objective %.15g after %d+%d iterations",
                          stage, f, steps, backtracks)
                iterations += steps

            x = to_points(_unfolded(u, n))
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
