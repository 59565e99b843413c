"""Reference values for the benchmark's correctness checks.

Everything here is computed apart from the ``fekete`` package, from the
mathematics alone, so that a check compares the program against something it
did not produce:

* Fekete points for s > 1: eigenvalues of the symmetric tridiagonal Jacobi
  matrix of the monic three-term recurrence (Golub & Welsch 1969),
* Fekete points for s = 1: atan(x_k / a) is an arithmetic progression with
  step pi / n,
* Fekete points on the circle: the Moebius preimages (b w - 1)/(w - b) are
  equispaced with step 2 pi / n,
* a scale-aware stationarity residual on the line and on the circle,
* log weighted Vandermonde products (diameters) of given point sets,
* the elementary CDFs and densities of the five limit measures
  (Saff & Totik 1997), and the Kolmogorov-Smirnov distance against them,
* capacities and the modified Robin constant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

def sgt1_points(a: float, s: float, n: int) -> np.ndarray:
    """Sorted Fekete points for w(x) = |x - ai|^-s, s > 1.

    The monic recurrence G_k = x G_{k-1} - c_k G_{k-2} with
    c_k = (k-1)(2 sigma - k + 3) / ((2 sigma - 2k + 3)(2 sigma - 2k + 5)),
    sigma = s (n-1), has c_k > 0 for k <= n, so the roots of G_n are the
    eigenvalues of the Jacobi matrix with zero diagonal and off-diagonal
    sqrt(c_k).  The roots for general a are a times those for a = 1.
    """
    sigma = s * (n - 1)
    k = np.arange(2, n + 1, dtype=float)
    c = (k - 1.0) * (2.0 * sigma - k + 3.0) / (
        (2.0 * sigma - 2.0 * k + 3.0) * (2.0 * sigma - 2.0 * k + 5.0))
    return abs(a) * eigvalsh_tridiagonal(np.zeros(n), np.sqrt(c))


def s1_points(a: float, n: int, gamma: float) -> np.ndarray:
    """Sorted points a tan(gamma + k pi / n), k = 0..n-1."""
    return np.sort(abs(a) * np.tan(gamma + math.pi * np.arange(n) / n))


def s1_progression_error(points, a: float, gamma: float | None = None) -> float:
    """Largest deviation of atan(x_k / a) from an arithmetic progression with
    step pi / n; with gamma given, from the progression gamma + k pi / n."""
    theta = np.sort(np.arctan(np.asarray(points, dtype=float) / abs(a)))
    n = theta.size
    if gamma is not None:
        return float(np.max(np.abs(theta - (gamma + math.pi * np.arange(n) / n))))
    return float(np.max(np.abs(np.diff(theta) - math.pi / n)))


def circle_preimage_error(angles, b: float, alpha: float | None = None) -> float:
    """Largest deviation of the Moebius preimages of e^{it_k} from an
    equispaced grid with step 2 pi / n (on the whole circle, wrap included);
    with alpha given, also from the grid alpha + 2 pi k / n itself."""
    w = np.exp(1j * np.asarray(angles, dtype=float))
    pre = np.sort(np.mod(np.angle((b * w - 1.0) / (w - b)), TWO_PI))
    step = TWO_PI / pre.size
    gaps = np.diff(np.concatenate((pre, [pre[0] + TWO_PI])))
    err = float(np.max(np.abs(gaps - step)))
    if alpha is not None:
        off = np.mod(pre - alpha, step)
        err = max(err, float(np.max(np.minimum(off, step - off))))
    return err


# ---------------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------------

def _scaled(pair_terms: np.ndarray, field: np.ndarray) -> float:
    g = np.sum(pair_terms, axis=1) - field
    scale = np.sum(np.abs(pair_terms), axis=1) + np.abs(field)
    with np.errstate(invalid="ignore"):
        r = np.abs(g) / scale
    return float(np.max(r)) if np.all(np.isfinite(r)) else math.inf


def line_residual(points, a: float, s: float) -> float:
    """max_k |g_k| / (sum_j |2/(x_k - x_j)| + |2 s (n-1) x_k / (x_k^2 + a^2)|)
    for g_k = sum_{j != k} 2/(x_k - x_j) - 2 s (n-1) x_k / (x_k^2 + a^2).

    Dividing by the sum of the absolute terms makes the residual invariant
    under scaling and comparable across n: 0 at a Fekete set, up to 1 when
    nothing cancels.  Coincident points give inf.
    """
    x = np.asarray(points, dtype=float)
    n = x.size
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    with np.errstate(divide="ignore"):
        pair = 2.0 / d
    field = 2.0 * s * (n - 1) * x / (x * x + a * a)
    return _scaled(pair, field)


def circle_residual(angles, b: float) -> float:
    """The line residual's analogue for angles t_k and w = 1/|z - b|:
    g_k = sum_{j != k} cot((t_k - t_j)/2) - 2 (n-1) b sin t_k / (1 - 2b cos t_k + b^2)."""
    t = np.asarray(angles, dtype=float)
    n = t.size
    half = (t[:, None] - t[None, :]) / 2.0
    np.fill_diagonal(half, math.pi / 2.0)
    with np.errstate(divide="ignore"):
        pair = np.cos(half) / np.sin(half)
    np.fill_diagonal(pair, 0.0)
    field = 2.0 * (n - 1) * b * np.sin(t) / (1.0 - 2.0 * b * np.cos(t) + b * b)
    return _scaled(pair, field)


# ---------------------------------------------------------------------------
# diameters and capacities
# ---------------------------------------------------------------------------

def _log_vandermonde_pairs(diffs: np.ndarray) -> float:
    n = diffs.shape[0]
    iu = np.triu_indices(n, 1)
    return float(np.sum(np.log(diffs[iu])))


def line_log_diameter(points, a: float, s: float) -> float:
    """2/(n(n-1)) log prod_{j<k} |x_j - x_k| w(x_j) w(x_k), w = |x - ai|^-s."""
    x = np.asarray(points, dtype=float)
    n = x.size
    log_v = _log_vandermonde_pairs(np.abs(x[:, None] - x[None, :]))
    log_v -= (n - 1) * 0.5 * s * float(np.sum(np.log(x * x + a * a)))
    return 2.0 * log_v / (n * (n - 1))


def circle_log_diameter(angles, b: float) -> float:
    """The same for e^{it_k} on the circle and w(z) = 1/|z - b|."""
    t = np.asarray(angles, dtype=float)
    n = t.size
    log_v = _log_vandermonde_pairs(2.0 * np.abs(np.sin((t[:, None] - t[None, :]) / 2.0)))
    log_v -= (n - 1) * 0.5 * float(np.sum(np.log(1.0 - 2.0 * b * np.cos(t) + b * b)))
    return 2.0 * log_v / (n * (n - 1))


def s1_log_diameter(a: float, n: int) -> float:
    """log of n^(1/(n-1)) / (2a)."""
    return math.log(n) / (n - 1) - math.log(2.0 * abs(a))


def circle_closed_log_diameter(b: float, n: int) -> float:
    """log of n^(1/(n-1)) / |1 - b^2|."""
    return math.log(n) / (n - 1) - math.log(abs(1.0 - b * b))


def _log_abs_rising(t: float, n: int) -> float:
    return float(np.sum(np.log(np.abs(t + np.arange(n, dtype=float)))))


def sgt1_log_diameter(a: float, s: float, n: int) -> float:
    """Closed product for the s > 1 diameter, evaluated with numpy sums:

        (1-2s) log 2a + (2/n) log n! - (2s/n) log|(-sigma)_n|
        + (2(s-1)/n) log|(n-2 sigma-1)_n| + T / (n(n-1)),
        T = sum_k (k-2n+2) log k + (2k-2) log|k-sigma-1| + (n-k) log|n+k-2 sigma-2|.

    The tests hold it against the log Vandermonde of ``sgt1_points``.
    """
    sigma = s * (n - 1)
    k = np.arange(1, n + 1, dtype=float)
    tail = float(np.sum((k - 2 * n + 2) * np.log(k)
                        + (2 * k - 2) * np.log(np.abs(k - sigma - 1.0))
                        + (n - k) * np.log(np.abs(n + k - 2.0 * sigma - 2.0))))
    return ((1.0 - 2.0 * s) * math.log(2.0 * abs(a))
            + (2.0 / n) * math.lgamma(n + 1)
            - (2.0 * s / n) * _log_abs_rising(-sigma, n)
            + (2.0 * (s - 1.0) / n) * _log_abs_rising(n - 2.0 * sigma - 1.0, n)
            + tail / (n * (n - 1)))


def line_capacity(s: float) -> float:
    """Weighted capacity at a = 1; 1/2 at s = 1."""
    if s == 1.0:
        return 0.5
    return math.exp((2 * s - 2 * s * s - 1) * math.log(2.0) - s * s * math.log(s)
                    - (s - 1) ** 2 * math.log(s - 1)
                    + 0.5 * (2 * s - 1) ** 2 * math.log(2 * s - 1))


def circle_capacity(b: float) -> float:
    return 1.0 / abs(1.0 - b * b)


def support_radius(s: float) -> float:
    return math.sqrt(2.0 * s - 1.0) / (s - 1.0)


def modified_robin(s: float) -> float:
    """F = s g(i, inf) + (s-1) log(r/2), the value of U + Q on the support,
    with g(i, inf) = log((sqrt(r^2+1) + 1)/r) for the slit [-r, r]."""
    r = support_radius(s)
    return s * math.log((math.sqrt(r * r + 1.0) + 1.0) / r) + (s - 1.0) * math.log(r / 2.0)


# ---------------------------------------------------------------------------
# limit measures: elementary densities and CDFs
# ---------------------------------------------------------------------------

def _harmonic_inf_cdf(r: float, x: float) -> float:
    return 0.5 + math.asin(x / r) / math.pi


def _harmonic_i_cdf(r: float, x: float) -> float:
    return 0.5 + math.atan(x * math.sqrt(1.0 + r * r) / math.sqrt(r * r - x * x)) / math.pi


def _circle_cdf(b: float, t: float) -> float:
    """Mass of [0, t] under the pushforward of the uniform measure by the
    Moebius map.  With 1 - 2b cos t + b^2 = (1-b)^2 cos^2(t/2) + (1+b)^2
    sin^2(t/2), the substitution u = tan(t/2) integrates the density to
    atan(c tan(t/2)) / pi, c = |(1+b)/(1-b)|, on either side of t = pi."""
    if t == math.pi:
        return 0.5
    f = math.atan(abs((1.0 + b) / (1.0 - b)) * math.tan(t / 2.0)) / math.pi
    return f if t < math.pi else 1.0 + f


class Measure:
    """One of the five limit-measure families with its elementary formulas."""

    def __init__(self, family: str, s: float | None = None, b: float | None = None,
                 r: float | None = None):
        self.family, self.s, self.b = family, s, b
        if family == "real-s":
            r = support_radius(s)
        self.r = r
        if family == "arctan":
            self.support = (-math.inf, math.inf)
        elif family == "circle-poisson":
            self.support = (0.0, TWO_PI)
        else:
            self.support = (-r, r)

    def density(self, x: float) -> float:
        lo, hi = self.support
        f = self.family
        if f == "arctan":
            return 1.0 / (math.pi * (1.0 + x * x))
        if f == "circle-poisson":
            b = self.b
            return abs(1.0 - b * b) / (TWO_PI * (1.0 - 2.0 * b * math.cos(x) + b * b))
        if not lo < x < hi:
            return 0.0
        r = self.r
        root = math.sqrt((r - x) * (r + x))
        if f == "harmonic-inf":
            return 1.0 / (math.pi * root)
        if f == "harmonic-i":
            return math.sqrt(1.0 + r * r) / (math.pi * (1.0 + x * x) * root)
        return (self.s - 1.0) * root / (math.pi * (1.0 + x * x))

    def cdf(self, x: float) -> float:
        lo, hi = self.support
        f = self.family
        if f == "arctan":
            return 0.5 + math.atan(x) / math.pi
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        if f == "circle-poisson":
            return _circle_cdf(self.b, x)
        if f == "harmonic-inf":
            return _harmonic_inf_cdf(self.r, x)
        if f == "harmonic-i":
            return _harmonic_i_cdf(self.r, x)
        # real-s = s * harmonic-i - (s-1) * harmonic-inf on the same support
        s = self.s
        return s * _harmonic_i_cdf(self.r, x) - (s - 1.0) * _harmonic_inf_cdf(self.r, x)


def ks_distance(points, measure: Measure) -> float:
    """sup_x |F_n(x) - F(x)|, with both one-sided limits of the empirical
    CDF F_n taken at every sample point."""
    xs = np.sort(np.asarray(points, dtype=float))
    n = xs.size
    f = np.array([measure.cdf(float(x)) for x in xs])
    k = np.arange(n)
    return float(np.max(np.maximum(np.abs((k + 1) / n - f), np.abs(k / n - f))))
