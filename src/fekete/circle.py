"""Closed-form weighted Fekete points on the unit circle.

The weight is w(z) = 1/|z - b| with a real charge location b != +-1.  The
self-inverse Moebius map phi(w) = (bw - 1)/(w - b) preserves the unit circle
and carries chord lengths so that the weighted Vandermonde product of
phi-images equals the unweighted one of the preimages up to the constant
|1 - b^2|.  Consequently every maximizer is the phi-image of n equally spaced
points, with one free rotation alpha, and the weighted n-th diameter is
n^(1/(n-1)) / |1 - b^2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, checked_finite, checked_n

__all__ = [
    "CircleWeight", "CircleSolution", "mobius", "circle_points", "circle_diameter",
    "circle_log_diameter",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CircleWeight:
    """Weight w(z) = 1/|z - b| on the unit circle, b real with |b| != 1.

    unit is the power of two u by which dist_sq scales |e^{it} - b|: 1 for
    |b| < 2^128, else 2^(128-e) for 2^(e-1) <= |b| < 2^e, so that |bu| <
    2^128 and the fourth power of |e^{it} - b| u stays in the double range.
    Scaling by a power of two is exact, so a ratio of scaled terms has the
    bits of the unscaled formula.
    """

    b: float
    unit: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = checked_finite(self.b, "charge location b")
        if abs(b) == 1.0:
            raise InvalidInputError("charge location b = +-1 sits on the circle; excluded")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "unit", math.ldexp(1.0, min(0, 128 - math.frexp(b)[1])))

    def dist_sq(self, angles):
        """|e^{it} - b|^2 u^2 with u = self.unit, vectorized over angles, as
        (u-c)^2 + 4cu sin^2(t/2) for c = bu >= 0 and (u+c)^2 - 4cu cos^2(t/2)
        for c < 0: both terms are nonnegative, so nothing cancels next to the
        charge.  A float angle gives a float through math, which keeps the
        density's per-point calls cheap."""
        if isinstance(angles, float):
            t, sin, cos = angles, math.sin, math.cos
        else:
            t, sin, cos = np.asarray(angles, dtype=float), np.sin, np.cos
        u = self.unit
        c = self.b * u
        if c >= 0.0:
            return (u - c) ** 2 + 4.0 * c * u * sin(t / 2.0) ** 2
        return (u + c) ** 2 - 4.0 * c * u * cos(t / 2.0) ** 2

    def log_w(self, angles):
        """log w(e^{it}) = -(1/2) log |e^{it} - b|^2, vectorized over angles."""
        return -0.5 * np.log(self.dist_sq(angles)) + math.log(self.unit)


@dataclass(frozen=True)
class CircleSolution:
    """A weighted Fekete set on the circle: free phase, points, sorted angles.

    Points are reported sorted by angle; angles live in [0, 2 pi).  Applying
    the (involutive) Moebius map to the points recovers preimages whose
    arguments are equally spaced with gap 2 pi / n.
    """

    alpha: float
    points: tuple[complex, ...]
    angles: tuple[float, ...]


def mobius(b: float, w):
    """phi(w) = (bw - 1)/(w - b): a self-inverse bijection of the unit circle.

    Accepts scalars or arrays; w = b (the pole) is rejected, which cannot
    happen for |w| = 1 and |b| != 1.
    """
    b = CircleWeight(b).b
    w_arr = np.asarray(w, dtype=complex)
    if np.any(w_arr == b):
        raise InvalidInputError(f"mobius pole: w = b = {b}")
    out = (b * w_arr - 1.0) / (w_arr - b)
    return complex(out) if out.ndim == 0 else out


def _sorted_angles(z):
    """Arguments of z in [0, 2 pi), ascending, and the order that sorts z;
    np.mod(-tiny, 2 pi) rounds to 2 pi, which is reported as 0."""
    angles = np.mod(np.angle(z), TWO_PI)
    angles[angles == TWO_PI] = 0.0
    order = np.argsort(angles)
    return angles[order], order


def circle_points(b: float, n: int, alpha: float = 0.0) -> CircleSolution:
    """Fekete set {phi(e^{i(alpha + 2 pi k/n)}), k = 0..n-1}; any alpha is optimal."""
    weight = CircleWeight(b)
    n = checked_n(n)
    alpha = checked_finite(alpha, "rotation alpha")
    pre = np.exp(1j * (alpha + TWO_PI * np.arange(n) / n))
    pts = mobius(weight.b, pre)
    angles, order = _sorted_angles(pts)
    return CircleSolution(
        alpha=alpha,
        points=tuple(pts[order].tolist()),
        angles=tuple(angles.tolist()),
    )


def _diameter_over_unit_sq(b: float, n: int):
    """n^(1/(n-1)) / (|1 - b^2| u^2) and the unit u of CircleWeight(b): the
    quotient stays in the double range for every |b| != 1.  |u - c| |u + c|
    with c = bu is exact next to the charge, where u^2 - c^2 cancels."""
    weight = CircleWeight(b)
    n = checked_n(n)
    u = weight.unit
    c = weight.b * u
    return n ** (1.0 / (n - 1)) / (abs(u - c) * abs(u + c)), u


def circle_diameter(b: float, n: int) -> float:
    """Weighted n-th diameter on the circle: n^(1/(n-1)) / |1 - b^2|; 0 where
    it falls below the double range."""
    scaled, u = _diameter_over_unit_sq(b, n)
    return scaled * u * u


def circle_log_diameter(b: float, n: int) -> float:
    """log of the weighted n-th diameter, finite for every |b| != 1: the
    logarithm of the scaled quotient plus log u^2."""
    scaled, u = _diameter_over_unit_sq(b, n)
    return math.log(scaled) + 2.0 * math.log(u)
