"""Correctness checks of single operation outputs against ``oracles``.

Each check takes the operation's ``Result`` and returns None when the output
is correct, or a one-line reason when it is not.  No check compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import oracles as orc

RESIDUAL_TOL = 1e-9      # scale-aware stationarity residual, any route
POINT_TOL = 1e-9         # relative to the largest |point|
PHASE_TOL = 1e-8         # arctan / preimage progressions
LOG_DIAM_TOL = 1e-10     # log diameter, absolute
CDF_TOL = 1e-9           # the program's CDFs are quadratures at 1e-11
DENSITY_RTOL = 1e-9      # plus the rounding of r^2 - x^2 near a support edge
FROSTMAN_TOL = 1e-6


@dataclass
class Result:
    """What one operation produced: exit code, stdout text and, for library
    calls, the returned object (its repr is the text)."""

    rc: int
    text: str
    value: object = None


def _json(res: Result):
    if res.rc != 0:
        raise ValueError(f"exit code {res.rc}")
    return json.loads(res.text)


def _csv_rows(res: Result) -> tuple[list[str], list[list[str]]]:
    if res.rc != 0:
        raise ValueError(f"exit code {res.rc}")
    rows = list(csv.reader(io.StringIO(res.text)))
    return rows[0], rows[1:]


def _result_payload(res: Result, fmt: str) -> dict:
    """The real/circle payload from either output format."""
    if fmt == "json":
        return _json(res)
    header, rows = _csv_rows(res)
    row = dict(zip(header, rows[0]))
    n = sum(1 for h in header if h.startswith("point_"))
    return {"points": [float(row[f"point_{k}"]) for k in range(n)],
            "log_diameter": float(row["log_diameter"]),
            "diameter": float(row["diameter"]),
            "energy": float(row["energy"])}


def _first(*tests) -> str | None:
    for ok, reason in tests:
        if not ok:
            return reason
    return None


def _diameter_fields(p: dict, reference: float) -> list[tuple[bool, str]]:
    ld = p["log_diameter"]
    return [
        (abs(ld - reference) <= LOG_DIAM_TOL,
         f"log_diameter {ld!r} vs reference {reference!r}"),
        (math.isclose(p["diameter"], math.exp(ld), rel_tol=1e-14),
         "diameter != exp(log_diameter)"),
        (p["energy"] == -ld, "energy != -log_diameter"),
    ]


def _guard(check):
    """Report a malformed output (bad exit code, unparseable text, missing
    field) as a failed check instead of an exception."""
    def guarded(res: Result) -> str | None:
        try:
            return check(res)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return guarded


def real_sgt1(a: float, s: float, n: int, fmt: str = "json", optimized: bool = False):
    """Line, s > 1: points equal the tridiagonal oracle's, are stationary,
    and the printed diameter is theirs."""
    @_guard
    def check(res):
        p = _result_payload(res, fmt)
        x = np.asarray(p["points"])
        ref = orc.sgt1_points(a, s, n)
        err = float(np.max(np.abs(x - ref))) if x.size == n else math.inf
        resid = orc.line_residual(x, a, s)
        return _first(
            (not optimized or p.get("converged") is True, "optimizer did not converge"),
            (err <= POINT_TOL * float(np.max(np.abs(ref))),
             f"points off the oracle by {err:.2e}"),
            (resid <= RESIDUAL_TOL, f"stationarity residual {resid:.2e}"),
            *_diameter_fields(p, orc.line_log_diameter(x, a, s)),
            (abs(p["log_diameter"] - orc.sgt1_log_diameter(a, s, n)) <= LOG_DIAM_TOL,
             "log_diameter off the closed product"),
        )
    return check


def real_s1(a: float, n: int, gamma: float | None = None, fmt: str = "json",
            optimized: bool = False):
    """Line, s = 1: atan(x_k / a) is a progression with step pi / n (at the
    given phase, if any)."""
    @_guard
    def check(res):
        p = _result_payload(res, fmt)
        x = np.asarray(p["points"])
        phase = orc.s1_progression_error(x, a, gamma) if x.size == n else math.inf
        resid = orc.line_residual(x, a, 1.0)
        return _first(
            (not optimized or p.get("converged") is True, "optimizer did not converge"),
            (phase <= PHASE_TOL, f"arctan progression off by {phase:.2e}"),
            (resid <= RESIDUAL_TOL, f"stationarity residual {resid:.2e}"),
            *_diameter_fields(p, orc.line_log_diameter(x, a, 1.0)),
            (abs(p["log_diameter"] - orc.s1_log_diameter(a, n)) <= LOG_DIAM_TOL,
             "log_diameter off n^(1/(n-1))/(2a)"),
        )
    return check


def circle(b: float, n: int, alpha: float | None = None, fmt: str = "json",
           optimized: bool = False):
    """Circle: Moebius preimages of the angles are equispaced (at the given
    rotation, if any); cartesian points agree with the angles."""
    @_guard
    def check(res):
        p = _result_payload(res, fmt)
        t = np.asarray(p["points"])
        pre = orc.circle_preimage_error(t, b, alpha) if t.size == n else math.inf
        resid = orc.circle_residual(t, b)
        tests = [
            (not optimized or p.get("converged") is True, "optimizer did not converge"),
            (pre <= PHASE_TOL, f"Moebius preimages off by {pre:.2e}"),
            (resid <= RESIDUAL_TOL, f"stationarity residual {resid:.2e}"),
            *_diameter_fields(p, orc.circle_log_diameter(t, b)),
            (abs(p["log_diameter"] - orc.circle_closed_log_diameter(b, n)) <= LOG_DIAM_TOL,
             "log_diameter off n^(1/(n-1))/|1-b^2|"),
        ]
        if fmt == "json":
            xy = np.asarray(p["cartesian"])
            gap = float(np.max(np.abs(xy[:, 0] + 1j * xy[:, 1] - np.exp(1j * t))))
            tests.append((gap <= 1e-12, f"cartesian points off the angles by {gap:.2e}"))
        return _first(*tests)
    return check


def _table(res: Result, fmt: str) -> list[dict]:
    if fmt == "json":
        return _json(res)["rows"]
    header, rows = _csv_rows(res)
    return [{h: float(v) for h, v in zip(header, row)} for row in rows]


def converge(ns: list[int], s: float | None = None, b: float | None = None,
             fmt: str = "json"):
    """Every row: diameter and capacity from closed forms (s > 1: from the
    tridiagonal oracle's points), KS distance of the oracle's points against
    the elementary CDF."""
    if s is None:
        measure = orc.Measure("circle-poisson", b=b)
        cap = orc.circle_capacity(b)
    elif s == 1.0:
        measure = orc.Measure("arctan")
        cap = orc.line_capacity(1.0)
    else:
        measure = orc.Measure("real-s", s=s)
        cap = orc.line_capacity(s)

    def reference(n):
        if s is None:
            # the rotation-0 grid, rounded as circle_points rounds it: a
            # preimage at -1 maps to an angle of +-0, and which side of the
            # 0 / 2 pi seam it lands on moves the KS distance by 1/n
            pre = np.exp(1j * (orc.TWO_PI * np.arange(n) / n))
            t = np.mod(np.angle((b * pre - 1.0) / (pre - b)), orc.TWO_PI)
            return orc.circle_closed_log_diameter(b, n), t
        if s == 1.0:
            canonical = -math.pi / 2 + math.pi / (2 * n)
            return orc.s1_log_diameter(1.0, n), orc.s1_points(1.0, n, canonical)
        x = orc.sgt1_points(1.0, s, n)
        return orc.line_log_diameter(x, 1.0, s), x

    @_guard
    def check(res):
        rows = _table(res, fmt)
        if [int(r["n"]) for r in rows] != ns:
            return "rows do not follow the n-list"
        for row in rows:
            n = int(row["n"])
            log_d, pts = reference(n)
            ks = orc.ks_distance(pts, measure)
            reason = _first(
                (abs(math.log(row["delta_n"]) - log_d) <= LOG_DIAM_TOL, f"n={n}: delta_n off"),
                (math.isclose(row["capacity"], cap, rel_tol=1e-12), f"n={n}: capacity off"),
                (row["delta_minus_capacity"] == row["delta_n"] - row["capacity"],
                 f"n={n}: delta_minus_capacity != delta_n - capacity"),
                (abs(row["ks_distance"] - ks) <= CDF_TOL,
                 f"n={n}: ks_distance {row['ks_distance']:.3e} vs oracle {ks:.3e}"),
            )
            if reason:
                return reason
        return None
    return check


def measure(m: orc.Measure, lo: float, hi: float, count: int, fmt: str = "json"):
    """Grid as documented (clipped to the support, edges pinned); density and
    CDF at every row against the elementary formulas; 0 density on the edge
    of a bounded support."""
    s_lo, s_hi = m.support
    grid = [float(x) for x in np.linspace(lo, hi, count)]
    if math.isfinite(s_lo):
        expected_x = [s_lo] + [x for x in grid if s_lo < x < s_hi] + [s_hi]
    else:
        expected_x = grid

    @_guard
    def check(res):
        rows = _table(res, fmt)
        if [r["x"] for r in rows] != expected_x:
            return "grid rows differ from the clipped grid"
        for row in rows:
            x = row["x"]
            d_ref = m.density(x)
            edge = m.r * m.r / ((m.r - abs(x)) * (m.r + abs(x))) if d_ref and m.r else 1.0
            if abs(row["density"] - d_ref) > (DENSITY_RTOL + 4e-16 * edge) * d_ref:
                return f"density at x={x!r}: {row['density']!r} vs {d_ref!r}"
            c_ref = m.cdf(x)
            if abs(row["cdf"] - c_ref) > CDF_TOL:
                return f"cdf at x={x!r}: {row['cdf']!r} vs {c_ref!r}"
        return None
    return check


def sgt1_diameter(a: float, s: float, n: int):
    """A bare diameter: the closed product, and above the capacity it
    decreases to."""
    @_guard
    def check(res):
        d = res.value
        ref = orc.sgt1_log_diameter(a, s, n)
        floor = (1.0 - 2.0 * s) * math.log(a) + math.log(orc.line_capacity(s))
        return _first(
            (abs(math.log(d) - ref) <= LOG_DIAM_TOL, f"log diameter {math.log(d)!r} vs {ref!r}"),
            (math.log(d) > floor, "diameter below the capacity"),
        )
    return check


def frostman(s: float):
    """Capacity, Robin constants by closed form; the Frostman conditions hold
    on the grid."""
    @_guard
    def check(res):
        rep = res.value
        cap = orc.line_capacity(s)
        return _first(
            (math.isclose(rep.capacity, cap, rel_tol=1e-12), "capacity off"),
            (math.isclose(rep.robin_constant, -math.log(cap), rel_tol=1e-12, abs_tol=1e-14),
             "robin_constant off"),
            (math.isclose(rep.modified_robin, orc.modified_robin(s), rel_tol=1e-12),
             "modified_robin off"),
            (rep.frostman_max_violation <= FROSTMAN_TOL, "U + Q drops below F"),
            (rep.frostman_max_onsupport_deviation <= FROSTMAN_TOL, "U + Q != F on the support"),
        )
    return check


def verify_suite(suite: str):
    """Exit 0, every check line PASS and of this suite, and a summary that
    counts them."""
    @_guard
    def check(res):
        lines = res.text.splitlines()
        checks, summary = lines[:-1], lines[-1]
        return _first(
            (res.rc == 0, f"exit code {res.rc}"),
            (bool(checks) and all(ln.startswith(f"PASS {suite}/") for ln in checks),
             "a check did not pass"),
            (summary == f"{len(checks)}/{len(checks)} checks passed", "summary line wrong"),
        )
    return check
