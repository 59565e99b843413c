import csv
import errno
import io
import json
import logging
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fekete
import fekete.cli as cli
from fekete import MeasureSpec, cdf, density
from fekete.cli import _to_csv, _to_json, build_parser, main

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_ok(capsys, *argv):
    """stdout of a command that must exit 0."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return out


def run_json(capsys, *argv):
    return json.loads(run_ok(capsys, *argv))


def line_residual(points, a, s):
    """Scale-aware stationarity residual max_k |g_k| / (sum of |terms of g_k|)
    of g_k = sum_{j != k} 2/(x_k - x_j) - 2 s (n-1) x_k / (x_k^2 + a^2)."""
    x = np.asarray(points)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    pair = 2.0 / d
    field = 2.0 * s * (x.size - 1) * x / (x * x + a * a)
    scale = np.sum(np.abs(pair), axis=1) + np.abs(field)
    return float(np.max(np.abs(np.sum(pair, axis=1) - field) / scale))


def circle_residual(angles, b):
    """The same measure for g_k = sum_{j != k} cot((t_k - t_j)/2)
    - 2 (n-1) b sin t_k / |e^{it_k} - b|^2, each term sized 2q/|e^{it_k} - c|
    for its charge q at c (every term is rounding at n = 2 on 0 and pi), with
    |e^{it} - b|^2 in a form that does not cancel next to the charge."""
    t = np.asarray(angles)
    half = (t[:, None] - t[None, :]) / 2.0
    np.fill_diagonal(half, math.pi / 2.0)
    csc = 1.0 / np.sin(half)
    np.fill_diagonal(csc, 0.0)
    if b >= 0.0:
        dist_sq = (1.0 - b) ** 2 + 4.0 * b * np.sin(t / 2.0) ** 2
    else:
        dist_sq = (1.0 + b) ** 2 - 4.0 * b * np.cos(t / 2.0) ** 2
    field = 2.0 * b * (t.size - 1) * np.sin(t) / dist_sq
    scale = np.sum(np.abs(csc), axis=1) + 2.0 * (t.size - 1) / np.sqrt(dist_sq)
    return float(np.max(np.abs(np.sum(np.cos(half) * csc, axis=1) - field) / scale))


class TestOptimizeCommand:
    """Inputs on which the earlier two-stage optimizer exited 3."""

    @pytest.mark.parametrize("s, n", [(1.0, 48), (1.05, 24)])
    def test_line_converges(self, capsys, s, n):
        payload = run_json(capsys, "real", "--a", "1", "--s", str(s), "--n", str(n),
                           "--method", "optimize")
        assert payload["converged"] is True
        assert line_residual(payload["points"], 1.0, s) <= 1e-9

    def test_circle_near_unit_charge_converges(self, capsys):
        payload = run_json(capsys, "circle", "--b", "0.99", "--n", "24",
                           "--method", "optimize")
        assert payload["converged"] is True
        assert circle_residual(payload["points"], 0.99) <= 1e-9

    def test_line_far_inside_the_charge_converges(self, capsys):
        # the field written as phi = c log(2 cos(t/2)) carried a rounding of
        # c eps, which swamped the Newton stop where the points sit, at
        # |t| ~ 2/sqrt(s): 1e12 at n = 3 exited 3 with its outer points 2.7e-6
        # relative off the closed form
        payload = run_json(capsys, "real", "--a", "1", "--s", "1e12", "--n", "3",
                           "--method", "optimize")
        assert payload["converged"] is True
        ref = fekete.sgt1_points(1.0, 1e12, 3)
        assert np.max(np.abs(np.asarray(payload["points"]) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("b", ["0.999", "-0.999"])
    def test_circle_next_to_unit_charge_at_large_n(self, capsys, b):
        payload = run_json(capsys, "circle", "--b", b, "--n", "240", "--method", "optimize")
        assert payload["converged"] is True
        assert circle_residual(payload["points"], float(b)) <= 1e-9

    def test_circle_next_to_unit_charge_at_small_n(self, capsys):
        # the Newton run over all n angles stopped short of the tolerance
        # here (exit 3); the run over the positive half converges
        payload = run_json(capsys, "circle", "--b", "-0.999", "--n", "6", "--method", "optimize")
        assert payload["converged"] is True
        assert circle_residual(payload["points"], -0.999) <= 1e-9


class TestRealCommand:
    def test_closed_s2(self, capsys):
        payload = run_json(capsys, "real", "--a", "1", "--s", "2", "--n", "2",
                           "--method", "closed")
        np.testing.assert_allclose(payload["points"], [-0.5773503, 0.5773503],
                                   atol=1e-6)
        assert payload["diameter"] == pytest.approx(0.6495191, abs=1e-6)
        assert payload["energy"] == pytest.approx(-payload["log_diameter"])
        assert payload["grad_norm"] <= 1e-9

    def test_closed_s1_canonical_gamma(self, capsys):
        payload = run_json(capsys, "real", "--a", "1", "--s", "1", "--n", "2",
                           "--method", "closed")
        np.testing.assert_allclose(payload["points"], [-1.0, 1.0], atol=1e-9)
        assert payload["diameter"] == pytest.approx(1.0, rel=1e-12)

    def test_closed_s1_large_n(self, capsys):
        n = 1500
        out = run_ok(capsys, "real", "--a", "1", "--s", "1", "--n", str(n))
        steps = np.diff(np.arctan(json.loads(out)["points"]))
        np.testing.assert_allclose(steps, math.pi / n, atol=1e-9)

    @pytest.mark.parametrize("s, n", [(2.0, 1000), (5.0, 50)])
    def test_closed_sgt1_stationary_at_large_n(self, capsys, s, n):
        out = run_ok(capsys, "real", "--a", "1", "--s", str(s), "--n", str(n))
        assert line_residual(json.loads(out)["points"], 1.0, s) <= 1e-9

    def test_closed_large_s_exits_zero(self, capsys):
        payload = run_json(capsys, "real", "--a", "1", "--s", "1e8", "--n", "50")
        assert line_residual(payload["points"], 1.0, 1e8) <= 1e-9

    @pytest.mark.parametrize("s, n", [("1e200", 5), ("1e300", 50)])
    def test_closed_huge_s_exits_zero(self, capsys, s, n):
        # each recurrence denominator is about 2 s (n-1): their product
        # overflows past s = 1e154 if formed
        out = run_ok(capsys, "real", "--a", "1", "--s", s, "--n", str(n))
        assert line_residual(json.loads(out)["points"], 1.0, float(s)) <= 1e-9

    @pytest.mark.parametrize("method", ["closed", "optimize"])
    @pytest.mark.parametrize("s", ["1", "2"])
    @pytest.mark.parametrize("a", ["1e-200", "1e200", "1e-300", "-1e-300", "1e300",
                                   "1e-310", "-1e-310", "5e-324", "8e307", "1.7e308"])
    def test_extreme_a_exits_cleanly(self, capsys, a, s, method):
        # x^2 + a^2 over- or underflows there, and at s = 2 the diameter
        # leaves the double range: exit 0 with finite values or 2 with a
        # message, and no warning (the suite makes warnings errors).  Past
        # the bounds on |a|, 2a, a^2 and the diameters overflow or underflow:
        # exit 2 with one line naming the bounds
        code, out, err = run(capsys, "real", "--a", a, "--s", s, "--n", "20",
                             "--method", method)
        assert "Traceback" not in err
        if not 1e-300 <= abs(float(a)) <= 1e300:
            assert code == 2 and out == ""
            assert err == (f"error: charge offset a requires 1e-300 <= |a| <= 1e+300, "
                           f"got a = {float(a)!r}\n")
        elif code == 2:
            assert abs(float(a)) < 1.0 and s == "2"
            assert "exceeds the double range" in err
        else:
            assert code == 0
            payload = json.loads(out)
            assert all(math.isfinite(payload[k])
                       for k in ("log_diameter", "diameter", "energy", "grad_norm"))

    @pytest.mark.parametrize("a, s, n, message", [
        # -s log a alone is about -9.3e307: L came out -inf, and the command
        # exited 0 with "diameter": 0, "energy": inf
        ("8.596802369938572e125", "3.200244051981194e305", "5",
         "the log diameter is -inf: an intermediate value left the double range"),
        # L is finite but exp(L) overflows: the gradient of these points
        # wrote three numpy warnings before the exit
        ("-2.45e-183", "1.36e268", "2",
         "the weighted diameter exp(L) exceeds the double range"),
    ], ids=["log-diameter-minus-inf", "diameter-overflow"])
    def test_log_diameter_out_of_range_exits_two_without_warnings(self, a, s, n, message):
        code, out, err = fresh_process(["real", "--a", a, "--s", s, "--n", n])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_objective_out_of_range_exits_two_without_warnings(self):
        # the optimizer's line search, RealWeight.log_w and its convergence
        # ratio wrote three numpy RuntimeWarnings before the exit on L = -inf
        code, out, err = fresh_process(["real", "--a", "-2.158e60", "--s", "1.7e308",
                                        "--n", "2", "--method", "optimize"])
        assert (code, out, err) == (2, "", "error: the objective of RealWeight(a=2.158e+60, "
                                           "s=1.7e+308) at n = 2 leaves the double range\n")

    def test_invalid_s_exits_two(self, capsys):
        code, out, err = run(capsys, "real", "--a", "1", "--s", "0.5", "--n", "4")
        assert code == 2
        assert out == ""
        assert "s >= 1" in err

    def test_zero_a_exits_two(self, capsys):
        code, _, err = run(capsys, "real", "--a", "0", "--s", "2", "--n", "4")
        assert code == 2 and "nonzero" in err

    def test_small_n_exits_two(self, capsys):
        code, _, _ = run(capsys, "real", "--a", "1", "--s", "2", "--n", "1")
        assert code == 2

    def test_gamma_outside_window_exits_two(self, capsys):
        code, _, _ = run(capsys, "real", "--a", "1", "--s", "1", "--n", "4",
                         "--gamma", "1.0")
        assert code == 2

    def test_optimize_matches_closed(self, capsys):
        payload = run_json(capsys, "real", "--a", "1", "--s", "2", "--n", "3",
                           "--method", "optimize", "--seed", "1")
        assert payload["converged"] is True
        np.testing.assert_allclose(payload["points"],
                                   [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-6)

    def test_csv_format(self, capsys):
        out = run_ok(capsys, "real", "--a", "1", "--s", "2", "--n", "2",
                     "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("command,")
        assert "point_0" in lines[0] and "point_1" in lines[0]
        assert len(lines) == 2


class TestCircleCommand:
    def test_closed_half(self, capsys):
        payload = run_json(capsys, "circle", "--b", "0.5", "--n", "2")
        np.testing.assert_allclose(sorted(payload["points"]), [0.0, math.pi],
                                   atol=1e-12)
        assert payload["diameter"] == pytest.approx(2.6666667, abs=1e-6)
        assert circle_residual(payload["points"], 0.5) <= 1e-15  # every term is rounding

    def test_unweighted_five(self, capsys):
        payload = run_json(capsys, "circle", "--b", "0", "--n", "5")
        assert payload["diameter"] == pytest.approx(5.0 ** 0.25, rel=1e-12)
        gaps = np.diff(payload["points"] + [payload["points"][0] + 2 * math.pi])
        np.testing.assert_allclose(gaps, 2 * math.pi / 5, atol=1e-9)

    def test_charge_on_circle_exits_two(self, capsys):
        code, _, err = run(capsys, "circle", "--b", "1", "--n", "4")
        assert code == 2 and "excluded" in err

    @pytest.mark.parametrize("method", ["closed", "optimize"])
    def test_points_coinciding_next_to_the_charge_exit_one(self, capsys, method):
        # valid input whose points the program built coincide in double angles
        code, out, err = run(capsys, "circle", "--b", "0.999999999999999", "--n", "12",
                             "--method", method)
        assert code == 1 and out == ""
        assert "b=0.999999999999999" in err and "the 12 " in err
        assert "coincide in double precision" in err

    @pytest.mark.parametrize("b", ["1e200", "-1e200"])
    def test_closed_huge_charge(self, capsys, b):
        # (1 - b)^2 and 1 - b^2 leave the double range past |b| = 1.34e154
        mpmath = pytest.importorskip("mpmath")
        payload = run_json(capsys, "circle", "--b", b, "--n", "10")
        with mpmath.workdps(40):
            bb = mpmath.mpf(float(b))
            ref = float(mpmath.log(10) / 9 - mpmath.log(abs(1 - bb * bb)))
        assert abs(payload["log_diameter"] - ref) <= 1e-13 * max(1.0, abs(ref))
        assert payload["diameter"] == 0.0
        assert circle_residual(payload["points"], 0.0) <= 1e-13  # w is nearly flat

    @pytest.mark.parametrize("b", ["1e200", "-1e200"])
    def test_optimize_huge_charge_exits_cleanly(self, capsys, b):
        code, out, err = run(capsys, "circle", "--b", b, "--n", "10", "--method", "optimize")
        if code == 2:
            assert err.startswith("error: ")
        else:
            assert code == 0
            payload = json.loads(out)
            assert all(math.isfinite(payload[k]) for k in ("log_diameter", "grad_norm"))

    def test_cartesian_alongside_angles(self, capsys):
        code, out, _ = run(capsys, "circle", "--b", "0.5", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        for t, (x, y) in zip(payload["points"], payload["cartesian"]):
            assert x == pytest.approx(math.cos(t), abs=1e-12)
            assert y == pytest.approx(math.sin(t), abs=1e-12)


class TestMeasureCommand:
    def test_real_s_endpoint_rows(self, capsys):
        out = run_ok(capsys, "measure", "--family", "real-s", "--s", "2",
                     "--grid", "-2:2:5", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "x,density,cdf"
        rows = [line.split(",") for line in lines[1:]]
        xs = [float(r[0]) for r in rows]
        assert xs[0] == pytest.approx(-SQRT3)
        assert xs[-1] == pytest.approx(SQRT3)
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0
        assert float(rows[0][2]) == 0.0 and float(rows[-1][2]) == pytest.approx(1.0)
        assert all(-SQRT3 < x < SQRT3 for x in xs[1:-1])

    @pytest.mark.parametrize("family", [["real-s", "--s", "2"], ["arctan"]])
    def test_grid_span_past_the_double_range_exits_two(self, capsys, family):
        # hi - lo overflows: linspace's inner points came back NaN, which
        # real-s clipped away (exit 0) and arctan's cdf rejected as NaN
        code, out, err = run(capsys, "measure", "--family", *family,
                             "--grid", "-1e308:1e308:5")
        assert code == 2 and out == ""
        assert err == ("error: grid span hi - lo exceeds the double range, "
                       "got '-1e308:1e308:5'\n")
        rows = run_json(capsys, "measure", "--family", *family,
                        "--grid", "-1e308:-1e307:3")["rows"]
        assert all(math.isfinite(row[k]) for row in rows for k in ("x", "density", "cdf"))
        assert len(rows) == (2 if family[0] == "real-s" else 3)

    @pytest.mark.parametrize("grid, message", [
        ("1:2", "grid must look like lo:hi:count, got '1:2'"),
        ("a:b:3", "bad grid 'a:b:3': could not convert string to float: 'a'"),
        ("2:1:5", "grid needs hi >= lo and count >= 1"),
        ("0:1:0", "grid needs hi >= lo and count >= 1"),
    ])
    def test_malformed_grid_exits_two(self, capsys, grid, message):
        code, out, err = run(capsys, "measure", "--family", "arctan", "--grid", grid)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_one_density_and_one_cdf_call_per_grid(self, capsys, monkeypatch):
        calls = []
        for name in ("density", "cdf"):
            def counted(m, x, fn=getattr(cli, name), name=name):
                calls.append(name)
                return fn(m, x)
            monkeypatch.setattr(cli, name, counted)
        rows = run_json(capsys, "measure", "--family", "real-s", "--s", "2",
                        "--grid", "-2:2:3001")["rows"]
        assert len(rows) > 2000 and sorted(calls) == ["cdf", "density"]

    def test_arctan_density(self, capsys):
        out = run_ok(capsys, "measure", "--family", "arctan",
                     "--grid", "-1:1:3", "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [-1.0, 0.0, 1.0]
        assert float(rows[1][1]) == pytest.approx(1.0 / math.pi)
        assert float(rows[1][2]) == pytest.approx(0.5)

    def test_circle_poisson_density(self, capsys):
        out = run_ok(capsys, "measure", "--family", "circle-poisson",
                     "--b", "0.5", "--grid", "0:6.2832:8", "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(3.0 / (2 * math.pi))
        assert float(rows[-1][2]) == pytest.approx(1.0)

    def test_real_s_at_huge_s(self, capsys):
        # (s - 1)^2 overflows a Python float at s = 1e160
        out = run_ok(capsys, "measure", "--family", "real-s", "--s", "1e160",
                     "--grid", "-1:1:3")
        rows = json.loads(out)["rows"]
        assert [row["cdf"] for row in rows] == [0.0, 0.5, 1.0]
        assert rows[1]["density"] == pytest.approx(math.sqrt(2e160) / math.pi, rel=1e-14)

    @pytest.mark.parametrize("family", ["harmonic-inf", "harmonic-i"])
    @pytest.mark.parametrize("r", ["1e160", "1e200", "1e-300"])
    def test_harmonic_families_at_extreme_radius(self, capsys, family, r):
        # r^2 and (r - x)(r + x) leave the double range past r = 1.34e154 (the
        # densities read nan or 0, the CDF a flat 0.5) and below 1e-154
        mpmath = pytest.importorskip("mpmath")
        rr = float(r)
        grid = f"{-0.9 * rr!r}:{0.9 * rr!r}:7"
        rows = run_json(capsys, "measure", "--family", family, "--r", r, "--grid", grid)["rows"]
        xs = [row["x"] for row in rows]
        assert xs[0] == -rr and xs[-1] == rr and len(xs) == 9
        assert [(row["density"], row["cdf"]) for row in (rows[0], rows[-1])] == [(0, 0), (0, 1)]
        for row in rows[1:-1]:
            with mpmath.workdps(50):
                big, x = mpmath.mpf(rr), mpmath.mpf(row["x"])
                root = mpmath.sqrt(big * big - x * x)
                k = mpmath.sqrt(1 + big * big) if family == "harmonic-i" else 1
                ref_density = float(k / (mpmath.pi * (1 + x * x) ** (family == "harmonic-i")
                                         * root))
                ref_cdf = float(mpmath.mpf(0.5) + mpmath.atan(k * x / root) / mpmath.pi)
            assert abs(row["cdf"] - ref_cdf) <= 4e-16
            if ref_density > 1e-290:
                assert row["density"] == pytest.approx(ref_density, rel=1e-15)
            else:  # harmonic-i where 1 + x^2 overflows
                assert 0.0 <= row["density"] <= 1e-290

    @pytest.mark.parametrize("family", ["harmonic-inf", "harmonic-i"])
    def test_harmonic_radius_below_bound_exits_two(self, capsys, family):
        code, out, err = run(capsys, "measure", "--family", family, "--r", "1e-301",
                             "--grid", "0:1e-301:3")
        assert code == 2 and out == ""
        assert err == f"error: {family} requires r >= 1e-300: below it the density " \
                      "leaves the double range\n"

    def test_unknown_family_exits_two(self, capsys):
        code, _, _ = run(capsys, "measure", "--family", "real-s", "--s", "0.5",
                         "--grid", "0:1:2")
        assert code == 2

    def test_missing_family_parameter_exits_two(self, capsys):
        code, _, err = run(capsys, "measure", "--family", "real-s", "--grid", "0:1:2")
        assert code == 2 and "--s" in err

    def test_json_rows(self, capsys):
        payload = run_json(capsys, "measure", "--family", "harmonic-inf", "--r", "1",
                           "--grid", "-1:1:5")
        assert payload["family"] == "harmonic-inf"
        assert payload["rows"][0]["x"] == -1.0


class TestConvergeCommand:
    def test_real_table(self, capsys):
        out = run_ok(capsys, "converge", "--s", "2", "--n-list", "2,10,50",
                     "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        deltas = [float(r[1]) for r in rows]
        caps = [float(r[2]) for r in rows]
        ks = [float(r[4]) for r in rows]
        assert deltas[0] == pytest.approx(0.6495191, abs=1e-6)
        assert deltas[0] > deltas[1] > deltas[2] > caps[0]
        assert caps[0] == pytest.approx(3.0 ** 4.5 / 512.0, rel=1e-10)
        assert ks[2] < ks[1]

    def test_real_ks_decreases_to_large_n(self, capsys):
        out = run_ok(capsys, "converge", "--s", "2", "--n-list", "10,100,1000",
                     "--format", "csv")
        ks = [float(line.split(",")[4]) for line in out.strip().splitlines()[1:]]
        assert ks[0] > ks[1] > ks[2]

    def test_large_s_exits_zero(self, capsys):
        out = run_ok(capsys, "converge", "--s", "1e8", "--n-list", "10,50",
                     "--format", "csv")
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert all(r[1] > r[2] for r in rows)
        assert rows[0][2] == pytest.approx(3.340135934839185e-05, rel=1e-14)

    def test_circle_table(self, capsys):
        out = run_ok(capsys, "converge", "--b", "0.5", "--n-list", "2,10,50",
                     "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        deltas = [float(r[1]) for r in rows]
        assert deltas[0] == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert deltas[-1] > 4.0 / 3.0
        assert float(rows[0][2]) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_non_increasing_n_list_exits_two(self, capsys):
        code, _, err = run(capsys, "converge", "--s", "2", "--n-list", "5,3")
        assert code == 2 and "increasing" in err

    @pytest.mark.parametrize("target,message", [(("--s", "0.5"), "s >= 1"),
                                                (("--b", "1"), "excluded")])
    def test_invalid_target_exits_two(self, capsys, target, message):
        code, _, err = run(capsys, "converge", *target, "--n-list", "2,3")
        assert code == 2 and message in err

    @pytest.mark.parametrize("n_list, message", [
        ("5,x", "bad n-list '5,x': invalid literal for int() with base 10: 'x'"),
        ("1,4", "n-list entries must be integers >= 2"),
    ])
    def test_malformed_n_list_exits_two(self, capsys, n_list, message):
        code, out, err = run(capsys, "converge", "--s", "2", "--n-list", n_list)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_requires_exactly_one_target(self, capsys):
        code, _, _ = run(capsys, "converge", "--s", "2", "--b", "0.5",
                         "--n-list", "2,3")
        assert code == 2


SWEEP_SEED = 20261019
# ends and neighbours of the double range, and the points where a family's
# parameter domain or CircleWeight's scaling changes
SWEEP_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e-300, 1e300, 1.0, -1.0,
               math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 2.0 ** 128, -2.0 ** 128,
               1.7976931348623157e308, -1.7976931348623157e308)
FAMILY_OPTION = {"real-s": "--s", "arctan": None, "circle-poisson": "--b",
                 "harmonic-inf": "--r", "harmonic-i": "--r"}


def sweep_value(rng):
    """Log-uniform over [1e-320, 1e308] with either sign, or one time in five
    an edge value."""
    if rng.random() < 0.2:
        return rng.choice(SWEEP_EDGES)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)


def sweep_argv(rng, command):
    fmt = ["--format", rng.choice(("json", "csv"))]
    if command == "converge":
        ns = sorted(rng.sample(range(2, 80), rng.randint(1, 4)))
        return ["converge", rng.choice(("--s", "--b")), repr(sweep_value(rng)),
                "--n-list", ",".join(map(str, ns))] + fmt
    family = rng.choice(sorted(FAMILY_OPTION))
    lo, hi = sweep_value(rng), sweep_value(rng)
    if rng.random() < 0.8:
        lo, hi = sorted((lo, hi))
    argv = ["measure", "--family", family, "--grid", f"{lo!r}:{hi!r}:{rng.randint(1, 40)}"]
    if FAMILY_OPTION[family]:
        argv += [FAMILY_OPTION[family], repr(sweep_value(rng))]
    return argv + fmt


def sweep_points_argv(rng):
    """A real or circle command over sweep_value's domain; three in ten run
    the optimizer, at n <= 6."""
    if rng.random() < 0.3:
        method, n = "optimize", rng.randint(2, 6)
    else:
        method, n = "closed", rng.randint(2, 40)
    if rng.random() < 0.5:
        argv = ["real", "--a", repr(sweep_value(rng)), "--s", repr(sweep_value(rng))]
    else:
        argv = ["circle", "--b", repr(sweep_value(rng))]
    return argv + ["--n", str(n), "--method", method,
                   "--format", rng.choice(("json", "csv"))]


def sweep_numbers(text, fmt):
    """Every number a real or circle command prints."""
    if fmt == "csv":
        numbers = []
        for cell in csv_rows(text)[1]:
            try:
                numbers.append(float(cell))
            except ValueError:  # the command and method names
                pass
        return numbers

    def walk(value):
        if isinstance(value, dict):
            return [v for item in value.values() for v in walk(item)]
        if isinstance(value, list):
            return [v for item in value for v in walk(item)]
        return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []

    return walk(json.loads(text))


def sweep_row_count(argv):
    """The rows a measure or converge command that exits 0 prints."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "converge":
        return len(opts["--n-list"].split(","))
    family = opts["--family"]
    lo, hi, count = opts["--grid"].split(":")
    if family == "arctan":
        return int(count)
    make = {"real-s": MeasureSpec.real_sgt1, "circle-poisson": MeasureSpec.circle_poisson,
            "harmonic-inf": MeasureSpec.harmonic_inf, "harmonic-i": MeasureSpec.harmonic_i}
    first, last = make[family](float(opts[FAMILY_OPTION[family]])).support
    with np.errstate(over="ignore"):
        grid = np.linspace(float(lo), float(hi), int(count))
    # the grid clipped to the support, its ends pinned as the first and last rows
    return 2 + int(np.count_nonzero((grid > first) & (grid < last)))


def sweep_cells(text, fmt):
    """The cells of a measure or converge table, row by row."""
    if fmt == "json":
        return [list(row.values()) for row in json.loads(text)["rows"]]
    header, *rows = csv_rows(text)
    assert all(len(row) == len(header) for row in rows)
    return [[float(cell) for cell in row] for row in rows]


class TestContractSweep:
    def test_measure_and_converge_keep_the_exit_code_contract(self, capsys):
        # 600 invocations drawn from one seed, a third of them converge: each
        # exits 0 or 2 with no warning and no traceback, and on 0 prints a
        # table of the right length with finite cells
        rng = random.Random(SWEEP_SEED)
        failures, codes = [], []
        for i in range(600):
            argv = sweep_argv(rng, "converge" if i % 3 == 0 else "measure")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, *argv)
            codes.append(code)
            if code not in (0, 2) or caught or "Traceback" in err:
                failures.append((argv, code, [str(w.message) for w in caught], err))
            elif code == 0:
                rows = sweep_cells(out, argv[-1])
                if (len(rows) != sweep_row_count(argv)
                        or not all(math.isfinite(v) for row in rows for v in row)):
                    failures.append((argv, code, out[:200]))
        assert failures == []
        # the draw reaches both outcomes of both commands
        assert codes.count(0) > 200 and codes.count(2) > 200

    def test_real_and_circle_keep_the_exit_code_contract(self, capsys):
        # 1000 invocations drawn from one seed: each exits 0, 2 or 3 (an
        # unconverged optimizer result), or 1 with nothing on stdout where
        # the points coincide in double precision (b one ulp from 1), with
        # no warning and no traceback, and on 0 or 3 prints only finite
        # numbers
        rng = random.Random(SWEEP_SEED)
        failures, codes = [], []
        for _ in range(1000):
            argv = sweep_points_argv(rng)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, *argv)
            codes.append(code)
            coincide = code == 1 and out == "" and "coincide in double precision" in err
            if not (code in (0, 2, 3) or coincide) or caught or "Traceback" in err:
                failures.append((argv, code, [str(w.message) for w in caught], err))
            elif code in (0, 3) and not all(map(math.isfinite, sweep_numbers(out, argv[-1]))):
                failures.append((argv, code, out[:200]))
        assert failures == []
        assert codes.count(0) > 400 and codes.count(2) > 200 and codes.count(3) > 0


def csv_writer_text(header, rows):
    """The table as csv.writer writes it, floats given 17 digits first."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") if isinstance(v, (float, np.floating))
                         else v for v in row])
    return buf.getvalue()


def csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


class TestWriters:
    @pytest.mark.parametrize("argv", [
        "measure --family real-s --s 2 --grid -2:2:41",
        "measure --family circle-poisson --b -2 --grid -0.1:6.5:33",
        "measure --family arctan --grid -1e12:1e12:9",
        "converge --s 1 --n-list 10,20,30,1000",
        "converge --b 0.5 --n-list 2,10,50",
        "real --a 1 --s 2 --n 6",
        "real --a 0.5 --s 1 --n 7 --gamma -1.2",
        "circle --b -3 --n 5 --alpha 0.25",
        "real --a 1.3 --s 1 --n 1000 --gamma -1.5699",
        "circle --b -3.98 --n 1000 --alpha 0.0035",
    ])
    def test_csv_is_what_csv_writer_writes(self, capsys, argv):
        out = run_ok(capsys, *argv.split(), "--format", "csv")
        rows = csv_rows(out)
        assert out == csv_writer_text(rows[0], rows[1:])

    def test_csv_cells_of_every_type(self):
        header = ("n", "name", "x", "y", "z")
        rows = [(3, "real", 0.1, np.float64(-2.5e-300), np.int64(7)),
                (10**20, "closed", math.inf, -0.0, True)]
        assert _to_csv(header, [v for row in rows for v in row]) == csv_writer_text(header, rows)
        assert _to_csv(header, []) == csv_writer_text(header, [])

    @pytest.mark.parametrize("family, params, grid", [
        ("real-s", ("--s", "2.5"), "-2:2:57"),
        ("arctan", (), "-40:40:81"),
        ("circle-poisson", ("--b", "0.5"), "-0.5:7:61"),
        ("harmonic-inf", ("--r", "1.5"), "-2:2:45"),
        ("harmonic-i", ("--r", "0.75"), "-1:1:65"),
    ])
    def test_measure_parses_back_to_the_density_and_cdf_floats(self, capsys, family,
                                                              params, grid):
        m = {"real-s": lambda: MeasureSpec.real_sgt1(2.5), "arctan": MeasureSpec.arctan,
             "circle-poisson": lambda: MeasureSpec.circle_poisson(0.5),
             "harmonic-inf": lambda: MeasureSpec.harmonic_inf(1.5),
             "harmonic-i": lambda: MeasureSpec.harmonic_i(0.75)}[family]()
        argv = ("measure", "--family", family, *params, "--grid", grid)
        from_json = [(r["x"], r["density"], r["cdf"])
                     for r in run_json(capsys, *argv)["rows"]]
        from_csv = [tuple(map(float, r)) for r in csv_rows(run_ok(capsys, *argv, "--format",
                                                                  "csv"))[1:]]
        expected = [(x, density(m, x), cdf(m, x)) for x, _, _ in from_json]
        assert len(expected) > 30
        assert from_json == expected and from_csv == expected


class TestVerifyCommand:
    def test_poly_suite_passes(self, capsys):
        out = run_ok(capsys, "verify", "--suite", "poly")
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "checks passed" in lines[-1]

    def test_circle_suite_passes(self, capsys):
        out = run_ok(capsys, "verify", "--suite", "circle")

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        from fekete import verify

        monkeypatch.setitem(verify._SUITE_FUNCS, "circle", lambda: [
            verify.CheckResult("circle", "holds", 0.0, 1.0),
            verify.CheckResult("circle", "broken", 2.0, 1.0),
        ])
        code, out, err = run(capsys, "verify", "--suite", "circle")
        assert (code, err) == (1, "verification failed: broken\n")
        assert out.splitlines() == ["PASS circle/holds residual=0.000e+00 tol=1.0e+00",
                                    "FAIL circle/broken residual=2.000e+00 tol=1.0e+00",
                                    "1/2 checks passed"]

    def test_suite_choices_are_the_suites(self, capsys):
        from fekete.cli import VERIFY_SUITES
        from fekete.verify import SUITES

        assert VERIFY_SUITES == SUITES
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        assert "{poly,real,circle,energy,equilibrium,all}" in capsys.readouterr().err


class TestOutputErrors:
    """Failures on the output side and out of memory end in one error line
    and a documented exit code, never a traceback."""

    def test_out_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "real", "--a", "1", "--s", "2", "--n", "3",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["real", "--a", "1", "--s", "2", "--n", "3"],
        ["measure", "--family", "arctan", "--grid", "0:1:3"],
        ["verify", "--suite", "circle"],
    ])
    def test_out_naming_a_directory_exits_two(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_left_partly_written_is_removed(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "x.csv"

        class Full(io.StringIO):
            def write(self, text):
                target.write_text(text[:10])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "open", lambda *a, **k: Full(), raising=False)
        code, out, err = run(capsys, "real", "--a", "1", "--s", "2", "--n", "3",
                             "--format", "csv", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No space left on device\n"
        assert not target.exists()

    def test_closed_stdout_exits_141_quietly(self, capsys, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["real", "--a", "1", "--s", "1", "--n", "2000", "--format", "csv"]) == 141
        assert capsys.readouterr().err == ""

    def test_pipe_closed_before_the_write_exits_141_quietly(self):
        # the read end is closed before the child starts, so its first write
        # fails with EPIPE on every run
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "FEKETE_LOG"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fekete.__file__))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fekete.cli", "real", "--a", "1", "--s", "1",
                 "--n", "5"], stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    # 10^15 points ask for petabytes: the allocation fails at once, with no
    # page touched, on any 64-bit host
    @pytest.mark.parametrize("argv", [
        "real --a 1 --s 1 --n 1000000000000000",
        "real --a 1 --s 2 --n 1000000000000000",
        "circle --b 0.5 --n 1000000000000000",
        "real --a 1 --s 2 --n 1000000000000000 --method optimize",
        "circle --b 0.5 --n 1000000000000000 --method optimize",
        "measure --family arctan --grid 0:1:1000000000000000",
        "converge --s 2 --n-list 1000000000000000",
        "converge --b 0.5 --n-list 1000000000000000",
    ])
    def test_allocation_failure_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: not enough memory: ") and err.count("\n") == 1


class TestOutputContract:
    def test_determinism_byte_identical(self, capsys):
        for argv in (["real", "--a", "1", "--s", "2", "--n", "5"],
                     ["circle", "--b", "0.5", "--n", "7"]):
            argv = argv + ["--method", "optimize", "--seed", "42"]
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2

    def test_json_round_trip_full_precision(self, capsys):
        _, out, _ = run(capsys, "real", "--a", "1", "--s", "2", "--n", "4")
        payload = json.loads(out)
        # 17 significant digits reproduce the exact binary doubles
        for key in ("log_diameter", "diameter", "energy"):
            assert format(payload[key], ".17g") in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        out = run_ok(capsys, "real", "--a", "1", "--s", "2", "--n", "2",
                     "--out", str(target))
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["params"]["n"] == 2

    def test_repeated_calls_add_no_log_handlers(self, capsys):
        logger = logging.getLogger("fekete")
        before = len(logger.handlers)
        for _ in range(3):
            run(capsys, "circle", "--b", "0.5", "--n", "2")
        assert len(logger.handlers) == before

    @pytest.mark.parametrize("argv", [
        "circle --b inf --n 4", "circle --b nan --n 4 --method optimize",
        "circle --b 0.5 --n 4 --alpha nan", "measure --family arctan --grid -inf:0:3",
        "real --a 1 --s inf --n 4", "real --a nan --s 2 --n 4", "real --a inf --s 1 --n 4",
        "measure --family real-s --s inf --grid 0:1:3",
        "measure --family circle-poisson --b nan --grid 0:1:3",
        "measure --family harmonic-i --r inf --grid 0:1:3", "converge --s nan --n-list 4,8",
    ])
    def test_non_finite_parameter_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        "real --a 1 --s 5e307 --n 5", "real --a 1 --s 1e307 --n 50",
        "converge --s 1e308 --n-list 5", "measure --family real-s --s 1e308 --grid 0:1:2",
    ])
    def test_huge_s_exits_two(self, capsys, argv):
        # 2s(n-1) or 2s - 1 leaves the double range: the recurrence and the
        # support radius would turn into inf and nan; nothing reaches stdout
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "double range" in err
        assert "Traceback" not in err

    def test_negative_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main("real --a 1 --s 2 --n 5 --method optimize --seed -1".split())
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def elementwise_json(value):
    """Lists as the earlier serializer wrote them, one call per element."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(elementwise_json, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{k}": {elementwise_json(v)}' for k, v in value.items()) + "}"
    return _to_json(value)


class TestJsonLists:
    @pytest.mark.parametrize("value", [
        [-0.0, 5e-324, 1.7976931348623157e308, 0.1],
        [0.1, -2.5, 1e-300, math.inf, -math.inf, 3.0],
        [],
        [0.5],
        [1, 0.5, True, None, 'a"b\\c', np.float64(-0.0), np.int64(3), np.float32(0.1)],
        [[0.1, -0.0], [5e-324, 1.7976931348623157e308], [2.0, 3.5]],
        [[0.1, 0.2], [0.3]],
        [[0.1], [0.2, 0.3]],
        [[], []],
        [[[0.1, 0.2]], [[0.3, 0.4]]],
        [{"x": 0.1, "y": [0.2, -0.0]}, 0.3],
        (0.25, [0.5, (0.75,)]),
    ], ids=repr)
    def test_one_operation_per_list_matches_the_elementwise_form(self, value):
        assert _to_json(value) == elementwise_json(value)

    @pytest.mark.parametrize("breaker", [7, True, np.float64(-2.5e-300), None, [0.5, -0.0]],
                             ids=repr)
    @pytest.mark.parametrize("at", [0, 1, 500, 999])
    def test_wide_float_list_matches_the_elementwise_form(self, breaker, at):
        value = np.random.default_rng(at).normal(0.0, 1e3, 1000).tolist()
        assert _to_json(value) == elementwise_json(value)
        value[at] = breaker
        assert _to_json(value) == elementwise_json(value)
        assert value[at] is breaker  # the list is not written to


def fresh_process(argv):
    """Exit code, stdout and stderr of argv in a new interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "FEKETE_LOG"}
    env.update(PYTHONPATH=os.path.dirname(os.path.dirname(fekete.__file__)), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "fekete.cli", *argv], env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def in_process(capsys, argv):
    """The same triple from main in this process; argparse exits by raising."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneProcess:
    """main may be called any number of times in one process."""

    SEQUENCE = [
        *(f"{argv} --format {fmt}".split() for fmt in ("json", "csv") for argv in (
            "real --a 1 --s 2 --n 6",
            "circle --b -0.5 --n 7",
            "measure --family real-s --s 2 --grid -2:2:9",
            "converge --b 0.5 --n-list 2,10",
        )),
        "verify --suite circle".split(),
        "real --a 1 --s 2".split(),
        "converge --s 2 --b 0.5 --n-list 4,8".split(),
        ["--version"],
        "real --a 1 --s 2 --n 6 --format json".split(),
    ]

    def test_each_call_prints_what_a_fresh_process_prints(self, capsys, monkeypatch):
        monkeypatch.delenv("FEKETE_LOG", raising=False)
        monkeypatch.setenv("COLUMNS", "80")
        got = [in_process(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in got] == [0] * 9 + [2, 2, 0, 0]
        assert got == [fresh_process(argv) for argv in self.SEQUENCE]

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for argv in self.SEQUENCE[:3] + self.SEQUENCE[-4:]:
                in_process(capsys, argv)
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    @pytest.mark.parametrize("command", [[], ["real"], ["circle"], ["measure"], ["converge"],
                                         ["verify"]], ids=str)
    def test_help_is_a_fresh_parsers_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        in_process(capsys, self.SEQUENCE[0])
        code, out, err = in_process(capsys, command + ["--help"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--help"])
        assert (code, err) == (0, "") and out == capsys.readouterr().out
        assert out.startswith("usage: fekete")

    def test_log_level_is_read_on_every_call(self, capsys, monkeypatch):
        root = logging.getLogger()
        root_level, handlers = root.level, len(logging.getLogger("fekete").handlers)
        argv = "real --a 1 --s 2 --n 6 --method optimize".split()
        errs = []
        for level in ("debug", "off", "info", "off"):
            monkeypatch.setenv("FEKETE_LOG", level)
            code, _, err = in_process(capsys, argv)
            assert code == 0
            errs.append(err)
            assert len(logging.getLogger("fekete").handlers) <= handlers + 1
        assert errs[0].splitlines() == [
            "INFO fekete: optimizing 6 points",
            "DEBUG fekete.energy: start 0: objective -3.07067176939555 after 5+0 iterations"]
        assert errs[1:] == ["", "INFO fekete: optimizing 6 points\n", ""]
        assert root.level == root_level
        assert len(logging.getLogger("fekete").handlers) == handlers
        assert logging.getLogger("fekete").level == logging.NOTSET

    def test_unknown_log_level_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("FEKETE_LOG", "verbose")
        code, out, err = in_process(capsys, "circle --b 0.5 --n 2".split())
        assert code == 0 and json.loads(out)["params"]["n"] == 2
        assert err == "ignoring unknown FEKETE_LOG value 'verbose'\n"
