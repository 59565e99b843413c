"""Acceptance criteria, one test per criterion, at their pinned tolerances.

Criteria 04 (discriminant oracle), 05 (identity battery), 07 (measure
suite) and 10 (sine-product bound) are checks of ``fekete.verify`` on the
same inputs, or a sample of the same kind, at the same or tighter
tolerances; they run once per session in ``tests/test_verify.py``.
Each test here ends by printing a single PASS line (visible with pytest -s);
a failing assert marks the criterion FAIL.
"""

import json
import math

import numpy as np
import pytest

from fekete import (
    CircleWeight,
    MeasureSpec,
    OptimizerConfig,
    RealWeight,
    capacity_circle,
    capacity_real,
    circle_diameter,
    circle_points,
    frostman_check,
    ks_distance,
    log_weighted_vandermonde,
    mobius,
    optimize,
    pseudo_jacobi,
    roots,
    s1_diameter,
    sgt1_diameter,
    sgt1_points,
)
from fekete.cli import main as cli_main

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

_CFG = OptimizerConfig(starts=2, seed=2024)


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_optimizer_matches_closed_form_line_sgt1():
    worst_pts = 0.0
    worst_diam = 0.0
    for s in (1.5, 2.0):
        for n in range(2, 13):
            res = optimize(RealWeight(1.0, s), n, _CFG)
            ref = np.sort(roots(pseudo_jacobi(1.0, s, n)).real)
            worst_pts = max(worst_pts,
                            float(np.max(np.abs(np.asarray(res.points) - ref))))
            lwv = log_weighted_vandermonde(res.points, RealWeight(1.0, s))
            diam = math.exp(2.0 * lwv / (n * (n - 1)))
            closed = sgt1_diameter(1.0, s, n)
            worst_diam = max(worst_diam, abs(diam - closed) / closed)
    assert worst_pts <= 1e-6
    assert worst_diam <= 1e-8
    _report(1, f"line s>1 optimizer: point dev {worst_pts:.2e}, "
               f"diameter rel dev {worst_diam:.2e}")


def test_criterion_02_optimizer_matches_closed_form_line_s1():
    worst_energy = 0.0
    worst_gap = 0.0
    for n in range(2, 11):
        res = optimize(RealWeight(1.0, 1.0), n, _CFG)
        target = -math.log(n ** (1.0 / (n - 1)) / 2.0)
        worst_energy = max(worst_energy, abs(res.energy - target))
        ys = np.arctan(np.asarray(res.points))
        worst_gap = max(worst_gap, float(np.max(np.abs(np.diff(ys) - math.pi / n))))
    assert worst_energy <= 1e-8
    assert worst_gap <= 1e-5
    _report(2, f"line s=1 optimizer: energy dev {worst_energy:.2e}, "
               f"arctan gap dev {worst_gap:.2e}")


def test_criterion_03_optimizer_matches_closed_form_circle():
    worst_diam = 0.0
    worst_gap = 0.0
    for b in (0.0, 0.5, 2.0):
        for n in range(2, 13):
            res = optimize(CircleWeight(b), n, _CFG)
            closed = n ** (1.0 / (n - 1)) / abs(1.0 - b * b)
            worst_diam = max(worst_diam,
                             abs(math.exp(res.log_diameter) - closed) / closed)
            pre = np.sort(np.mod(
                np.angle(mobius(b, np.exp(1j * np.asarray(res.points)))), TWO_PI))
            gaps = np.diff(np.concatenate([pre, [pre[0] + TWO_PI]]))
            worst_gap = max(worst_gap, float(np.max(np.abs(gaps - TWO_PI / n))))
    assert worst_diam <= 1e-6
    assert worst_gap <= 1e-5
    _report(3, f"circle optimizer: diameter rel dev {worst_diam:.2e}, "
               f"preimage gap dev {worst_gap:.2e}")


def test_criterion_06_spot_values():
    assert abs(sgt1_diameter(1.0, 2.0, 2) - 3.0 * SQRT3 / 8.0) <= 1e-10
    assert abs(s1_diameter(1.0, 2) - 1.0) <= 1e-10
    assert abs(s1_diameter(1.0, 3) - SQRT3 / 2.0) <= 1e-10
    assert abs(circle_diameter(0.5, 2) - 8.0 / 3.0) <= 1e-10
    assert abs(capacity_real(1.0) - 0.5) <= 1e-10
    _report(6, "spot values: delta2(s=2), delta2/3(s=1), circle delta2(b=1/2), cap(s=1)")


def test_criterion_08_frostman_s2():
    report = frostman_check(2.0, np.linspace(-3.0, 3.0, 201))
    assert report.modified_robin == pytest.approx(0.9547713, abs=1e-7)
    assert report.frostman_max_violation <= 1e-6
    assert report.frostman_max_onsupport_deviation <= 1e-6
    _report(8, f"frostman s=2: violation {report.frostman_max_violation:.2e}, "
               f"on-support dev {report.frostman_max_onsupport_deviation:.2e}")


def test_criterion_09_convergence():
    cap = capacity_real(2.0)
    deltas = [sgt1_diameter(1.0, 2.0, n) for n in range(2, 51)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert abs(deltas[48] - cap) < abs(deltas[8] - cap)

    m = MeasureSpec.real_sgt1(2.0)
    d10 = ks_distance(sgt1_points(1.0, 2.0, 10), m)
    d50 = ks_distance(sgt1_points(1.0, 2.0, 50), m)
    assert d50 < d10

    cap_c = capacity_circle(0.5)
    deltas_c = [circle_diameter(0.5, n) for n in range(2, 51)]
    assert all(a > b for a, b in zip(deltas_c, deltas_c[1:]))
    assert abs(deltas_c[48] - cap_c) < abs(deltas_c[8] - cap_c)
    mc = MeasureSpec.circle_poisson(0.5)
    k10 = ks_distance(circle_points(0.5, 10, 0.0).angles, mc)
    k50 = ks_distance(circle_points(0.5, 50, 0.0).angles, mc)
    assert k50 < k10
    _report(9, f"convergence: line KS {d10:.3f}->{d50:.3f}, "
               f"circle KS {k10:.3f}->{k50:.3f}")


def test_criterion_11_cli_contract(capsys):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # real command examples
    code, out, _ = run("real", "--a", "1", "--s", "2", "--n", "2", "--method", "closed")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["points"], [-0.5773503, 0.5773503], atol=1e-6)
    assert payload["diameter"] == pytest.approx(0.6495191, abs=1e-6)

    code, out, _ = run("real", "--a", "1", "--s", "1", "--n", "2", "--method", "closed")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["points"], [-1.0, 1.0], atol=1e-9)
    assert payload["diameter"] == pytest.approx(1.0, rel=1e-10)

    code, _, err = run("real", "--a", "1", "--s", "0.5", "--n", "4")
    assert code == 2 and "s >= 1" in err

    # circle command examples
    code, out, _ = run("circle", "--b", "0.5", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["points"]) == pytest.approx([0.0, math.pi], abs=1e-12)
    assert payload["diameter"] == pytest.approx(2.6666667, abs=1e-6)

    code, out, _ = run("circle", "--b", "0", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    gaps = np.diff(payload["points"] + [payload["points"][0] + TWO_PI])
    np.testing.assert_allclose(gaps, TWO_PI / 5, atol=1e-9)
    assert payload["diameter"] == pytest.approx(5.0 ** 0.25, rel=1e-10)

    code, _, _ = run("circle", "--b", "1", "--n", "4")
    assert code == 2

    # further exit-code behaviors
    code, _, _ = run("converge", "--s", "2", "--n-list", "5,3")
    assert code == 2
    _report(11, "CLI contract")
