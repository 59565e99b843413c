import json
import logging
import math

import numpy as np
import pytest

from fekete.cli import main

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    - 2 (n-1) b sin t_k / (1 - 2b cos t_k + b^2)."""
    t = np.asarray(angles)
    half = (t[:, None] - t[None, :]) / 2.0
    np.fill_diagonal(half, math.pi / 2.0)
    pair = np.cos(half) / np.sin(half)
    np.fill_diagonal(pair, 0.0)
    field = 2.0 * b * (t.size - 1) * np.sin(t) / (1.0 - 2.0 * b * np.cos(t) + b * b)
    scale = np.sum(np.abs(pair), axis=1) + np.abs(field)
    return float(np.max(np.abs(np.sum(pair, axis=1) - field) / scale))


class TestOptimizeCommand:
    """Inputs on which the earlier two-stage optimizer exited 3."""

    @pytest.mark.parametrize("s, n", [(1.0, 48), (1.05, 24)])
    def test_line_converges(self, capsys, s, n):
        code, out, _ = run(capsys, "real", "--a", "1", "--s", str(s), "--n", str(n),
                           "--method", "optimize")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert line_residual(payload["points"], 1.0, s) <= 1e-9

    def test_circle_near_unit_charge_converges(self, capsys):
        code, out, _ = run(capsys, "circle", "--b", "0.99", "--n", "24",
                           "--method", "optimize")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert circle_residual(payload["points"], 0.99) <= 1e-9


class TestRealCommand:
    def test_closed_s2(self, capsys):
        code, out, _ = run(capsys, "real", "--a", "1", "--s", "2", "--n", "2",
                           "--method", "closed")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["points"], [-0.5773503, 0.5773503],
                                   atol=1e-6)
        assert payload["diameter"] == pytest.approx(0.6495191, abs=1e-6)
        assert payload["energy"] == pytest.approx(-payload["log_diameter"])
        assert payload["grad_norm"] <= 1e-9

    def test_closed_s1_canonical_gamma(self, capsys):
        code, out, _ = run(capsys, "real", "--a", "1", "--s", "1", "--n", "2",
                           "--method", "closed")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["points"], [-1.0, 1.0], atol=1e-9)
        assert payload["diameter"] == pytest.approx(1.0, rel=1e-12)

    def test_closed_s1_large_n(self, capsys):
        n = 1500
        code, out, _ = run(capsys, "real", "--a", "1", "--s", "1", "--n", str(n))
        assert code == 0
        steps = np.diff(np.arctan(json.loads(out)["points"]))
        np.testing.assert_allclose(steps, math.pi / n, atol=1e-9)

    @pytest.mark.parametrize("s, n", [(2.0, 1000), (5.0, 50)])
    def test_closed_sgt1_stationary_at_large_n(self, capsys, s, n):
        code, out, _ = run(capsys, "real", "--a", "1", "--s", str(s), "--n", str(n))
        assert code == 0
        assert line_residual(json.loads(out)["points"], 1.0, s) <= 1e-9

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
        code, out, _ = run(capsys, "real", "--a", "1", "--s", "2", "--n", "3",
                           "--method", "optimize", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        np.testing.assert_allclose(payload["points"],
                                   [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-6)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "real", "--a", "1", "--s", "2", "--n", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("command,")
        assert "point_0" in lines[0] and "point_1" in lines[0]
        assert len(lines) == 2


class TestCircleCommand:
    def test_closed_half(self, capsys):
        code, out, _ = run(capsys, "circle", "--b", "0.5", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(sorted(payload["points"]), [0.0, math.pi],
                                   atol=1e-12)
        assert payload["diameter"] == pytest.approx(2.6666667, abs=1e-6)

    def test_unweighted_five(self, capsys):
        code, out, _ = run(capsys, "circle", "--b", "0", "--n", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter"] == pytest.approx(5.0 ** 0.25, rel=1e-12)
        gaps = np.diff(payload["points"] + [payload["points"][0] + 2 * math.pi])
        np.testing.assert_allclose(gaps, 2 * math.pi / 5, atol=1e-9)

    def test_charge_on_circle_exits_two(self, capsys):
        code, _, err = run(capsys, "circle", "--b", "1", "--n", "4")
        assert code == 2 and "excluded" in err

    def test_cartesian_alongside_angles(self, capsys):
        code, out, _ = run(capsys, "circle", "--b", "0.5", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        for t, (x, y) in zip(payload["points"], payload["cartesian"]):
            assert x == pytest.approx(math.cos(t), abs=1e-12)
            assert y == pytest.approx(math.sin(t), abs=1e-12)


class TestMeasureCommand:
    def test_real_s_endpoint_rows(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "real-s", "--s", "2",
                           "--grid", "-2:2:5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,density,cdf"
        rows = [line.split(",") for line in lines[1:]]
        xs = [float(r[0]) for r in rows]
        assert xs[0] == pytest.approx(-SQRT3)
        assert xs[-1] == pytest.approx(SQRT3)
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0
        assert float(rows[0][2]) == 0.0 and float(rows[-1][2]) == pytest.approx(1.0)
        assert all(-SQRT3 < x < SQRT3 for x in xs[1:-1])

    def test_arctan_density(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "arctan",
                           "--grid", "-1:1:3", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [-1.0, 0.0, 1.0]
        assert float(rows[1][1]) == pytest.approx(1.0 / math.pi)
        assert float(rows[1][2]) == pytest.approx(0.5)

    def test_circle_poisson_density(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "circle-poisson",
                           "--b", "0.5", "--grid", "0:6.2832:8", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(3.0 / (2 * math.pi))
        assert float(rows[-1][2]) == pytest.approx(1.0)

    def test_unknown_family_exits_two(self, capsys):
        code, _, _ = run(capsys, "measure", "--family", "real-s", "--s", "0.5",
                         "--grid", "0:1:2")
        assert code == 2

    def test_missing_family_parameter_exits_two(self, capsys):
        code, _, err = run(capsys, "measure", "--family", "real-s", "--grid", "0:1:2")
        assert code == 2 and "--s" in err

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "harmonic-inf", "--r", "1",
                           "--grid", "-1:1:5")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "harmonic-inf"
        assert payload["rows"][0]["x"] == -1.0


class TestConvergeCommand:
    def test_real_table(self, capsys):
        code, out, _ = run(capsys, "converge", "--s", "2", "--n-list", "2,10,50",
                           "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        deltas = [float(r[1]) for r in rows]
        caps = [float(r[2]) for r in rows]
        ks = [float(r[4]) for r in rows]
        assert deltas[0] == pytest.approx(0.6495191, abs=1e-6)
        assert deltas[0] > deltas[1] > deltas[2] > caps[0]
        assert caps[0] == pytest.approx(3.0 ** 4.5 / 512.0, rel=1e-10)
        assert ks[2] < ks[1]

    def test_real_ks_decreases_to_large_n(self, capsys):
        code, out, _ = run(capsys, "converge", "--s", "2", "--n-list", "10,100,1000",
                           "--format", "csv")
        assert code == 0
        ks = [float(line.split(",")[4]) for line in out.strip().splitlines()[1:]]
        assert ks[0] > ks[1] > ks[2]

    def test_circle_table(self, capsys):
        code, out, _ = run(capsys, "converge", "--b", "0.5", "--n-list", "2,10,50",
                           "--format", "csv")
        assert code == 0
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

    def test_requires_exactly_one_target(self, capsys):
        code, _, _ = run(capsys, "converge", "--s", "2", "--b", "0.5",
                         "--n-list", "2,3")
        assert code == 2


class TestVerifyCommand:
    def test_poly_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "poly")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "checks passed" in lines[-1]

    def test_circle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "circle")
        assert code == 0


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
        code, out, _ = run(capsys, "real", "--a", "1", "--s", "2", "--n", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["params"]["n"] == 2

    def test_repeated_calls_add_no_log_handlers(self, capsys):
        logger = logging.getLogger("fekete")
        before = len(logger.handlers)
        for _ in range(3):
            run(capsys, "circle", "--b", "0.5", "--n", "2")
        assert len(logger.handlers) == before

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
