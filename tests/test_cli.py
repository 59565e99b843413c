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
        argv = ["real", "--a", "1", "--s", "2", "--n", "5", "--method", "optimize",
                "--seed", "42"]
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
