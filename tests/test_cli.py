import json

import pytest

import zerowind.cli as cli
from zerowind.verify import BoundReport


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def cube_poly(tmp_path):
    # (z+1)^3
    return write_json(tmp_path / "poly.json", {"real_coeffs": [1, 3, 3, 1]})


class TestCrossingsCommand:
    def test_counts_and_exit(self, tmp_path, cube_poly, capsys):
        rc = cli.main(["crossings", "--poly", cube_poly, "--curve", "unit-circle", "--line", "real-axis"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        # boundary zero at -1 plus the three phase-alignment points
        assert out["count"] == 4
        assert "config_echo" in out and out["config_echo"]["samples"] == 4096

    def test_out_file(self, tmp_path, cube_poly):
        dest = tmp_path / "report.json"
        rc = cli.main(
            ["crossings", "--poly", cube_poly, "--curve", "unit-circle", "--line", "imag-axis", "--out", str(dest)]
        )
        assert rc == 0
        assert json.loads(dest.read_text())["count"] == 3


class TestWindingCommand:
    def test_square_power(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [0, 0, 1]})
        rc = cli.main(["winding", "--poly", poly, "--curve", "unit-circle"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["winding"] == 2

    def test_zero_on_curve_exits_3(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [-1, 1]})
        rc = cli.main(["winding", "--poly", poly, "--curve", "unit-circle"])
        capsys.readouterr()
        assert rc == 3


class TestVerifyCommands:
    def test_verify_holds(self, tmp_path, cube_poly, capsys):
        rc = cli.main(["verify", "--poly", cube_poly, "--curve", "unit-circle", "--line", "real-axis"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["holds"] is True
        assert out["bound"] == 3

    def test_verify_piecewise_square(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"coeffs": [[-1.0, -1.0], [1.0, 0.0]]})  # z-(1+i)
        rc = cli.main(
            ["verify-piecewise", "--poly", poly, "--curve", "square(0.5+0.5j,1)", "--line", "real-axis"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["bound"] == 1

    def test_violation_maps_to_exit_1(self, tmp_path, cube_poly, capsys, monkeypatch):
        fake = BoundReport(measured=0, bound=3, m=0, lam=3, per_corner=(), holds=False, instance={})
        monkeypatch.setattr(cli, "verify_main", lambda *a, **k: fake)
        rc = cli.main(["verify", "--poly", cube_poly, "--curve", "unit-circle", "--line", "real-axis"])
        capsys.readouterr()
        assert rc == 1

    def test_detour_command(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [-1, 1]})
        rc = cli.main(
            ["detour", "--poly", poly, "--curve", "unit-circle", "--line", "real-axis", "--epsilon", "0.1"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["winding"] == 1
        assert out["preimage_count"] >= 2

    def test_detour_honours_delta(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [-(1.0 + 1e-8), 1]})
        argv = ["--poly", poly, "--curve", "unit-circle", "--delta", "1e-7"]
        assert cli.main(["count-zeros"] + argv) == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == 1
        rc = cli.main(["detour", "--line", "real-axis"] + argv)
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["lambda"] == 1 and out["winding"] == 1


class TestTrigCheck:
    def test_basic(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [1, 2]})
        rc = cli.main(["trig-check", "--poly", poly])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (out["Z_P"], out["Z_Q"]) == (2, 0)
        assert out["bound_holds"] is True

    def test_zero_boundary_coefficient_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [0, 1, 1]})
        rc = cli.main(["trig-check", "--poly", poly])
        capsys.readouterr()
        assert rc == 2

    def test_complex_coefficient_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"coeffs": [[1, 0], [2, 0.5]]})
        rc = cli.main(["trig-check", "--poly", poly])
        assert "coefficient 1 is not real" in capsys.readouterr().err
        assert rc == 2
        poly = write_json(tmp_path / "q.json", {"coeffs": [[1, 0], [2, 0]]})
        rc = cli.main(["trig-check", "--poly", poly])
        assert json.loads(capsys.readouterr().out)["coeffs"] == [1.0, 2.0]
        assert rc == 0


class TestCountZeros:
    def test_schema(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [0, -1, 0, 1]})  # z(z-1)(z+1)
        rc = cli.main(["count-zeros", "--poly", poly, "--curve", "unit-circle"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["m"] == 1 and out["lambda"] == 2


class TestHarnessCommand:
    def test_config_run(self, tmp_path, capsys):
        cfgf = write_json(
            tmp_path / "h.json", {"trials": 6, "max_degree": 4, "curve_family": "circle", "seed": 10}
        )
        rc = cli.main(["harness", "--config", cfgf])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["all_hold"] is True
        assert out["trials"] == 6

    def test_replay_file(self, tmp_path, capsys):
        import numpy as np

        from zerowind.harness import HarnessConfig, random_instance

        inst = random_instance(
            np.random.default_rng(2), HarnessConfig(trials=1, curve_family="circle", seed=2), min_on_curve=1
        )
        rf = write_json(tmp_path / "replay.json", inst.to_json())
        rc = cli.main(["harness", "--replay", rf])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["replay"]["holds"] is True

    def test_needs_exactly_one_input(self, capsys):
        assert cli.main(["harness"]) == 2
        capsys.readouterr()


class TestEmitSamples:
    def test_csv_contract(self, tmp_path, cube_poly, capsys):
        dest = tmp_path / "trace.csv"
        rc = cli.main(
            [
                "emit-samples",
                "--poly",
                cube_poly,
                "--curve",
                "unit-circle",
                "--line",
                "imag-axis",
                "--resolution",
                "64",
                "--csv",
                str(dest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "t,re_gamma,im_gamma,re_f,im_f,h"
        assert len(lines) == 65
        t, rg, ig, rf, imf, h = map(float, lines[1].split(","))
        assert t == 0.0 and rg == 1.0
        assert rf == pytest.approx(8.0)  # (1+1)^3
        assert h == pytest.approx(-8.0)  # imag-axis residual is -Re f

    def test_deterministic_bytes(self, tmp_path, cube_poly, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            cli.main(["emit-samples", "--poly", cube_poly, "--curve", "unit-circle", "--csv", str(dest)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert cli.main(["winding", "--poly", "/nonexistent.json", "--curve", "unit-circle"]) == 2
        capsys.readouterr()

    def test_bad_curve_alias(self, tmp_path, cube_poly, capsys):
        assert cli.main(["winding", "--poly", cube_poly, "--curve", "heptagon"]) == 2
        capsys.readouterr()

    def test_unknown_flag_rejected(self, cube_poly):
        with pytest.raises(SystemExit) as exc:
            cli.main(["winding", "--poly", cube_poly, "--curve", "unit-circle", "--frob", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["emit-samples", "--curve", "unit-circle", "--csv", "unused.csv", "--delta", "-1"],
            ["count-zeros", "--curve", "unit-circle", "--resolution", "7"],
            ["winding", "--curve", "unit-circle", "--resolution", "7"],
        ],
        ids=["emit-samples-delta", "count-zeros-resolution", "winding-resolution"],
    )
    def test_unread_flag_rejected(self, cube_poly, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--poly", cube_poly])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["winding", "--poly", str(bad), "--curve", "unit-circle"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["crossings", "--curve", "unit-circle", "--line", "real-axis", "--delta", "0"],
            ["crossings", "--curve", "unit-circle", "--line", "real-axis", "--resolution", "0"],
            ["detour", "--curve", "unit-circle", "--line", "real-axis", "--epsilon", "0"],
        ],
        ids=["delta", "resolution", "epsilon"],
    )
    def test_zero_flag_exits_2(self, tmp_path, argv, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [-1, 1]})
        assert cli.main(argv + ["--poly", poly]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_report_determinism(self, tmp_path, cube_poly):
        outs = []
        for name in ("r1.json", "r2.json"):
            dest = tmp_path / name
            cli.main(
                ["verify", "--poly", cube_poly, "--curve", "unit-circle", "--line", "real-axis", "--out", str(dest)]
            )
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]
