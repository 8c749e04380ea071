import hashlib
import json
import warnings

import numpy as np
import pytest

import zerowind.cli as cli
from zerowind import Polynomial
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
        assert out["config_echo"] == {"band": None, "root_tol": 1e-10, "circle_tol": 1e-6, "merge_radius": 1e-7}

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

    def test_binomial_eight_verifies(self, tmp_path, capsys):
        # (1 + z)^8: 8 zeros of cos(4 t) and the order-8 zero at t = pi
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [1, 8, 28, 56, 70, 56, 28, 8, 1]})
        rc = cli.main(["trig-check", "--poly", poly])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (out["Z_P"], out["Z_Q"]) == (9, 9)

    def test_decimal_root_at_one_verifies(self, tmp_path, capsys):
        # (z - 1)(z - 0.3): in floats the zero at t = 0 is a near-touch of an ulp
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [0.3, -1.3, 1]})
        rc = cli.main(["trig-check", "--poly", poly])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        out = json.loads(captured.out)
        assert (out["Z_P"], out["Z_Q"], out["lambda"]) == (3, 1, 1)

    def test_extreme_scale_verifies(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [1e307] * 9})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["trig-check", "--poly", poly])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        out = json.loads(captured.out)
        assert (out["Z_P"], out["Z_Q"]) == (16, 16)
        assert out["coeffs"] == [1e307] * 9

    def test_zero_boundary_coefficient_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [0, 1, 1]})
        rc = cli.main(["trig-check", "--poly", poly])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize(
        "poly", [{"real_coeffs": [1.0, 2.0, 0.0]}, {"coeffs": [[1, 0], [2, 0], [0, 0]]}], ids=["real", "complex"]
    )
    def test_coefficients_taken_as_listed(self, tmp_path, poly, capsys):
        # the trailing zero was dropped, and the degree-1 sum [1.0, 2.0] reported with exit 0
        rc = cli.main(["trig-check", "--poly", write_json(tmp_path / "p.json", poly)])
        assert capsys.readouterr() == ("", "error: first and last coefficients must be nonzero\n")
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

    def test_overflowing_coefficient_exits_3(self, tmp_path, capsys):
        # a finite coefficient whose modulus overflows was an untyped OverflowError and a traceback
        poly = write_json(tmp_path / "p.json", {"coeffs": [[0, 0], [1.5e308, 1.5e308]]})
        rc = cli.main(["count-zeros", "--poly", poly, "--curve", "unit-circle"])
        assert "NoConvergence" in capsys.readouterr().err
        assert rc == 3

    @pytest.mark.parametrize("cmd", ["count-zeros", "winding"])
    def test_overflowing_derivative_exits_3(self, tmp_path, capsys, cmd):
        # 2 * 1e308 overflows in f': it exited 2, blaming a finite input
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [1, 0, 1e308]})
        rc = cli.main([cmd, "--poly", poly, "--curve", "unit-circle"])
        err = capsys.readouterr().err
        assert "NoConvergence" in err and "coefficient of z^1 in derivative 1 overflows" in err
        assert rc == 3


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

    @pytest.mark.parametrize(
        "drop",
        [
            lambda inst: inst.pop("curve"),
            lambda inst: inst["planted"].pop("bound"),
            lambda inst: inst.update(line=0.3),  # an angle without its {"angle": ...} object
            lambda inst: inst.update(curve={"segments": [1]}),  # a segment that is not an object
        ],
        ids=["no-curve", "no-bound", "bare-line", "number-segment"],
    )
    def test_malformed_replay_exits_2(self, tmp_path, drop, capsys, monkeypatch):
        import zerowind.harness

        def count(*args, **kwargs):
            raise AssertionError("counted before the whole file was read")

        inst = {
            "polynomial": {"real_coeffs": [-1.0, 1.0]},
            "curve": "unit-circle",
            "line": {"angle": 0.3},
            "planted": {"m": 0, "lambda": 1, "bound": 1, "on_curve_params": [0.0]},
        }
        drop(inst)
        rf = write_json(tmp_path / "replay.json", inst)
        monkeypatch.setattr(zerowind.harness, "count_preimages", count)
        assert cli.main(["harness", "--replay", rf]) == 2
        assert f"bad replay file {rf}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, reason",
        [
            ([], "a harness config must be a JSON object, not []"),
            ({"trials": 1.5}, "trials must be an integer, not 1.5"),
        ],
        ids=["list", "fractional-trials"],
    )
    def test_malformed_config_exits_2(self, tmp_path, config, reason, capsys):
        # the list crashed with an AttributeError (exit 1, read as a violation); 1.5 trials ran one
        assert cli.main(["harness", "--config", write_json(tmp_path / "h.json", config)]) == 2
        assert f"bad harness config: {reason}" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # both forms failed inside NumPy with "expected non-negative integer"
        message = "seed must be a non-negative integer, not -1"
        assert cli.main(["harness", "--config", write_json(tmp_path / "h.json", {"trials": 1, "seed": -1})]) == 2
        assert f"bad harness config: {message}" in capsys.readouterr().err
        assert cli.main(["harness", "--config", write_json(tmp_path / "ok.json", {"trials": 1}), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unplaceable_request_exits_2(self, tmp_path, capsys):
        # 65 roots 0.2 apart do not fit the circle's sites: an untyped RuntimeError once exited 1 with a traceback
        config = {"trials": 1, "max_degree": 80, "curve_family": "circle", "seed": 3}
        assert cli.main(["harness", "--config", write_json(tmp_path / "h.json", config)]) == 2
        err = capsys.readouterr().err
        assert err == "error: could not place separated roots: degree 65, separation 0.2, 200 attempts\n"

    def test_replay_refuses_seed(self, tmp_path, capsys):
        # the seed was silently ignored, with exit 0
        inst = {
            "polynomial": {"real_coeffs": [-1.0, 1.0]},
            "curve": "unit-circle",
            "line": {"angle": 0.3},
            "planted": {"m": 0, "lambda": 1, "bound": 1, "on_curve_params": [0.0]},
        }
        rf = write_json(tmp_path / "replay.json", inst)
        assert cli.main(["harness", "--replay", rf, "--seed", "3"]) == 2
        assert capsys.readouterr() == ("", "error: --seed goes with --config only\n")

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

    @pytest.mark.parametrize(
        "curve, line, digest",
        [
            ("circle(0.2+0.1j,1.3)", "imag-axis", "245aec70af1aa06c34beb86445114a5b6a9d64fbdd6380d3aff1135d5146055d"),
            ("square(0j,2)", "real-axis", "f95f31886120edf0cc89f7594a188321ec2b933149f2a137c768f3575eec5078"),
        ],
        ids=["circle", "square"],
    )
    def test_each_sample_evaluated_once(self, tmp_path, curve, line, digest, capsys, monkeypatch):
        # h comes from the f values of the re_f and im_f columns; the bytes are those of evaluating f twice
        poly = write_json(tmp_path / "p.json", {"coeffs": [[0.3, -0.2], [-1.1, 0.4], [0.0, 1.0], [1.0, 0.0]]})
        dest = tmp_path / "trace.csv"
        sizes, call = [], Polynomial.__call__

        def counted(self, z):
            sizes.append(np.size(z))
            return call(self, z)

        monkeypatch.setattr(Polynomial, "__call__", counted)
        argv = ["emit-samples", "--poly", poly, "--curve", curve, "--line", line, "--resolution", "500"]
        assert cli.main(argv + ["--csv", str(dest)]) == 0
        capsys.readouterr()
        assert sizes == [500]
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert cli.main(["winding", "--poly", "/nonexistent.json", "--curve", "unit-circle"]) == 2
        capsys.readouterr()

    def test_bad_curve_alias(self, tmp_path, cube_poly, capsys):
        assert cli.main(["winding", "--poly", cube_poly, "--curve", "heptagon"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "alias, reason",
        [
            ("square(0,-1)", "square side must be positive and finite"),
            ("square(0,0)", "square side must be positive and finite"),
            ("circle(nan,1)", "segment 0 has a non-finite point"),
            ("circle(0,inf)", "segment 0 has a non-finite point"),
        ],
        ids=["negative-square", "zero-square", "nan-circle", "inf-circle"],
    )
    def test_invalid_curve_alias_exits_2(self, cube_poly, alias, reason, capsys):
        # the negative square once built the positive one, and the NaN circle a curve with a NaN diameter
        assert cli.main(["winding", "--poly", cube_poly, "--curve", alias]) == 2
        assert reason in capsys.readouterr().err

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
            ["crossings", "--curve", "unit-circle", "--line", "real-axis", "--resolution", "7"],
        ],
        ids=["emit-samples-delta", "count-zeros-resolution", "winding-resolution", "crossings-resolution"],
    )
    def test_unread_flag_rejected(self, cube_poly, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--poly", cube_poly])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("segments", [[1], "ab"], ids=["number", "string"])
    def test_segment_not_an_object_exits_2(self, tmp_path, cube_poly, segments, capsys):
        # each segment was read with .get, so these crashed with an AttributeError (exit 1)
        curve = write_json(tmp_path / "curve.json", {"segments": segments})
        assert cli.main(["count-zeros", "--poly", cube_poly, "--curve", curve]) == 2
        assert "a segment must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, obj",
        [
            (["count-zeros", "--curve", "unit-circle", "--poly"], {"real_coeffs": [1, 10**400]}),
            (
                ["count-zeros", "--poly", "CUBE", "--curve"],
                {"segments": [{"kind": "arc", "center": [0, 0], "radius": 10**400, "from": 0, "to": 6.3}]},
            ),
            (["trig-check", "--poly"], {"coeffs": [[1, 0], [10**400, 0]]}),
            (["crossings", "--poly", "CUBE", "--curve", "unit-circle", "--line"], {"angle": 10**400}),
            (
                ["harness", "--replay"],
                {
                    "polynomial": {"real_coeffs": [-1.0, 10**400]},
                    "curve": "unit-circle",
                    "line": {"angle": 0.3},
                    "planted": {"m": 0, "lambda": 1, "bound": 1, "on_curve_params": [0.0]},
                },
            ),
        ],
        ids=["count-zeros", "arc-radius", "trig-check", "crossings-line", "harness-replay"],
    )
    def test_oversized_integer_exits_2(self, tmp_path, cube_poly, argv, obj, capsys):
        # a JSON integer too large for a float ended in an OverflowError traceback and exit 1
        path = write_json(tmp_path / "big.json", obj)
        rc = cli.main([cube_poly if a == "CUBE" else a for a in argv] + [path])
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and path in err and "int too large to convert to float" in err
        assert rc == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["winding", "--poly", str(bad), "--curve", "unit-circle"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["crossings", "--curve", "unit-circle", "--line", "real-axis", "--delta", "0"],
            ["emit-samples", "--curve", "unit-circle", "--csv", "unused.csv", "--resolution", "0"],
            ["detour", "--curve", "unit-circle", "--line", "real-axis", "--epsilon", "0"],
        ],
        ids=["delta", "resolution", "epsilon"],
    )
    def test_zero_flag_exits_2(self, tmp_path, argv, capsys):
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [-1, 1]})
        assert cli.main(argv + ["--poly", poly]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--curve", "unit-circle", "--line", "NAN_LINE"],
            ["verify", "--curve", "unit-circle", "--line", "INF_LINE"],
            ["count-zeros", "--curve", "unit-circle", "--delta", "inf"],
            ["count-zeros", "--curve", "unit-circle", "--delta", "nan"],
            ["winding", "--curve", "unit-circle", "--delta", "nan"],
            ["crossings", "--curve", "unit-circle", "--line", "real-axis", "--delta", "inf"],
            ["trig-check", "--delta", "nan"],
            ["detour", "--curve", "unit-circle", "--line", "real-axis", "--epsilon", "nan"],
        ],
        ids=["nan-angle", "inf-angle", "inf-delta", "nan-delta", "winding-nan-delta", "crossings-inf-delta",
             "trig-check-nan-delta", "nan-epsilon"],
    )
    def test_non_finite_input_exits_2(self, tmp_path, argv, capsys):
        # f = (z - 0.3)(z - 1): an infinite band reported the inside root as on the curve (exit 0),
        # a NaN angle was reported as a bound violation (exit 1), a NaN band exited 3
        poly = write_json(tmp_path / "p.json", {"real_coeffs": [0.3, -1.3, 1]})
        lines = {
            "NAN_LINE": write_json(tmp_path / "nan.json", {"angle": float("nan")}),
            "INF_LINE": write_json(tmp_path / "inf.json", {"angle": float("inf")}),
        }
        dest = tmp_path / "report.json"
        argv = [lines.get(a, a) for a in argv]
        assert cli.main(argv + ["--poly", poly, "--out", str(dest)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not dest.exists()

    def test_report_determinism(self, tmp_path, cube_poly):
        outs = []
        for name in ("r1.json", "r2.json"):
            dest = tmp_path / name
            cli.main(
                ["verify", "--poly", cube_poly, "--curve", "unit-circle", "--line", "real-axis", "--out", str(dest)]
            )
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]
