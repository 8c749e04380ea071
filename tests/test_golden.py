"""Golden reports: fixed inputs whose full reports must not drift.

``golden_reports.json`` was recorded by calling ``compute_reports`` below
with an earlier version of the library on the path: the first twelve cases
from the code as it stood before the verifiers were rebuilt around a single
root classification per instance, and the root classifications on the
L-shape and the trig curve and the square detour from the code as it stood
before point location was batched.  Ints, bools and strings must match exactly and floats to a relative
1e-12; values at the level of floating-point noise (under 1e-15 in magnitude)
are compared with that as an absolute floor.
"""

import json
import math
from pathlib import Path

import numpy as np

import zerowind.cli as cli
from zerowind import (
    Line,
    Polynomial,
    arg_derivative_probe,
    classify_roots,
    count_disc_preimages,
    polygon,
    radial_trig_curve,
    square,
    unit_circle,
    verify_detour,
    verify_main,
    verify_piecewise,
    verify_trig,
)

GOLDEN = Path(__file__).with_name("golden_reports.json")

_REL = 1e-12
_NOISE = 1e-15


def compute_reports(workdir) -> dict:
    """Every golden report, keyed by case name, as plain JSON values."""
    circle = unit_circle()
    trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
    workdir = Path(workdir)
    out = {
        "main_cube_real": verify_main(Polynomial([1, 3, 3, 1]), circle, Line.real_axis()).to_json(),
        "main_mixed": verify_main(
            Polynomial.from_roots([(0.3, 1), (np.exp(0.4j), 2)]), circle, Line(0.8)
        ).to_json(),
        "piecewise_square_corner": verify_piecewise(
            Polynomial.from_roots([(1 + 1j, 2)]), square(0.5 + 0.5j, 1.0), Line(0.4)
        ).to_json(),
        "trig_linear": verify_trig([1, 2]).to_json(),
        "trig_binomial": verify_trig([1, 4, 6, 4, 1]).to_json(),
        "trig_mixed": verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55]).to_json(),
        "detour_simple": verify_detour(Polynomial([-1, 1]), circle, Line.real_axis(), eps_schedule=[0.1])[
            0
        ].to_json(),
        "detour_double_with_interior": verify_detour(
            Polynomial.from_roots([(1.0, 2), (0.3, 1)]), circle, Line(0.3)
        )[0].to_json(),
        "disc_double": count_disc_preimages(Polynomial.from_roots([(1.0, 2)]), 1.0, 2, 1e-2, Line.real_axis()),
        "disc_triple_far_root": count_disc_preimages(
            Polynomial.from_roots([(1.0, 3), (-5.0, 1)]), 1.0, 3, 1e-3, Line.imag_axis()
        ),
        "probe_double_far_root": list(arg_derivative_probe(Polynomial.from_roots([(1.0, 2), (-3.0, 1)]), 1.0, 1e-2)),
        "probe_near_pair": list(arg_derivative_probe(Polynomial.from_roots([(0.5j, 1), (0.9j, 1)]), 0.5j, 0.1)),
        # roots at the reflex corner, mid-edge, inside and in the notch outside
        "classify_lshape": classify_roots(
            Polynomial.from_roots([(1 + 1j, 1), (1.0, 1), (0.5 + 0.5j, 1), (1.5 + 1.5j, 1)]),
            polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]),
        ).to_json(),
        "classify_trig_on_curve": classify_roots(
            Polynomial.from_roots([(trig.point(0.3), 1), (0.1j, 1), (2.0, 1)]), trig
        ).to_json(),
        "detour_square_edge": verify_detour(
            Polynomial.from_roots([(1 + 0.5j, 1), (0.4 + 0.6j, 1)]), square(0.5 + 0.5j, 1.0), Line(0.3)
        )[0].to_json(),
    }

    poly = workdir / "poly.json"
    poly.write_text(json.dumps({"coeffs": [[0.5, -0.25], [0.0, 1.0], [2.0, 0.0], [1.0, 0.5]]}))
    csv = workdir / "samples.csv"
    argv = ["emit-samples", "--poly", str(poly), "--curve", "square(0.2+0.1j,3)", "--line", "imag-axis"]
    rc = cli.main(argv + ["--resolution", "48", "--csv", str(csv), "--out", str(workdir / "rows.json")])
    rows = csv.read_text().splitlines()
    out["emit_samples"] = {"rc": rc, "header": rows[0], "rows": [[float(x) for x in r.split(",")] for r in rows[1:]]}
    return json.loads(json.dumps(out))


def _assert_same(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=_REL, abs_tol=_NOISE), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def test_reports_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = compute_reports(tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        _assert_same(got[name], want[name], name)
