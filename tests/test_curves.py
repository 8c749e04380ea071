import re
import sys
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zerowind._numeric
import zerowind.curves
from zerowind import (
    AmbiguousClassification,
    ArcSegment,
    DetourFailed,
    JordanCurve,
    Line,
    LineSegment,
    NoConvergence,
    Polynomial,
    TrigSegment,
    build_detour,
    circle,
    classify_point,
    classify_roots,
    curve_from_alias,
    interior_angle,
    logderiv_integral,
    polygon,
    radial_trig_curve,
    square,
    trig_curve_from_complex_fourier,
    unit_circle,
    verify_detour,
    verify_trig,
    winding_count,
)
from zerowind.curves import GRID_SAMPLES, classify_points, nearest_parameter
from zerowind.harness import HarnessConfig, random_instance, run_harness

from oracles import (
    dense_chain,
    full_matrix_diameter,
    polygon_interior_angle,
    polyline_chain_meeting,
    sampled_inside,
    segment_probes,
)

TWO_PI = 2 * np.pi


class TestSampling:
    def test_unit_circle_quarters(self, circle_curve):
        for got, want in zip(circle_curve.grid(4), [1, 1j, -1, -1j]):
            assert got == pytest.approx(want, abs=1e-15)

    def test_square_eight_includes_corners(self, unit_square):
        pts = unit_square.grid(8)
        corners = {c.location for c in unit_square.corners}
        hits = sum(any(abs(p - c) < 1e-12 for c in corners) for p in pts)
        assert hits == 4
        assert sorted(unit_square.corner_parameters()) == [i / 8 for i in range(8) if any(
            abs(pts[i] - c) < 1e-12 for c in corners
        )]

    def test_closure_gap(self):
        curves = [
            unit_circle(),
            square(0.3 + 0.2j, 1.7),
            polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]),
            radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]),
        ]
        for curve in curves:
            k = len(curve.segments)
            for i in range(k):
                gap = abs(complex(curve.segments[i].points(1.0)) - complex(curve.segments[(i + 1) % k].points(0.0)))
                assert gap < 1e-12
            # wrap evaluation is exact by construction
            assert abs(curve.point(0.0) - curve.point(1.0)) < 1e-12

    @pytest.mark.parametrize("n", [0, -4, 2.5, 8.0])
    def test_grid_refuses_a_size_that_is_not_an_integer_from_1(self, n):
        # before reading or writing the cache: a fresh curve caches nothing, and a cached sampling is not sliced
        curve = circle(0.5, 2.0)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            curve.grid(n)
        assert "_sampling" not in curve.__dict__
        assert curve.grid(8192)[::2048].tolist() == curve.points(np.arange(4) / 4).tolist()
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            curve.grid(n)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            logderiv_integral(Polynomial([0, 1]), curve, n)

    def test_tangent_is_global_derivative(self, circle_curve):
        t = 3 / 16
        # d/dt exp(2 pi i t) = 2 pi i exp(2 pi i t)
        assert circle_curve.deriv(t) == pytest.approx(TWO_PI * 1j * circle_curve.point(t), rel=1e-12)


class TestClassification:
    def test_circle_inside_outside(self, circle_curve):
        assert classify_point(circle_curve, 0, 1e-9).kind == "inside"
        assert classify_point(circle_curve, 2, 1e-9).kind == "outside"

    def test_circle_on_curve_parameter(self, circle_curve):
        loc = classify_point(circle_curve, np.exp(0.3j), 1e-9)
        assert loc.kind == "on-curve"
        assert loc.t == pytest.approx(0.3 / TWO_PI, abs=1e-9)

    def test_square_point_sides(self, unit_square):
        assert classify_point(unit_square, 0.2 + 0.1j).kind == "inside"
        assert classify_point(unit_square, 3 + 3j).kind == "outside"
        assert classify_point(unit_square, 1 + 0.37j).kind == "on-curve"

    def test_near_trig_point_is_exact(self):
        # the closed form places a point 2e-12 off a trig curve, where the sampled winding could not
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        normal = -1j * trig.deriv(0.3) / abs(trig.deriv(0.3))
        assert classify_point(trig, trig.point(0.3) + 2e-12 * normal, band=1e-12).kind == "outside"
        assert classify_point(trig, trig.point(0.3) - 2e-12 * normal, band=1e-12).kind == "inside"
        with pytest.raises(AmbiguousClassification, match="within rounding"):
            classify_point(trig, trig.point(0.3) + 4e-15 * normal, band=1e-16)

    def test_near_circle_point_is_exact(self, circle_curve):
        # the closed form places 1 + 2e-12 outside the unit circle, as |p| > 1 says
        p = 1.0 + 2e-12
        assert abs(p) > 1.0
        assert classify_point(circle_curve, p, band=1e-12).kind == "outside"
        assert classify_point(circle_curve, 1.0 - 2e-12, band=1e-12).kind == "inside"

    def test_point_within_rounding_of_arc_is_ambiguous(self, circle_curve):
        with pytest.raises(AmbiguousClassification, match="within rounding"):
            classify_point(circle_curve, 1.0 + 4.4e-16, band=1e-16)

    @pytest.mark.parametrize("p", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)])
    @pytest.mark.parametrize("name", ["circle", "trig"])
    def test_non_finite_point_rejected(self, name, p):
        curve = unit_circle() if name == "circle" else radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        with pytest.raises(ValueError, match="non-finite point") as exc:
            classify_points(curve, [0.1, p])
        assert str(p) in str(exc.value)

    def test_band_must_be_positive(self, circle_curve):
        with pytest.raises(ValueError):
            classify_point(circle_curve, 0.5, band=0.0)

    @pytest.mark.parametrize("band", [np.inf, np.nan])
    def test_band_must_be_finite(self, circle_curve, band):
        # an infinite band put every point on the curve; a NaN band none
        with pytest.raises(ValueError, match="positive and finite"):
            classify_points(circle_curve, [0.3, 1.0], band=band)
        f = Polynomial.from_roots([0.3, 1.0])
        with pytest.raises(ValueError, match="positive and finite"):
            classify_roots(f, circle_curve, band=band)
        with pytest.raises(ValueError, match="positive and finite"):
            winding_count(Polynomial.from_roots([0.3]), circle_curve, band=band)

    def test_random_points_against_modulus(self, circle_curve):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = rng.uniform(0.1, 2.0)
            if abs(r - 1.0) < 1e-3:
                continue
            z = r * np.exp(1j * rng.uniform(0, TWO_PI))
            want = "inside" if r < 1 else "outside"
            assert classify_point(circle_curve, z).kind == want


def _located_point_sets():
    """(curve, points, expected kinds): inside, outside, on an edge, at a corner or joint."""
    lshape = polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
    return [
        (unit_circle(), [0.2 + 0.1j, 1.5 - 0.3j, np.exp(0.7j), 1.0], ["inside", "outside", "on-curve", "on-curve"]),
        (square(0.0, 2.0), [0.3 - 0.2j, 3 + 1j, 1 + 0.37j, 1 + 1j], ["inside", "outside", "on-curve", "on-curve"]),
        (
            lshape,
            [0.5 + 0.5j, 1.5 + 1.5j, 2 + 0.5j, 1 + 1j, 0.0],
            ["inside", "outside", "on-curve", "on-curve", "on-curve"],
        ),
        (trig, [0.1j, 2.0, trig.point(0.3), trig.point(0.0)], ["inside", "outside", "on-curve", "on-curve"]),
    ]


_ORACLE_CURVES = (
    "circle",
    "off-centre-circle",
    "square",
    "lshape",
    "stadium",
    "circle-detour",
    "square-detour",
    "lshape-detour",
    "trig",
    "trig-five-harmonics",
    "trig-detour",
)


@cache
def _oracle_curve(name: str) -> JordanCurve:
    """Circles, a square, an L-shape, a stadium, radial trig curves and detour composites of each kind."""
    if name.startswith("trig"):
        if name == "trig-five-harmonics":
            return radial_trig_curve([(0.05, 0.02), (-0.03, 0.01), (0.01, 0.02), (0.0, -0.01), (0.005, 0.0)], 1.3)
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        if name == "trig":
            return trig
        return build_detour(trig, [trig.point(0.1), trig.point(0.45), trig.point(0.8)]).composite
    if name == "circle":
        return unit_circle()
    if name == "off-centre-circle":
        return circle(0.3 - 0.2j, 1.7)
    if name == "square":
        return square(0.0, 2.0)
    if name == "lshape":
        return polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    if name == "stadium":
        return JordanCurve.from_segments(
            [
                LineSegment(-1 - 1j, 1 - 1j),
                ArcSegment(1, 1.0, -np.pi / 2, np.pi / 2),
                LineSegment(1 + 1j, -1 + 1j),
                ArcSegment(-1, 1.0, np.pi / 2, 3 * np.pi / 2),
            ]
        )
    if name == "circle-detour":
        return build_detour(unit_circle(), [np.exp(0.7j), -1j, np.exp(2.5j)]).composite
    if name == "square-detour":
        return build_detour(square(0.0, 2.0), [1 + 0.37j, -1 - 1j, -0.2 + 1j]).composite
    return build_detour(_oracle_curve("lshape"), [1 + 1j, 0.5, 2 + 0.5j]).composite


def _count_searches(monkeypatch) -> list[str]:
    """Names of the sampled searches called from now on, wrapped in every zerowind module that holds them."""
    calls = []
    for name in ("golden_min", "adaptive_winding"):
        original = getattr(zerowind._numeric, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("zerowind") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestClosedFormInside:
    """Inside/outside, summed in closed form per segment, against the sampled winding it replaced."""

    @pytest.mark.parametrize("name", _ORACLE_CURVES)
    def test_agrees_with_sampled_winding(self, name):
        curve = _oracle_curve(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        ts = rng.uniform(0.0, 1.0, 40)
        normals = -1j * curve.derivs(ts) / np.abs(curve.derivs(ts))
        offsets = curve.diameter * 10.0 ** rng.uniform(-8.5, 0.0, 40) * rng.choice([-1.0, 1.0], 40)
        ps = curve.points(ts) + offsets * normals
        got = [loc.kind for loc in classify_points(curve, ps)]
        assert got == [sampled_inside(curve, p) for p in ps]
        # offsets to the left of the counterclockwise tangent, short of the next edge, are inside
        near = np.abs(offsets) < 1e-4 * curve.diameter
        assert all(kind == ("inside" if off < 0 else "outside") for kind, off in zip(np.array(got)[near], offsets[near]))

    @pytest.mark.parametrize("name", ["circle", "square", "lshape"])
    def test_classify_roots_makes_no_sampled_winding(self, name, monkeypatch):
        curve = _oracle_curve(name)
        calls = _count_searches(monkeypatch)
        roots = [0.3 + 0.2j, 0.5 + 0.5j, 5.0, -4j, curve.point(0.3), 1.9 + 1.9j]
        report = classify_roots(Polynomial.from_roots([(r, 1) for r in roots]), curve)
        assert report.lam == 1 and report.m + report.outside.total_multiplicity == 5
        assert calls == []


class TestBatchLocation:
    @pytest.mark.parametrize("case", range(4), ids=["circle", "square", "lshape", "trig"])
    def test_batch_equals_singles(self, case):
        curve, points, kinds = _located_point_sets()[case]
        batch = classify_points(curve, points)
        singles = [classify_points(curve, [p])[0] for p in points]
        assert [loc.kind for loc in batch] == kinds
        assert batch == singles
        for got, want in zip(batch, singles):
            if got.kind == "on-curve":
                assert got.t.hex() == want.t.hex()
        assert singles == [classify_point(curve, p) for p in points]

    def test_empty_batch(self, circle_curve):
        assert classify_points(circle_curve, []) == []

    def test_ambiguous_point_in_batch(self):
        # radial_trig_curve([(1.0, 0.0)], base_radius=0.5), a limaçon, is rejected: only an unchecked build gives it;
        # its diameter (1.76) only scales the band, so a bound on it does
        seg = TrigSegment((0.5, 0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5, 0.0, 0.5), 0.0, TWO_PI)
        limacon = JordanCurve._assembled((seg,), 2.0)
        with pytest.raises(AmbiguousClassification) as alone:
            classify_point(limacon, 0.2)
        with pytest.raises(AmbiguousClassification) as batched:
            classify_points(limacon, [5.0, 0.2, -5.0])
        assert str(batched.value) == str(alone.value)
        # +-5 lie outside its annulus 0 <= |z - 0.5| <= 1 and are placed by it; 0.2 takes the winding path
        assert str(alone.value) == "winding around (0.2+0j) is 2.000000"

    @pytest.mark.parametrize("name", ["trig", "trig-detour"])
    def test_trig_curves_never_search(self, name, monkeypatch):
        # every segment kind locates points in closed form: no golden refine and no sampled winding
        curve = _oracle_curve(name)
        calls = _count_searches(monkeypatch)
        roots = [0.3, -0.5j, 2.0, curve.point(0.3), curve.point(0.7), -3 + 1j]
        report = classify_roots(Polynomial.from_roots([(r, 1) for r in roots]), curve)
        assert (report.m, report.lam) == (2, 2)
        kinds = ["inside", "inside", "outside", "on-curve", "on-curve", "outside"]
        assert [loc.kind for loc in classify_points(curve, roots)] == kinds
        assert calls == []

    @pytest.mark.parametrize("case", range(3), ids=["circle", "square", "lshape"])
    def test_arcs_and_lines_never_search(self, case, monkeypatch):
        curve, points, kinds = _located_point_sets()[case]
        calls = _count_searches(monkeypatch)
        assert [loc.kind for loc in classify_points(curve, points)] == kinds
        report = classify_roots(Polynomial.from_roots([(p, 1) for p in points]), curve)
        assert report.lam == kinds.count("on-curve")
        assert calls == []


def _trig_segment(coeffs: dict[int, complex], theta0: float, theta1: float) -> TrigSegment:
    """The segment of z(t) = sum_m coeffs[m] e^{imt} on [theta0, theta1], unchecked: TrigSegment._laurent inverted."""
    kmax = max(abs(m) for m in coeffs)
    c = [complex(coeffs.get(m, 0.0)) for m in range(-kmax, kmax + 1)]
    x, y = [c[kmax].real], [c[kmax].imag]
    for k in range(1, kmax + 1):
        pos, neg = c[kmax + k], c[kmax - k]
        x += [(pos + neg).real, (neg - pos).imag]
        y += [(pos + neg).imag, (pos - neg).real]
    return TrigSegment(tuple(x), tuple(y), theta0, theta1)


def _location(curve: JordanCurve, p: complex) -> str:
    try:
        return classify_point(curve, p).kind
    except AmbiguousClassification:
        return "ambiguous"


def _location_by_winding(curve: JordanCurve, p: complex) -> str:
    """The location of p by its nearest point and closed-form winding alone, without the annulus."""
    try:
        return zerowind.curves._located(curve, np.array([p]), curve.default_band(), curve.extent())[0].kind
    except AmbiguousClassification:
        return "ambiguous"


_part = st.floats(-1.0, 1.0).map(lambda v: 0.0 if abs(v) < 1e-3 else v)


class TestAnnulusLocation:
    """A one-segment full-turn trig curve places the points off its first-harmonic annulus by Rouché's theorem."""

    @given(
        st.integers(1, 3),
        st.sampled_from([1, -1]),
        st.sampled_from([TWO_PI, -TWO_PI]),
        # parts below 1e-3 are 0: tiny nonzero end coefficients underflow the nearest-point polynomial's
        # leading coefficient, and np.roots raises LinAlgError there
        st.lists(st.tuples(_part, _part), min_size=7, max_size=7),
        # the rest's weight over |c_s|: above 1 the annulus has no inner circle
        st.floats(0.05, 1.5),
        st.floats(0.0, TWO_PI),
        st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=80, deadline=None, database=None)
    def test_same_kinds_as_two_pieces_and_sampled_winding(self, kmax, s, sweep, pairs, weight, phase, direction):
        coeffs = {k: complex(*pairs[k + 3]) for k in range(-kmax, kmax + 1) if k != s}
        rest = sum(abs(c) for k, c in coeffs.items() if k != 0)
        if rest > 0.0:
            coeffs = {k: c * (weight / rest if k != 0 else 1.0) for k, c in coeffs.items()}
        coeffs[s] = np.exp(1j * phase)
        seg = _trig_segment(coeffs, 0.0, sweep)
        c = seg._coefficients
        size, k = np.abs(c), len(c) // 2
        s = 1 if size[k + 1] >= size[k - 1] else -1  # c_-s can outweigh c_s
        rho = size.sum() - size[k] - size[k + s]
        r_in, r_out = size[k + s] - rho, size[k + s] + rho
        diameter = 2.0 * r_out
        one = JordanCurve._assembled((seg,), diameter)
        try:
            two = JordanCurve._assembled((seg.subsegment(0.0, 0.5), seg.subsegment(0.5, 1.0)), diameter)
        except ValueError:
            return  # a cusp at the cut: the piecewise curve cannot be built
        band, unit = one.default_band(), np.exp(1j * direction)
        offsets = (0.0, 1e-12, -1e-12, band, -band, 1e-3, -1e-3)
        points = [complex(c[k] + (radius + off) * unit) for radius in (r_in, r_out) for off in offsets]
        kinds = zerowind.curves._annulus_kinds(one, np.array(points), band, one.extent())
        if s * np.sign(sweep) != 1:
            assert kinds is None
            kinds = [""] * len(points)
        elif r_in > 2e-3:
            assert (kinds[offsets.index(-1e-3)], kinds[len(offsets) + offsets.index(1e-3)]) == ("inside", "outside")
        # where the distance to the curve is the band to rounding, rounding decides on-curve or not: not compared
        _, dist = nearest_parameter(one, np.array(points))
        for p, kind, d in zip(points, kinds, dist.tolist()):
            got = _location(one, p)
            if kind:
                assert got == kind == _location_by_winding(one, p)
            if abs(d - band) > 1e-6 * band:
                assert _location(two, p) == got
            if got in ("inside", "outside") and d > 1e-6 * diameter:
                assert sampled_inside(one, p) == got

    @given(
        st.integers(-30, 30),
        st.complex_numbers(max_magnitude=2.0),
        st.floats(0.1, 2.0),
        st.lists(st.floats(0.0, TWO_PI), min_size=7, max_size=7),
    )
    @settings(max_examples=80, deadline=None, database=None)
    def test_circles_place_points_as_the_winding_does(self, k, centre, radius, directions):
        # scaling by 2^k is exact, so the circle's coefficients 0, c, R are the drawn ones times 2^k
        centre, radius = centre * 2.0**k, radius * 2.0**k
        curve = circle(centre, radius)
        band = curve.default_band()
        offsets = (0.0, 1e-12 * radius, -1e-12 * radius, band, -band, 1e-3 * radius, -1e-3 * radius)
        points = [centre + (radius + off) * np.exp(1j * d) for off, d in zip(offsets, directions)]
        kinds = zerowind.curves._annulus_kinds(curve, np.array(points), band, curve.extent())
        # on-curve and near points go to the nearest-point path; the points 1e-3 R off are placed
        assert kinds.tolist() == [""] * 5 + ["outside", "inside"]
        for p, kind in zip(points[5:], kinds[5:]):
            assert _location_by_winding(curve, p) == kind == sampled_inside(curve, p)

    def test_only_full_circles_reach_the_annulus(self):
        def kinds(curve, points):
            return zerowind.curves._annulus_kinds(curve, np.array(points), curve.default_band(), curve.extent())

        circle_points = [0.2 + 0.1j, 1.5 - 0.3j, np.exp(0.7j), 1.0]
        assert kinds(unit_circle(), circle_points).tolist() == ["inside", "outside", "", ""]
        assert kinds(circle(0.3 + 0.2j, 0.5), [0.3 + 0.2j, 2.0, 0.8 + 0.2j]).tolist() == ["inside", "outside", ""]
        # a clockwise circle winds -1 times, so its certificate places nothing
        assert kinds(JordanCurve._assembled((ArcSegment(0.0, 1.0, TWO_PI, 0.0),), 2.0), circle_points) is None
        halves = JordanCurve.from_segments([ArcSegment(0.0, 1.0, 0.0, np.pi), ArcSegment(0.0, 1.0, np.pi, TWO_PI)])
        half_disc = JordanCurve.from_segments([ArcSegment(0.0, 1.0, 0.0, np.pi), LineSegment(-1.0, 1.0)])
        for curve in (halves, half_disc):
            assert kinds(curve, circle_points) is None
        for curve, points, _ in _located_point_sets()[1:3]:  # the square and the L-shape
            assert kinds(curve, points) is None


class TestNegligibleHarmonics:
    """A harmonic under the rounding of sum_k |c_k| takes no part in nearest points or windings."""

    def test_every_point_of_the_ellipse_is_located(self):
        # the ellipse x = 1.3 cos t, y = 0.7 sin t; 1e-185 and 1e-130 underflowed
        # the nearest-point polynomial's leading coefficient, and np.roots raised LinAlgError
        ellipse = trig_curve_from_complex_fourier({1: 1.0, -1: 0.3, 2: 1e-185, -2: 1e-130j})
        got = classify_points(ellipse, [0.3, 0.9, 1.9, 1.3, -0.7j])
        assert [loc.kind for loc in got] == ["inside", "inside", "outside", "on-curve", "on-curve"]
        assert (got[3].t, got[4].t) == (0.0, 0.75)

    def test_winding_of_the_cut_curve(self):
        # z = e^{-it} + 0.5i e^{it} + 4e-185i e^{2it}, t from 0 to -2 pi, runs counterclockwise;
        # the roots of w^2 (z - 0.499) put the winding of the cut curve around 0.499 at -1
        seg = _trig_segment({-1: 1.0, 1: 0.5j, 2: 4e-185j}, 0.0, -TWO_PI)
        whole = JordanCurve.from_segments([seg])
        cut = JordanCurve.from_segments([seg.subsegment(0.0, 0.5), seg.subsegment(0.5, 1.0)])
        for curve in (whole, cut):
            assert _location_by_winding(curve, 0.499) == "inside"
            assert _location_by_winding(curve, 1.6) == "outside"

    def test_segments_without_them_keep_their_coefficients(self):
        seg = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]).segments[0]
        assert seg._root_coefficients is seg._coefficients
        ellipse = trig_curve_from_complex_fourier({1: 1.0, -1: 0.3, 2: 1e-80}).segments[0]
        assert ellipse._root_coefficients.tolist() == ellipse._coefficients[1:-1].tolist()  # c_-1, c_0, c_1

    def test_underflowing_nearest_point_polynomial_raises_a_typed_error(self):
        # no harmonic is negligible here, but the products of 1e-158 coefficients underflow
        tiny = trig_curve_from_complex_fourier({1: 1e-158, -1: 3e-159, 2: 1e-159})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoConvergence):
            classify_points(tiny, [9e-159])


class TestDiameter:
    """The blocked diameter is the float of the full distance table."""

    @staticmethod
    @st.composite
    def _circle_chains(draw):
        """1 to 12 arcs, chords and trig arcs between increasing angles on one circle: a convex, counterclockwise curve."""
        n = draw(st.integers(1, 12))
        center = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
        radius = draw(st.floats(0.01, 5.0))
        gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
        angles = draw(st.floats(0.0, TWO_PI)) + TWO_PI * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
        kinds = draw(st.lists(st.sampled_from(["arc", "line", "trig"]), min_size=n, max_size=n))
        if n < 3 and "arc" not in kinds and "trig" not in kinds:
            kinds[0] = "arc"  # two chords between the same two points enclose nothing
        segs = []
        for kind, a0, a1 in zip(kinds, angles[:-1].tolist(), angles[1:].tolist()):
            if kind == "arc":
                segs.append(ArcSegment(center, radius, a0, a1))
            elif kind == "line":
                segs.append(LineSegment(center + radius * np.exp(1j * a0), center + radius * np.exp(1j * a1)))
            else:
                segs.append(TrigSegment((center.real, radius, 0.0), (center.imag, 0.0, radius), a0, a1))
        return segs

    @given(_circle_chains())
    @settings(max_examples=60, deadline=None, database=None)
    def test_chains_of_arcs_lines_and_trig_segments(self, segs):
        assert JordanCurve.from_segments(segs).diameter == full_matrix_diameter(segment_probes(segs))

    @given(st.sampled_from(["circle", "square"]), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None, database=None)
    def test_detour_composites(self, kind, ts):
        curve = circle(0.3 - 0.2j, 1.3) if kind == "circle" else square(0.1j, 2.0)
        zs = list(dict.fromkeys(curve.points(np.array(ts)).tolist()))
        try:
            composite = build_detour(curve, zs).composite
        except DetourFailed:
            assume(False)
        assert composite.diameter == full_matrix_diameter(segment_probes(composite.segments))

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, database=None)
    def test_any_number_of_points(self, n, seed):
        # from_segments always probes 64 points per segment; other sizes end in a partial block
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert zerowind.curves._diameter(pts) == full_matrix_diameter(pts)


class TestWorkBudget:
    """Curve evaluations per fixed instance must not grow back.

    The budgets are ``JordanCurve._dispatch`` counts.  Every segment kind
    locates points in closed form, one dispatch per batch.  The golden
    refine on every curve, with two calls per step, took 477, 786, 167 and
    158 dispatches on these instances; with one call per step, 207, 164, 6
    and 82.  With each curve sampled once on its cached grid, a cold run
    takes 53, 46, 2 and 27.  With preimages counted as polynomial roots
    instead of by a sampled search, the first two take 13 and 24: the
    nearest-point batches, the grids and one point per preimage found.  With
    nearest points and windings on trig segments taken from Laurent roots
    instead of a scan, a golden refine and a sampled winding, the last
    takes 1.  With the detour's crossings bisected in one call that
    predicts its path, the second takes 19.  A detour composite of a
    circle, all arcs, is then answered from its arc table: one dispatch
    still evaluates all the points of a batch, and building, evaluating and
    locating points on it evaluates no arc on its own.

    Separately, every grid scan and winding pass reads the curve's one
    cached sampling, and orientation samples nothing, so a curve is
    evaluated at 1024 or more points once: when first sampled, at the most
    points any caller asks for (8192 for a detour's base curve, 2048 for
    its composite).  A harness trial on a trig-perturbed curve, which is
    proved simple in closed form, samples it at 256 points only.
    """

    @staticmethod
    def _dispatches(monkeypatch, fn):
        calls = []
        original = JordanCurve._dispatch

        def counted(self, t, per_segment):
            calls.append(1)
            return original(self, t, per_segment)

        monkeypatch.setattr(JordanCurve, "_dispatch", counted)
        fn()
        return len(calls)

    @staticmethod
    def _large_evaluations(monkeypatch, fn):
        """The curves evaluated at 1024 or more points, once per such evaluation, and the curves built."""
        evaluated, built = [], []
        points, from_segments = JordanCurve.points, JordanCurve.from_segments.__func__

        def counted_points(self, t):
            if np.size(t) >= 1024:
                evaluated.append(self)
            return points(self, t)

        def counted_from_segments(cls, *args, **kwargs):
            built.append(from_segments(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(JordanCurve, "points", counted_points)
        monkeypatch.setattr(JordanCurve, "from_segments", classmethod(counted_from_segments))
        fn()
        return evaluated, built

    def test_verify_trig(self, monkeypatch):
        assert self._dispatches(monkeypatch, lambda: verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55])) <= 13

    def test_verify_detour(self, monkeypatch):
        f = Polynomial.from_roots([(1.0, 2), (0.3, 1)])
        assert self._dispatches(monkeypatch, lambda: verify_detour(f, unit_circle(), Line(0.3))) <= 19

    def test_detour_composites_evaluate_no_arc_alone(self, monkeypatch):
        # only the simplicity test's pair decisions, not counted here, still take the composite's arcs two at a time
        f = Polynomial.from_roots([(1.0, 1), (1j, 1), (0.3, 1)])
        _, detour = verify_detour(f, circle(0.0, 1.0), Line(0.3))
        segs = detour.composite.segments
        assert len(segs) == 4 and all(isinstance(seg, ArcSegment) for seg in segs)
        calls, counting = [], [True]
        for name in ("points", "nearest", "turns", "derivs"):
            original = getattr(ArcSegment, name)

            def counted(self, arg, _original=original, _name=name):
                if counting[0]:
                    calls.append(_name)
                return _original(self, arg)

            monkeypatch.setattr(ArcSegment, name, counted)
        check_simple = zerowind.curves._check_simple

        def uncounted(curve):
            counting[0] = False
            try:
                return check_simple(curve)
            finally:
                counting[0] = True

        monkeypatch.setattr(zerowind.curves, "_check_simple", uncounted)
        curve = JordanCurve.from_segments(segs)
        curve.points(np.arange(2048) / 2048)
        curve.derivs(np.arange(2048) / 2048)
        zs = [z for z, _ in detour.excised]
        locations = classify_points(curve, zs + [0.0, 5.0, curve.point(0.3)])
        assert [loc.kind for loc in locations] == ["inside", "inside", "inside", "outside", "on-curve"]
        assert calls == []

    def test_on_curve_batches_sum_no_winding(self, monkeypatch):
        # a batch of on-curve points, as a detour's base curve locates, sums no joint gaps or segment turns
        calls = []
        original = zerowind.curves._windings

        def counted(curve, ps):
            calls.append(len(ps))
            return original(curve, ps)

        monkeypatch.setattr(zerowind.curves, "_windings", counted)
        curve = square(0.3, 2.0)
        locations = classify_points(curve, [curve.point(0.1), curve.point(0.7)])
        assert [loc.kind for loc in locations] == ["on-curve", "on-curve"]
        assert calls == []
        assert [loc.kind for loc in classify_points(curve, [curve.point(0.1), 0.3])] == ["on-curve", "inside"]
        assert calls == [1]

    def test_unit_circle_sampled_once_per_process(self, monkeypatch):
        def run():
            verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55])
            verify_trig([0.3, -0.8, 0.1, 0.6])

        evaluated, _ = self._large_evaluations(monkeypatch, run)
        assert len(evaluated) <= 1
        assert unit_circle() is unit_circle()

    def test_verify_detour_samples_each_curve_once(self, monkeypatch):
        f = Polynomial.from_roots([(1.0, 2), (0.3, 1)])
        evaluated, built = self._large_evaluations(monkeypatch, lambda: verify_detour(f, circle(0.0, 1.0), Line(0.3)))
        assert len(built) >= 2  # the base circle and at least one composite
        assert [id(c) for c in evaluated] == [id(c) for c in built]

    def test_verify_detour_samples_composites_at_2048(self, monkeypatch):
        # the winding count's 2048-point probe; its lift-off grid and the preimage count's grid are views of it
        rng = np.random.default_rng(3)
        cases = [(Polynomial.from_roots([(1.0, 2), (0.3, 1)]), circle(0.0, 1.0), Line(0.3))]
        for family in ("circle", "square"):
            for _ in range(5):
                cfg = HarnessConfig(max_degree=5, curve_family=family)
                inst = random_instance(rng, cfg, min_on_curve=1, max_multiplicity=1, separation=0.7)
                cases.append((inst.polynomial, inst.curve, inst.line))
        largest, built = {}, []
        points, from_segments = JordanCurve.points, JordanCurve.from_segments.__func__

        def counted_points(self, t):
            largest[id(self)] = max(largest.get(id(self), 0), np.size(t))
            return points(self, t)

        def counted_from_segments(cls, *args, **kwargs):
            built.append(from_segments(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(JordanCurve, "points", counted_points)
        monkeypatch.setattr(JordanCurve, "from_segments", classmethod(counted_from_segments))
        for f, curve, line in cases:
            del built[:]
            _, detour = verify_detour(f, curve, line)
            assert detour.composite in built
            assert largest[id(detour.composite)] == 2048
            assert all(largest.get(id(c), 0) <= 2048 for c in built)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_planted_trig_trial_samples_no_curve_densely(self, monkeypatch, seed):
        cfg = HarnessConfig(trials=1, max_degree=6, curve_family="trig-perturbed", seed=seed)
        evaluated, built = self._large_evaluations(monkeypatch, lambda: run_harness(cfg))
        assert len(built) == 1
        assert evaluated == []

    def test_classify_roots(self, monkeypatch):
        f = Polynomial.from_roots([(r, 1) for r in (0.3 + 0.3j, 0.5 + 0.5j, 5, -4j, 1 + 1j, 2j)])

        def run():
            classify_roots(f, polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]))

        assert self._dispatches(monkeypatch, run) <= 2

    def test_classify_roots_on_trig_curve(self, monkeypatch):
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        f = Polynomial.from_roots([(r, 1) for r in (0.3, -0.5j, 2.0, trig.point(0.3), trig.point(0.7), -3 + 1j)])
        assert self._dispatches(monkeypatch, lambda: classify_roots(f, trig)) <= 1

    def test_classify_roots_off_the_annulus_solves_nothing(self, monkeypatch):
        # roots at half and twice a trig-perturbed circle's points lie off its annulus 0.96 <= |z - c_0| <= 1.04
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        roots = [scale * trig.point(t) for scale in (0.5, 2.0) for t in (0.1, 0.35, 0.6, 0.85)]
        calls = []
        for name in ("nearest", "turns"):
            original = getattr(TrigSegment, name)

            def counted(self, ps, _original=original, _name=name):
                calls.append(_name)
                return _original(self, ps)

            monkeypatch.setattr(TrigSegment, name, counted)
        report = classify_roots(Polynomial.from_roots([(r, 1) for r in roots]), trig)
        assert (report.m, report.lam, report.outside.total_multiplicity) == (4, 0, 4)
        assert calls == []

    def test_cosine_sum_roots_on_the_unit_circle_need_no_nearest_point(self, monkeypatch):
        # the roots of a cosine sum's polynomial and of its reversal, none on the circle, are placed by the annulus
        calls = []
        original = zerowind.curves.nearest_parameter

        def counted(curve, ps):
            calls.append(len(ps))
            return original(curve, ps)

        monkeypatch.setattr(zerowind.curves, "nearest_parameter", counted)
        coeffs = [0.7, -0.2, 0.45, -0.9, 0.3, 0.55]
        for f in (Polynomial(coeffs), Polynomial(coeffs[::-1])):
            report = classify_roots(f, unit_circle())
            assert (report.lam, report.m + report.outside.total_multiplicity) == (0, 5)
        assert calls == []

    def test_one_complex_exp_per_call(self, monkeypatch):
        # a trig segment is a Laurent polynomial in w = exp(i t): one complex exp, then Horner in w and conj(w)
        seg = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]).segments[0]
        assert len(seg.coeffs_x) == len(seg.coeffs_y) == 7
        calls = []

        def counted(name):
            original = getattr(np, name)

            def wrapped(x, *args, **kwargs):
                calls.append((name, np.size(x), np.iscomplexobj(x)))
                return original(x, *args, **kwargs)

            return wrapped

        for name in ("exp", "cos", "sin"):
            monkeypatch.setattr(np, name, counted(name))
        s = np.linspace(0.0, 1.0, 50)
        seg.points(s)
        assert calls == [("exp", 50, True)]
        seg.derivs(s)
        assert calls == [("exp", 50, True)] * 2

    def test_points_go_through_the_kernel(self, monkeypatch):
        # a traced run wraps the kernel in every zerowind module that holds it, as the perfbench span does
        seg = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]).segments[0]
        original, calls = zerowind._numeric.trig_series, []

        def counted(*args):
            calls.append(1)
            return original(*args)

        holders = [
            module
            for name, module in sys.modules.items()
            if name.startswith("zerowind") and getattr(module, "trig_series", None) is original
        ]
        assert zerowind.curves in holders
        for module in holders:
            monkeypatch.setattr(module, "trig_series", counted)
        seg.points(np.linspace(0.0, 1.0, 5))
        seg.points(0.25)
        assert calls == [1, 1]


class TestInteriorAngle:
    def test_smooth_point_is_pi(self, circle_curve):
        for t in (0.0, 0.123, 0.75):
            assert interior_angle(circle_curve, t) == pytest.approx(np.pi, abs=1e-6)

    def test_square_corner(self, unit_square):
        for c in unit_square.corners:
            assert c.interior_angle == pytest.approx(np.pi / 2, abs=1e-12)
            assert interior_angle(unit_square, c.parameter) == c.interior_angle

    def test_lshape_against_exact_geometry(self, lshape):
        verts = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]
        by_location = {c.location: c.interior_angle for c in lshape.corners}
        assert len(by_location) == 6
        for i, v in enumerate(verts):
            want = polygon_interior_angle(verts, i)
            assert by_location[complex(v)] == pytest.approx(want, abs=1e-12)
        reflex = by_location[1 + 1j]
        assert reflex == pytest.approx(3 * np.pi / 2, abs=1e-12)

    def test_smooth_arc_line_joint(self):
        # stadium: two semicircles joined by two lines, tangents agree at joints
        stadium = JordanCurve.from_segments(
            [
                LineSegment(-1 - 1j, 1 - 1j),
                ArcSegment(1, 1.0, -np.pi / 2, np.pi / 2),
                LineSegment(1 + 1j, -1 + 1j),
                ArcSegment(-1, 1.0, np.pi / 2, 3 * np.pi / 2),
            ]
        )
        assert stadium.corners == ()


def _arc(start: complex, end: complex, sweep: float) -> ArcSegment:
    """The arc from start to end that turns by sweep (counterclockwise when positive) about its centre."""
    turn = np.exp(1j * sweep)
    c = (end - start * turn) / (1.0 - turn)
    return ArcSegment(c, abs(start - c), np.angle(start - c), np.angle(start - c) + sweep)


def _edges(vertices: list[complex]) -> list[LineSegment]:
    """The closed polygon's edges, as ``polygon`` chains them."""
    return [LineSegment(v, w) for v, w in zip(vertices, vertices[1:] + vertices[:1])]


@st.composite
def _closed_chains(draw):
    """4-8 pieces between vertices at increasing angles around 0, each straight or an arc turning by up to 5.5."""
    k = draw(st.integers(4, 8))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)))
    radii = draw(st.lists(st.floats(0.3, 1.7), min_size=k, max_size=k))
    verts = [r * np.exp(1j * a) for r, a in zip(radii, TWO_PI * np.cumsum(gaps) / gaps.sum())]
    sweep = st.one_of(st.just(0.0), st.floats(0.3, 5.5), st.floats(-5.5, -0.3))
    sweeps = draw(st.lists(sweep, min_size=k, max_size=k))
    return [(verts[i], verts[(i + 1) % k], s) for i, s in enumerate(sweeps)]


class TestConstruction:
    def test_clockwise_auto_reversed_with_warning(self):
        with pytest.warns(UserWarning):
            sq = polygon([0, 2j, 2 + 2j, 2])  # clockwise square
        assert sq.signed_area() > 0

    @pytest.mark.parametrize(
        "segments",
        [
            [ArcSegment(0.5j, 2.0, 0.0, -2 * np.pi)],
            [ArcSegment(0.0, 1.0, np.pi, 0.0), LineSegment(1.0, -1.0)],
            [TrigSegment((0.0, 1.0, 0.0, 0.1), (0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -0.05), 0.0, 2 * np.pi)],
        ],
        ids=["circle", "half-disc", "trig"],
    )
    def test_clockwise_arcs_and_trig_reversed_with_warning(self, segments):
        with pytest.warns(UserWarning, match="clockwise curve reversed"):
            curve = JordanCurve.from_segments(segments)
        assert curve.signed_area() > 0
        assert curve.signed_area() == pytest.approx(-sum(seg.area() for seg in segments), rel=1e-12)
        assert curve.segments[0] == segments[-1].reversed()

    @staticmethod
    def _joint_cases() -> dict:
        """Segment chains of every kind: lines, arcs with lines, arc tables, and trig pieces with arcs."""
        trig, sq = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]), square(0.3, 2.0)
        f = Polynomial.from_roots([(1.0, 1), (1j, 1), (0.3, 1)])
        stadium = [LineSegment(-1 - 1j, 1 - 1j), ArcSegment(1.0, 1.0, -np.pi / 2, np.pi / 2),
                   LineSegment(1 + 1j, -1 + 1j), ArcSegment(-1.0, 1.0, np.pi / 2, 3 * np.pi / 2)]
        return {
            "pentagon": polygon([np.exp(2j * np.pi * k / 5) * (1 + 0.3 * np.sin(k)) for k in range(5)]).segments,
            "clockwise-square": [seg.reversed() for seg in reversed(sq.segments)],
            "stadium": stadium,
            "half-disc": [ArcSegment(0.0, 1.0, 0.0, np.pi), LineSegment(-1.0, 1.0)],
            "circle-detour": verify_detour(f, circle(0.0, 1.0), Line(0.3))[1].composite.segments,
            "square-detour": build_detour(sq, [sq.point(0.1)]).composite.segments,
            "trig": trig.segments,
            "trig-detour": build_detour(trig, [trig.point(0.3), trig.point(0.7)]).composite.segments,
        }

    def test_joints_are_each_segments_ends(self):
        # the joints from_segments keeps, and the corner locations, are each segment's own scalar ends
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clockwise square is reversed with a warning
            for name, segs in self._joint_cases().items():
                curve = JordanCurve.from_segments(segs)
                ends = np.array([complex(seg.points(1.0)) for seg in curve.segments])
                starts = np.array([complex(seg.points(0.0)) for seg in curve.segments])
                assert curve._joints[0].tobytes() == ends[:, np.newaxis].tobytes(), name
                assert curve._joints[1].tobytes() == np.roll(starts, -1)[:, np.newaxis].tobytes(), name
                for corner in curve.corners:
                    at = starts[curve.breaks.index(corner.parameter)]
                    assert np.array(corner.location).tobytes() == np.array(at).tobytes(), name

    def test_joints_are_kept(self):
        # from_segments evaluates the joints to check closure and keeps them when it does not reverse the curve
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clockwise square is reversed with a warning
            for name, segs in self._joint_cases().items():
                curve = JordanCurve.from_segments(segs)
                assert ("_joints" in curve.__dict__) == (name != "clockwise-square"), name

    def test_open_chain_rejected(self):
        segs = [LineSegment(0, 1), LineSegment(1, 1 + 1j), LineSegment(1 + 1j, 0.5j)]
        with pytest.raises(ValueError):
            JordanCurve.from_segments(segs)

    @pytest.mark.filterwarnings("ignore:clockwise curve reversed")
    @pytest.mark.parametrize(
        "segments",
        [
            _edges([0, 2 + 1j, 2, 1j]),
            _edges([0, 1 + 1j, 1, 1j]),
            [_arc(0, 1 + 1j, 0.3), LineSegment(1 + 1j, 1), _arc(1, 1j, 0.3), LineSegment(1j, 0)],
            _edges([0, 2, 2 + 2j, 1 + 2j, 1, 0.5 + 2j, 2j]),
            _edges([0, 1, 1 + 1j, 0, -1, -1 - 1j]),
            [
                ArcSegment(0, 1.0, -np.pi / 4, np.pi / 4),
                LineSegment(np.exp(0.25j * np.pi), 2 + np.exp(0.75j * np.pi)),
                ArcSegment(2, 1.0, 0.75 * np.pi, 1.25 * np.pi),
                LineSegment(2 + np.exp(1.25j * np.pi), np.exp(-0.25j * np.pi)),
            ],
            [
                ArcSegment(0, 1.0, 0.0, np.pi),
                LineSegment(-1, np.exp(0.75j * np.pi)),
                ArcSegment(0, 1.0, 0.75 * np.pi, 0.25 * np.pi),
                LineSegment(np.exp(0.25j * np.pi), 1),
            ],
        ],
        ids=["crossed", "bowtie", "arc-bowtie", "t-touch", "repeated-vertex", "tangent-arcs", "one-circle-overlap"],
    )
    def test_crossing_edges_rejected(self, segments):
        # non-adjacent segments that share a point: the two arcs of the arc bowtie cross between the 96
        # samples per segment that were once compared; the vertex 1 of the t-touch lies on the edge from 0 to
        # 2; the repeated vertex 0 was caught only by two samples coinciding; the arcs about 0 and 2 touch at
        # 1; the second arc about 0 runs back over the first
        with pytest.raises(ValueError, match=r"self-intersects \(segments \d+ and \d+ cross\)"):
            JordanCurve.from_segments(segments)

    @settings(max_examples=60, deadline=None, database=None)
    @given(_closed_chains())
    def test_rejected_exactly_when_dense_polylines_meet(self, pieces):
        # the oracle samples each piece at 8193 points; a chain whose non-adjacent pieces come within 1e-6
        # without meeting is too close to touching for the polylines to settle
        meets, closest = polyline_chain_meeting(dense_chain(pieces))
        assume(closest >= 1e-6)
        segs = [LineSegment(p, q) if sweep == 0.0 else _arc(p, q, sweep) for p, q, sweep in pieces]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a clockwise chain is reversed first
            try:
                JordanCurve.from_segments(segs)
                rejected = False
            except ValueError as exc:
                assume("cusp" not in str(exc))
                assert "self-intersects (segments" in str(exc)
                rejected = True
        assert rejected == meets

    def test_two_detours_on_one_slanted_side_build(self):
        # three pieces of the side from 0 to 3 + i, which rounding puts ulps off each other's line, are
        # non-adjacent pairs of the composite; they must not read as meeting
        base = polygon([0, 3 + 1j, 2 + 3j, -1 + 2j])
        marks = [0.3 * (3 + 1j), 0.7 * (3 + 1j)]
        composite = build_detour(base, marks).composite
        assert sum(isinstance(seg, LineSegment) for seg in composite.segments) == 6
        assert [loc.kind for loc in classify_points(composite, marks)] == ["inside", "inside"]

    def test_simple_shapes_still_build(self, unit_square, lshape):
        stadium = JordanCurve.from_segments(
            [
                LineSegment(-1 - 1j, 1 - 1j),
                ArcSegment(1, 1.0, -np.pi / 2, np.pi / 2),
                LineSegment(1 + 1j, -1 + 1j),
                ArcSegment(-1, 1.0, np.pi / 2, 3 * np.pi / 2),
            ]
        )
        for curve in (unit_square, lshape, stadium):
            assert curve.signed_area() > 0
        for base, z in ((unit_square, 1.0), (lshape, 1 + 1.5j), (stadium, 1j)):
            composite = build_detour(base, [z]).composite
            assert any(isinstance(seg, LineSegment) for seg in composite.segments)
            assert classify_point(composite, z).kind == "inside"

    def test_near_self_intersection_rejected(self):
        # bowtie-like hourglass pinched at the middle
        with pytest.raises(ValueError):
            polygon([0, 2, 1 + 0.0000000001j, 2 + 2j, 2j, 1 - 0.0000000001j])

    def test_one_or_two_segment_loops_rejected(self):
        # such curves have no non-adjacent segment pair; the grid polygon must turn exactly once
        with pytest.raises(ValueError, match="turning number 2"):
            radial_trig_curve([(1.0, 0.0)], base_radius=0.5)  # limaçon: the inner loop turns again
        # figure eight x = cos t, y = sin(2t) (1 + cos(t) / 2) / 2, whose larger lobe sets the orientation
        eight = TrigSegment((0.0, 1.0), (0.0, 0.0, 0.125, 0.0, 0.5, 0.0, 0.125), 0.0, TWO_PI)
        with pytest.raises(ValueError, match="turning number -?0.000"):
            JordanCurve.from_segments([eight])
        arc = ArcSegment(0.0, 1.0, 0.0, np.pi)
        half_disc = JordanCurve.from_segments([arc, LineSegment(-1.0, 1.0)])
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        for curve in (unit_circle(), half_disc, trig, square(0.0, 2.0), polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])):
            assert zerowind.curves._turning_number(curve.grid(GRID_SAMPLES)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize(
        "seg",
        [
            TrigSegment((0.5, 0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5, 0.0, 0.5), 0.0, TWO_PI),
            TrigSegment((0.0, 1.0), (0.0, 0.0, 0.125, 0.0, 0.5, 0.0, 0.125), 0.0, TWO_PI),
        ],
        ids=["limacon", "eight"],
    )
    def test_loops_cut_into_pieces_rejected(self, seg, k):
        # the same loops in k pieces: once accepted in 3 pieces (both), 4 (the limaçon) and 6 (the eight),
        # since only curves of one or two segments took the turning number
        pieces = [seg.subsegment(i / k, (i + 1) / k) for i in range(k)]
        with pytest.raises(ValueError, match="turning number"):
            JordanCurve.from_segments(pieces)

    def test_arc_crossing_a_line_between_samples_rejected(self):
        # a clockwise arc from 2 to 2 + 2j bulging left past x = 0, where it crosses the edge from 2j to 0
        # at y = 1 +- 0.447; the two segments' 96 samples never come within the band, so only the
        # exact arc/line test sees it
        sweep_from, sweep_to = np.angle(0.8 - 1j), np.angle(0.8 + 1j) - TWO_PI
        segs = [
            LineSegment(0, 2),
            ArcSegment(1.2 + 1j, abs(0.8 - 1j), sweep_from, sweep_to),
            LineSegment(2 + 2j, 2j),
            LineSegment(2j, 0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # it runs clockwise, so it is reversed first
            with pytest.raises(ValueError, match=r"self-intersects \(segments 0 and 2 cross\)"):
                JordanCurve.from_segments(segs)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 5: its two loops turn opposite ways, so the turning number is 1; "
            "only a simple-polygon test on the grid would refuse it"
        ),
    )
    def test_trig_curve_crossing_itself_rejected(self):
        # its grid polygon crosses itself twice, near t = 0.053/0.957 and t = 0.406/0.451
        with pytest.raises(ValueError):
            trig_curve_from_complex_fourier(
                {1: 1.0, -3: -0.176 - 0.316j, -2: -0.156 + 0.01j, 2: -0.581 - 0.055j, 3: -0.311 - 0.183j}
            )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: adjacent segments are not tested beyond their joint",
    )
    def test_arc_crossing_its_adjacent_line_rejected(self):
        # the arc leaves the edge from 0 to 2 at its end and sweeps back across it at 0.4
        centre, radius = 1.2 + 0.5j, abs(0.8 - 0.5j)
        segs = [
            LineSegment(0, 2),
            ArcSegment(centre, radius, np.angle(0.8 - 0.5j), -np.pi),
            LineSegment(centre - radius, -1 + 1j),
            LineSegment(-1 + 1j, 0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # it runs clockwise, so it is reversed first
            with pytest.raises(ValueError):
                JordanCurve.from_segments(segs)

    def test_one_segment_breaks_need_no_length(self, monkeypatch):
        # a single segment takes the whole parameter range, so its length is never estimated
        build = [lambda: radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]), unit_circle.__wrapped__]
        before = [b().breaks for b in build]

        def no_length(self):
            raise AssertionError("rough_length called")

        monkeypatch.setattr(TrigSegment, "rough_length", no_length)
        monkeypatch.setattr(ArcSegment, "rough_length", no_length)
        after = [b().breaks for b in build]
        assert after == before == [(0.0, 1.0)] * 2
        assert [[type(x) for x in br] for br in after] == [[type(x) for x in br] for br in before]

    def test_overflowing_area_refused(self):
        # the 1e155 curve's area overflows to -inf; it was reversed as clockwise and stored clockwise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="curve area -inf is not finite"):
                trig_curve_from_complex_fourier({1: 1e155, -1: 3e154, 2: 1e154})
            curve = trig_curve_from_complex_fourier({1: 1e150, -1: 3e149, 2: 1e149})
        assert curve.signed_area() > 0.0
        assert sampled_inside(curve, 5e149) == "inside"

    def test_non_finite_segment_named(self):
        # the NaN circle was built with a NaN diameter; the others were reported as a cusp
        cases = [
            (lambda: circle(complex("nan"), 1.0), 0),
            (lambda: circle(0.0, float("inf")), 0),
            (lambda: polygon([0, 1, complex("nan")]), 1),
            (lambda: zerowind.curves.trig_curve_from_complex_fourier({1: 1.0, 2: float("inf")}), 0),
        ]
        for build, index in cases:
            with pytest.raises(ValueError, match=f"segment {index} has a non-finite point"):
                build()

    @pytest.mark.parametrize("side", [-1.0, 0.0, float("inf"), float("nan")])
    def test_square_side_must_be_positive_and_finite(self, side):
        with pytest.raises(ValueError, match="square side must be positive and finite"):
            square(0.0, side)

    def test_empty_fourier_coefficients_rejected(self):
        with pytest.raises(ValueError, match="no Fourier coefficients given"):
            zerowind.curves.trig_curve_from_complex_fourier({})

    def test_integer_valued_fourier_keys(self):
        # {1: 1.0, 2.0: 0.1} raised an untyped TypeError: a float key indexed the packed series
        want = trig_curve_from_complex_fourier({1: 1.0, 2: 0.1, -1: 0.05j}).segments
        for coeffs in ({1: 1.0, 2.0: 0.1, -1: 0.05j}, {np.int64(1): 1.0, np.float64(2.0): 0.1, -1.0: 0.05j}):
            assert trig_curve_from_complex_fourier(coeffs).segments == want

    @pytest.mark.parametrize("key", [2.5, float("nan"), float("inf"), "2", None, 2j])
    def test_other_fourier_keys_refused(self, key):
        with pytest.raises(ValueError, match=re.escape(f"Fourier coefficient key {key!r} is not an integer")):
            trig_curve_from_complex_fourier({1: 1.0, key: 0.1})

    @pytest.mark.parametrize("family", ["circle", "trig-perturbed", "square", "lshape"])
    def test_harness_families_still_build(self, family):
        for seed in range(20):
            inst = random_instance(np.random.default_rng(seed), HarnessConfig(curve_family=family))
            assert inst.curve.signed_area() > 0

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            LineSegment(1 + 1j, 1 + 1j)
        with pytest.raises(ValueError):
            ArcSegment(0, -1.0, 0, 1)

    def test_arc_beyond_one_turn_rejected(self):
        with pytest.raises(ValueError, match="full turn"):
            JordanCurve.from_segments([ArcSegment(0j, 1.0, 0.0, 4 * np.pi)])
        with pytest.raises(ValueError, match="full turn"):
            ArcSegment(0j, 1.0, 1.0, 1.0 - 2.1 * np.pi)
        # one full turn from any start, and its reversal, still make a circle
        for a0 in (0.1, -3.0, 100.0):
            curve = JordanCurve.from_segments([ArcSegment(0.5j, 2.0, a0, a0 + TWO_PI)])
            assert classify_point(curve, 0.4j).kind == "inside"
            ArcSegment(0.5j, 2.0, a0 + TWO_PI, a0)

    def test_breaks_proportional_to_length(self):
        rect = polygon([0, 3, 3 + 1j, 1j])
        widths = np.diff(rect.breaks)
        assert widths[0] == pytest.approx(3 / 8)
        assert widths[1] == pytest.approx(1 / 8)

    def test_trig_curve_matches_direct_evaluation(self):
        harmonics = [(0.03, -0.02), (-0.01, 0.02), (0.015, 0.0)]
        curve = radial_trig_curve(harmonics)
        t = np.linspace(0, 1, 257)
        theta = TWO_PI * t
        r = 1.0 + sum(
            a * np.cos(k * theta) + b * np.sin(k * theta) for k, (a, b) in enumerate(harmonics, start=1)
        )
        want = r * np.exp(1j * theta)
        got = curve.points(t)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_trig_segment_reversal_is_pointwise_flip(self):
        seg = TrigSegment((0.1, 1.0, -0.3, 0.05, 0.2), (0.0, 0.4, 1.1), 0.3, 2.4)
        rev = seg.reversed()
        s = np.linspace(0, 1, 33)
        assert np.max(np.abs(rev.points(s) - seg.points(1.0 - s))) < 1e-12

    def test_segment_subdivision_consistency(self):
        seg = ArcSegment(0.5j, 2.0, 0.3, 2.9)
        sub = seg.subsegment(0.25, 0.75)
        s = np.linspace(0, 1, 17)
        assert np.max(np.abs(sub.points(s) - seg.points(0.25 + 0.5 * s))) < 1e-14


class TestSimplicityCertificate:
    """A full-turn trig curve whose first harmonic outweighs the rest, sum |k| |c_k|, is simple without sampling."""

    @given(
        st.integers(1, 4),
        st.sampled_from([1, -1]),
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=9, max_size=9),
        # near the certificate's boundary, or far enough below it to fool a certificate without the |k| weights
        st.one_of(st.floats(-0.05, 0.05), st.floats(-0.75, -0.05)),
        st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=150, deadline=None, database=None)
    def test_certified_curves_turn_once(self, kmax, s, pairs, excess, phase):
        coeffs = {k: complex(*pairs[k + 4]) for k in range(-kmax, kmax + 1) if k != s}
        weight = sum(abs(k) * abs(c) for k, c in coeffs.items())
        coeffs[s] = max(weight, 0.1) * (1.0 + excess) * np.exp(1j * phase)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # s = -1 runs clockwise
            try:
                curve = zerowind.curves.trig_curve_from_complex_fourier(coeffs)
            except ValueError:
                return  # the sampled test rejected it, so it was not certified
        if not zerowind.curves._first_harmonic_dominates(curve.segments[0]):
            return
        assert "_sampling" not in curve.__dict__
        turns = zerowind.curves._turning_number(curve.grid(GRID_SAMPLES))
        assert turns == pytest.approx(1.0, abs=1e-9)

    def test_loops_are_not_certified_and_still_rejected(self):
        # a certified curve returns before the turning number is sampled, so each message shows the fallback ran
        eight = TrigSegment((0.0, 1.0), (0.0, 0.0, 0.125, 0.0, 0.5, 0.0, 0.125), 0.0, TWO_PI)
        assert not zerowind.curves._first_harmonic_dominates(eight)
        with pytest.raises(ValueError, match="turning number 2"):
            radial_trig_curve([(1.0, 0.0)], base_radius=0.5)
        with pytest.raises(ValueError, match="turning number -?0.000"):
            JordanCurve.from_segments([eight])
        with pytest.raises(ValueError, match="turning number 2"):
            zerowind.curves.trig_curve_from_complex_fourier({2: 1.0})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]),
            lambda: JordanCurve.from_segments([TrigSegment((0.0, 1.0, 0.0, 0.1), (0.0, 0.0, 1.0), 0.0, TWO_PI)]),
            lambda: JordanCurve.from_segments(
                [TrigSegment((0.0, 1.0, 0.0, 0.1), (0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -0.05), TWO_PI, 0.0)]
            ),
        ],
        ids=["radial-trig", "trig-no-trailing-sine", "trig-falling-parameter"],
    )
    def test_kernel_trig_curves_are_certified(self, build):
        # the trig curves of test_kernel.py, built fresh so that no other test has sampled them
        curve = build()
        assert zerowind.curves._first_harmonic_dominates(curve.segments[0])
        assert "_sampling" not in curve.__dict__

    def test_boundary_partial_and_non_finite_not_certified(self):
        dominates = zerowind.curves._first_harmonic_dominates

        def cardioid(a):
            return TrigSegment((0.0, 1.0, 0.0, a, 0.0), (0.0, 0.0, 1.0, 0.0, a), 0.0, TWO_PI)  # w + a w^2

        # at a = 1/2 the curve has a cusp and its margin is exactly 0
        assert not dominates(cardioid(0.5))
        assert not dominates(cardioid(0.5 * (1.0 - 1e-12)))
        assert dominates(cardioid(0.5 * (1.0 - 1e-6)))
        assert not dominates(TrigSegment((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), 0.0, np.pi))
        # a full circle c + R w has no harmonic besides R; a partial arc is not certified
        assert dominates(ArcSegment(0.0, 1.0, 0.0, TWO_PI))
        assert dominates(ArcSegment(0.3 - 2j, 0.01, TWO_PI, 0.0))
        assert not dominates(ArcSegment(0.0, 1.0, 0.0, np.pi))
        assert not dominates(ArcSegment(0.0, 1.0, 0.0, 0.999 * TWO_PI))
        for bad in (float("nan"), float("inf")):
            assert not dominates(TrigSegment((0.0, 1.0, 0.0, bad), (0.0, 0.0, 1.0), 0.0, TWO_PI))
            assert not dominates(TrigSegment((bad, 1.0, 0.0), (0.0, 0.0, 1.0), 0.0, TWO_PI))


class TestAliases:
    def test_unit_circle_alias(self):
        c = curve_from_alias("unit-circle")
        assert abs(c.point(0.0) - 1.0) < 1e-15

    def test_circle_alias_forms(self):
        for text in ("circle(1+2j,0.5)", "circle(1, 2, 0.5)"):
            c = curve_from_alias(text)
            assert abs(c.point(0.0) - (1 + 2j + 0.5)) < 1e-12

    def test_square_alias(self):
        c = curve_from_alias("square(0j,2)")
        assert len(c.corners) == 4

    def test_unknown_alias(self):
        with pytest.raises(ValueError):
            curve_from_alias("pentagon(0,1)")

    def test_json_round_trip(self):
        for curve in (unit_circle(), square(0.1 + 0.2j, 1.3), radial_trig_curve([(0.02, 0.01)])):
            again = JordanCurve.from_json(curve.to_json())
            t = np.linspace(0, 1, 101)
            assert np.max(np.abs(again.points(t) - curve.points(t))) < 1e-12


class TestOrientationInvariants:
    def test_positive_signed_area(self):
        for curve in (unit_circle(), square(0, 2), circle(1 + 1j, 0.3)):
            assert curve.signed_area() > 0

    def test_circle_area_value(self, circle_curve):
        assert circle_curve.signed_area() == pytest.approx(np.pi, abs=1e-12)
