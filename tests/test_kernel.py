"""The curve-evaluation kernel and the 1-D searches give the same bits as their reference loops.

``tests/oracles.py`` keeps the earlier forms verbatim: the dispatch that
searches all breaks and clips on every call, one trig series at a time,
golden-section and bisection loops that always run every step and call
``fn`` twice per step, and the nearest-point scan and refine that closed-form
nearest points on arcs and lines replaced.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerowind.curves
from zerowind import (
    AmbiguousClassification,
    ArcSegment,
    JordanCurve,
    Line,
    LineSegment,
    Polynomial,
    TrigSegment,
    build_detour,
    circle,
    line_residual,
    polygon,
    radial_trig_curve,
    square,
    unit_circle,
)
from zerowind._numeric import bisect_zero, golden_min
from zerowind.curves import classify_points, nearest_parameter

from oracles import (
    full_bisect_zero,
    full_golden_min,
    reference_derivs,
    reference_points,
    scan_nearest_parameter,
)

CURVE_NAMES = ("circle", "square", "lshape", "radial-trig", "trig-no-trailing-sine", "composite-detour")


@cache
def _curve(name: str) -> JordanCurve:
    if name == "circle":
        return unit_circle()
    if name == "square":
        return square(0.0, 2.0)
    if name == "lshape":
        return polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
    if name == "radial-trig":
        return trig
    if name == "trig-no-trailing-sine":
        # x = cos t + 0.1 cos 2t packs as [c0, a1, b1, a2]: b2 is omitted
        return JordanCurve.from_segments([TrigSegment((0.0, 1.0, 0.0, 0.1), (0.0, 0.0, 1.0), 0.0, 2 * np.pi)])
    return build_detour(trig, [trig.point(0.3)]).composite


def _bits(x) -> bytes:
    a = np.asarray(x)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


# parameters that stress the dispatch: wrap-around, exact breaks, and -1e-18, whose t % 1.0 is 1.0
_special = st.sampled_from([0.0, 1.0, -1e-18, 1e-18, -0.5, 2.0, 1.0 - 2**-53, 0.5, -3.25])
_param = st.one_of(st.floats(-3.0, 3.0, allow_nan=False), _special, st.integers(0, 5))


@st.composite
def _params(draw):
    curve = draw(st.sampled_from(CURVE_NAMES))
    breaks = [float(b) for b in _curve(curve).breaks]
    one = st.one_of(_param, st.sampled_from(breaks)).map(float)
    t = draw(st.one_of(one, st.lists(one, min_size=1, max_size=9).map(np.array)))
    return curve, t


class TestKernelOracle:
    def test_curves_cover_the_cases(self):
        trig = _curve("trig-no-trailing-sine").segments[0]
        assert len(trig.coeffs_x) % 2 == 0
        kinds = {type(s).__name__ for s in _curve("composite-detour").segments}
        assert kinds == {"ArcSegment", "TrigSegment"}

    @settings(max_examples=300, deadline=None)
    @given(_params())
    def test_points_match_reference_bitwise(self, case):
        name, t = case
        curve = _curve(name)
        assert _bits(curve.points(t)) == _bits(reference_points(curve, t))

    @settings(max_examples=300, deadline=None)
    @given(_params())
    def test_derivs_match_reference_bitwise(self, case):
        name, t = case
        curve = _curve(name)
        assert _bits(curve.derivs(t)) == _bits(reference_derivs(curve, t))

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_every_break_and_wrap(self, name):
        curve = _curve(name)
        ts = np.array([float(b) for b in curve.breaks] + [-1e-18, -0.0, 1.0 + 1e-16, 7.5, -7.5])
        assert _bits(curve.points(ts)) == _bits(reference_points(curve, ts))
        assert _bits(curve.derivs(ts)) == _bits(reference_derivs(curve, ts))
        for t in ts:
            assert _bits(curve.points(t)) == _bits(reference_points(curve, t))

    def test_two_dimensional_parameters(self):
        ts = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
        for name in ("circle", "lshape"):
            curve = _curve(name)
            assert _bits(curve.points(ts)) == _bits(reference_points(curve, ts))


def _circle_distance(p: complex):
    curve = unit_circle()
    return lambda q: np.abs(curve.points(q) - p)


def _counted(fn):
    calls = []

    def wrapped(q):
        calls.append(1)
        return fn(q)

    return wrapped, calls


_bracket = st.tuples(st.floats(-2.0, 2.0), st.floats(1e-6, 0.5))


class TestEarlyStop:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_bracket, min_size=1, max_size=5), st.floats(0.05, 3.0), st.floats(-np.pi, np.pi))
    def test_golden_min_equals_full_loop(self, brackets, r, phi):
        lo = np.array([a for a, _ in brackets])
        hi = lo + np.array([w for _, w in brackets])
        fn = _circle_distance(r * np.exp(1j * phi))
        assert _bits(golden_min(fn, lo, hi)) == _bits(full_golden_min(fn, lo, hi))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_bracket, min_size=1, max_size=5), st.floats(0.1, 2.0), st.integers(30, 60))
    def test_bisect_zero_equals_full_loop(self, brackets, eps, iters):
        lo = np.array([a for a, _ in brackets])
        hi = lo + np.array([w for _, w in brackets])
        curve = unit_circle()

        def fn(q):
            return np.abs(curve.points(q) - 1.0) - eps

        assert _bits(bisect_zero(fn, lo, hi, iters)) == _bits(full_bisect_zero(fn, lo, hi, iters))

    def test_golden_min_scalar_and_degenerate_brackets(self):
        fn = _circle_distance(0.3 + 0.4j)
        for lo, hi in ((0.1, 0.2), (0.15, 0.15), (np.array([0.1, 0.5]), np.array([0.1, 0.5]))):
            assert _bits(golden_min(fn, lo, hi)) == _bits(full_golden_min(fn, lo, hi))

    def test_fewer_calls_on_nearest_point(self):
        # the circle's nearest point to 2 e^{0.4 i} is at t = 0.4 / (2 pi)
        fn = _circle_distance(2.0 * np.exp(0.4j))
        lo, hi = np.array([0.05]), np.array([0.08])
        early, early_calls = _counted(fn)
        full, full_calls = _counted(fn)
        assert _bits(golden_min(early, lo, hi)) == _bits(full_golden_min(full, lo, hi))
        assert len(full_calls) == 160
        assert len(early_calls) < len(full_calls)

        # where the circle crosses |z - 1| = 0.5, bracketed on the detour's 8192-point grid
        curve = unit_circle()

        def gap(q):
            return np.abs(curve.points(q) - 1.0) - 0.5

        early, early_calls = _counted(gap)
        full, full_calls = _counted(gap)
        lo = np.array([np.floor(np.arcsin(0.25) / np.pi * 8192) / 8192])
        hi = lo + 1.0 / 8192
        assert _bits(bisect_zero(early, lo, hi)) == _bits(full_bisect_zero(full, lo, hi))
        assert len(full_calls) == 53
        assert len(early_calls) < len(full_calls)


class TestStackedGolden:
    """``golden_min`` evaluates both probes of a step in one call, with the bits of two calls."""

    @staticmethod
    def _trig_distance(ps):
        curve = _curve("radial-trig")
        return lambda q: np.abs(curve.points(q) - ps)

    @staticmethod
    def _residual(name, angle):
        f = Polynomial.from_roots([(0.3 + 0.2j, 1), (1.0, 2), (-0.4j, 1)])
        curve, line = _curve(name), Line(angle)
        return lambda q: np.abs(line_residual(f, curve, line, q))

    def test_one_call_per_step_on_stacked_probes(self):
        lo = np.array([0.01, 0.3, 0.62])
        hi = lo + 0.004
        shapes = []
        fn = self._trig_distance(_curve("radial-trig").points(lo + 0.002) + 1e-3)

        def recorded(q):
            shapes.append(np.shape(q))
            return fn(q)

        golden_min(recorded, lo, hi)
        assert 0 < len(shapes) <= 80
        assert set(shapes) == {(2, 3)}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_bracket, min_size=1, max_size=5), st.floats(-0.05, 0.05))
    def test_trig_nearest_point_equals_full_loop(self, brackets, offset):
        lo = np.array([a for a, _ in brackets])
        hi = lo + np.array([w for _, w in brackets])
        ps = _curve("radial-trig").points(0.5 * (lo + hi)) * (1.0 + offset)
        fn = self._trig_distance(ps)
        assert _bits(golden_min(fn, lo, hi)) == _bits(full_golden_min(fn, lo, hi))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_bracket, min_size=1, max_size=5),
        st.sampled_from(["radial-trig", "lshape", "composite-detour"]),
        st.floats(-np.pi, np.pi),
    )
    def test_line_residual_equals_full_loop(self, brackets, name, angle):
        lo = np.array([a for a, _ in brackets])
        hi = lo + np.array([w for _, w in brackets])
        fn = self._residual(name, angle)
        assert _bits(golden_min(fn, lo, hi)) == _bits(full_golden_min(fn, lo, hi))


CLOSED_FORM_NAMES = (
    "circle",
    "off-centre-circle",
    "stadium",
    "bitten-square",
    "square",
    "lshape",
    "circle-detour",
    "square-detour",
)


@cache
def _closed_form_curve(name: str) -> JordanCurve:
    """Curves of arcs and lines only: full and partial arcs of both orientations, corners, detour splices."""
    if name == "circle":
        return unit_circle()
    if name == "off-centre-circle":
        return circle(0.3 - 0.2j, 1.7)
    if name == "stadium":
        return JordanCurve.from_segments(
            [
                LineSegment(-1 - 1j, 1 - 1j),
                ArcSegment(1, 1.0, -np.pi / 2, np.pi / 2),
                LineSegment(1 + 1j, -1 + 1j),
                ArcSegment(-1, 1.0, np.pi / 2, 3 * np.pi / 2),
            ]
        )
    if name == "bitten-square":
        # the left side is a clockwise arc that bites into the rectangle
        return JordanCurve.from_segments(
            [
                LineSegment(-1 - 1j, 2 - 1j),
                LineSegment(2 - 1j, 2 + 1j),
                LineSegment(2 + 1j, -1 + 1j),
                ArcSegment(-1.5, np.hypot(0.5, 1.0), np.arctan2(1.0, 0.5), -np.arctan2(1.0, 0.5)),
            ]
        )
    if name == "square":
        return square(0.0, 2.0)
    if name == "lshape":
        return _curve("lshape")
    if name == "circle-detour":
        return build_detour(unit_circle(), [np.exp(0.7j), -1j]).composite
    return build_detour(square(0.0, 2.0), [1 + 0.37j, -1 - 1j]).composite


def _arc_centres(curve: JordanCurve) -> list[complex]:
    return [complex(seg.center) for seg in curve.segments if isinstance(seg, ArcSegment)]


@st.composite
def _located(draw):
    """A closed-form curve and a batch of points: in band, near, far, at corners and at arc centres."""
    name = draw(st.sampled_from(CLOSED_FORM_NAMES))
    curve = _closed_form_curve(name)
    band, diam = curve.default_band(), curve.diameter
    breaks = [float(b) for b in curve.breaks]
    param = st.one_of(st.floats(0.0, 1.0), st.sampled_from(breaks))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        where = draw(st.sampled_from(["band", "near", "far", "corner", "centre"]))
        t = draw(param)
        normal = -1j * curve.deriv(t) / abs(curve.deriv(t))
        if where == "band":
            points.append(curve.point(t) + draw(st.sampled_from([0.0, 0.3, -0.3, 0.5, -0.5])) * band * normal)
        elif where == "near":
            points.append(curve.point(t) + draw(st.sampled_from([1e-6, -1e-6, 1e-3, -1e-3, 0.05])) * diam * normal)
        elif where == "far":
            points.append(curve.point(t) + draw(st.sampled_from([-0.2, 0.3, 2.0, 10.0])) * diam * normal)
        elif where == "corner" and curve.corners:
            corner = draw(st.sampled_from([c.location for c in curve.corners]))
            off = draw(st.sampled_from([0.0, 0.5 * band, 1e-6 * diam]))
            points.append(corner + off * np.exp(1j * draw(st.floats(-np.pi, np.pi))))
        elif _arc_centres(curve):
            points.append(draw(st.sampled_from(_arc_centres(curve))))
        else:
            points.append(curve.point(t))
    return name, np.array(points, dtype=complex)


def _kinds(curve, ps):
    try:
        return [loc.kind for loc in classify_points(curve, ps)]
    except AmbiguousClassification:
        return "ambiguous"


class TestClosedFormNearest:
    """Closed-form nearest points on arcs and lines against the scan and golden refine they replaced."""

    def test_curves_cover_the_cases(self):
        kinds = {type(s).__name__ for name in CLOSED_FORM_NAMES for s in _closed_form_curve(name).segments}
        assert kinds == {"ArcSegment", "LineSegment"}
        sweeps = [s.angle1 - s.angle0 for s in _closed_form_curve("bitten-square").segments if isinstance(s, ArcSegment)]
        assert len(sweeps) == 1 and sweeps[0] < 0.0
        assert _closed_form_curve("circle-detour").corners and _closed_form_curve("square-detour").corners

    @settings(max_examples=300, deadline=None)
    @given(_located())
    def test_agrees_with_scan_and_refine(self, case):
        name, ps = case
        curve = _closed_form_curve(name)
        band = curve.default_band()
        t, dist = nearest_parameter(curve, ps)
        t_scan, dist_scan = scan_nearest_parameter(curve, ps)

        rounding = 4e-16 * (1.0 + np.abs(ps))
        assert np.all((0.0 <= t) & (t < 1.0))
        assert np.all(dist <= dist_scan + rounding)
        # near a corner the refine can settle on the farther edge; where it found the nearest point, t agrees
        same = (dist < band) & (dist_scan <= dist + rounding)
        gap = np.abs(t - t_scan)[same]
        assert np.all(np.minimum(gap, 1.0 - gap) <= 1e-12)

        with mock.patch.object(zerowind.curves, "nearest_parameter", scan_nearest_parameter):
            want = _kinds(curve, ps)
        assert _kinds(curve, ps) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["circle", "off-centre-circle"]),
        st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(-np.pi, np.pi)), min_size=1, max_size=6),
    )
    def test_full_circle_distance_is_radial_gap(self, name, polar):
        curve = _closed_form_curve(name)
        (arc,) = curve.segments
        ps = np.array([arc.center + r * np.exp(1j * a) for r, a in polar])
        _, dist = nearest_parameter(curve, ps)
        radial = np.abs(np.abs(ps - arc.center) - arc.radius)
        assert np.allclose(dist, radial, rtol=0.0, atol=8e-16 * (arc.radius + np.abs(ps)))

    def test_nearer_edge_at_a_corner(self):
        # just inside the corner -1+1j: 1.167e-9 from the left edge, 1.232e-9 from the top edge;
        # the scan's refine settles on the top edge, the closed form takes the left edge
        curve = _closed_form_curve("square-detour")
        corner = curve.breaks[3]
        assert curve.point(corner) == -1 + 1j
        ps = np.array([-1 + 1j + complex(1.167e-9, -1.232e-9)])
        t, dist = nearest_parameter(curve, ps)
        t_scan, dist_scan = scan_nearest_parameter(curve, ps)
        assert dist[0] == pytest.approx(1.167e-9, rel=1e-6)
        assert dist_scan[0] == pytest.approx(1.232e-9, rel=1e-6)
        assert t_scan[0] < corner < t[0]

    def test_corners_get_their_breaks(self):
        for name in ("square", "lshape", "square-detour"):
            curve = _closed_form_curve(name)
            t, dist = nearest_parameter(curve, np.array([c.location for c in curve.corners]))
            assert list(t) == [c.parameter for c in curve.corners]
            assert not dist.any()
