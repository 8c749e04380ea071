"""The curve-evaluation kernel and the 1-D searches give the same bits as their reference loops.

``tests/oracles.py`` keeps the earlier forms verbatim: the dispatch that
searches all breaks and clips on every call, one trig series at a time, and
golden-section and bisection loops that always run every step.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerowind import (
    JordanCurve,
    TrigSegment,
    build_detour,
    polygon,
    radial_trig_curve,
    square,
    unit_circle,
)
from zerowind._numeric import bisect_zero, golden_min

from oracles import full_bisect_zero, full_golden_min, reference_derivs, reference_points

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
