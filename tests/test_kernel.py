"""The curve-evaluation kernel and the 1-D searches give the same bits as their reference loops.

``tests/oracles.py`` keeps the earlier forms verbatim: the dispatch that
searches all breaks and clips on every call, golden-section and bisection
loops that always run every step and call ``fn`` once or twice per step, and
the nearest-point scan and refine that closed-form nearest points on every
segment kind replaced.  Trig segments are checked bit for bit against a plain
Laurent sum that builds its coefficients one harmonic at a time, and within a
rounding bound against ``mpmath``, as is the earlier cosine/sine series.
Golden-section search evaluates both probes of a step in one call of ``fn``
on a stacked array, bisection reads several steps off one call on the path
it predicts by the secant, and a curve's ``grid(n)`` reads its points off one
cached sampling of up to 8192 points; all rely on NumPy giving each element
the same bits in any array, which the last class here checks directly.
Closed-form segment areas are checked against the shoelace sum of fine
chords.  A curve of several arcs, evaluated
as one arc table, must give the bits of its arcs taken one at a time, and so
must a curve of one segment, located without comparing segments.  A trig
segment's area, its exponentials gathered into one table, must be the float
of the full table, and the companion-matrix root kernel must give the bytes
of ``np.roots``.
"""

import os
import subprocess
import sys
import warnings
from functools import cache
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zerowind.crossings
import zerowind.curves
import zerowind.polynomials
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
    count_preimages,
    polygon,
    radial_trig_curve,
    square,
    unit_circle,
)
from zerowind._numeric import bisect_zero, golden_min, polynomial_roots
from zerowind.curves import GRID_SAMPLES, TWO_PI, classify_points, nearest_parameter
from zerowind.harness import HarnessConfig, random_instance

from oracles import (
    chord_area,
    full_bisect_zero,
    full_golden_min,
    full_matrix_diameter,
    full_matrix_trig_area,
    reference_breaks,
    reference_corners,
    reference_derivs,
    reference_joints,
    reference_nearest_parameter,
    reference_points,
    reference_trig_series,
    reference_trig_series_deriv,
    reference_windings,
    scan_nearest_parameter,
    segment_probes,
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
    if name == "trig-falling-parameter":
        # y = -sin t - 0.05 sin 3t traversed from t = 2 pi down to 0: counterclockwise with a negative sweep
        seg = TrigSegment((0.0, 1.0, 0.0, 0.1), (0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -0.05), 2 * np.pi, 0.0)
        return JordanCurve.from_segments([seg])
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

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_curves_pass_the_simplicity_check(self, name):
        curve = _curve(name)
        assert JordanCurve.from_segments(curve.segments).breaks == curve.breaks

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

    def test_matches_mpmath(self):
        """Trig segments agree with a 50-digit evaluation of their cosine/sine series.

        Points within (2K+1) eps sum_j |c_j| over the Laurent coefficients
        c_-K .. c_K, derivatives within (2K+1) eps |span| sum_k k (|a_k| +
        |b_k| + |c_k| + |d_k|) over the packed coefficients.  The earlier
        cosine/sine float series must stay within the same bounds.
        """
        rng = np.random.default_rng(11)
        segments = [seg for name in CURVE_NAMES for seg in _curve(name).segments if isinstance(seg, TrigSegment)]
        assert len(segments) >= 3
        for _ in range(40):
            # sum_k (1 + k) (|a_k| + |b_k|) < 0.9 base keeps each curve simple
            k, base = int(rng.integers(1, 7)), rng.uniform(0.1, 3.0)
            amps = rng.uniform(-1.0, 1.0, (k, 2)) * base * rng.uniform(0.0, 0.9) / (k * (k + 3))
            segments.append(radial_trig_curve([tuple(h) for h in amps], base_radius=base).segments[0])
        s = np.concatenate([np.linspace(0.0, 1.0, 17), rng.uniform(0.0, 1.0, 16)])
        eps = np.finfo(float).eps
        for seg in segments:
            span = seg.theta1 - seg.theta0
            theta = seg.theta0 + s * span
            c0, pos, neg, _, _ = seg._laurent
            terms = 2 * len(pos) + 1
            bound = terms * eps * sum(abs(c) for c in (c0, *pos, *neg))
            weighted = sum(abs(c) * ((i + 1) // 2) for co in (seg.coeffs_x, seg.coeffs_y) for i, c in enumerate(co))
            bound_d = terms * eps * abs(span) * weighted
            old, old_d = (
                series(seg.coeffs_x, theta) + 1j * series(seg.coeffs_y, theta)
                for series in (reference_trig_series, reference_trig_series_deriv)
            )
            got, got_d = seg.points(s), seg.derivs(s)
            for i, th in enumerate(theta):
                (x, dx), (y, dy) = _mp_series(seg.coeffs_x, th, span), _mp_series(seg.coeffs_y, th, span)
                assert _mp_gap(got[i], x, y) <= bound, (seg, th)
                assert _mp_gap(got_d[i], dx, dy) <= bound_d, (seg, th)
                assert _mp_gap(old[i], x, y) <= bound, (seg, th)
                assert _mp_gap(span * old_d[i], dx, dy) <= bound_d, (seg, th)


def _mp_series(coeffs, theta, span):
    """A packed series c0 + sum_k (a_k cos(k t) + b_k sin(k t)) at the float theta, and span times its t-derivative.

    Both to 50 digits.
    """
    with mpmath.workdps(50):
        t = mpmath.mpf(float(theta))
        value, deriv = mpmath.mpf(coeffs[0]), mpmath.mpf(0)
        for i, c in enumerate(coeffs[1:], start=1):
            k = (i + 1) // 2
            cos, sin = mpmath.cos(k * t), mpmath.sin(k * t)
            value += c * (cos if i % 2 else sin)
            deriv += k * c * (-sin if i % 2 else cos)
        return value, mpmath.mpf(span) * deriv


def _mp_gap(got, x, y):
    """|got - (x + i y)| for a float got and 50-digit x, y."""
    with mpmath.workdps(50):
        return float(mpmath.hypot(mpmath.mpf(got.real) - x, mpmath.mpf(got.imag) - y))


class TestCurveGrid:
    """``grid(n)`` gives the bits of ``points(np.arange(n) / n)``, read-only, from one cached sampling."""

    @pytest.mark.parametrize("n", [1, 2, 256, 1024, 2048, 4096, 8192, 3, 12288, 16384])
    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_grid_matches_points_bitwise(self, name, n):
        curve = _curve(name)
        got = curve.grid(n)
        assert _bits(got) == _bits(curve.points(np.arange(n) / n))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_divisors_share_one_sampling(self, name):
        curve = _curve(name)
        full = curve.grid(GRID_SAMPLES)
        for n in (1, 256, 1024, 4096):
            assert np.shares_memory(curve.grid(n), full)
        assert not np.shares_memory(curve.grid(3), full)

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_sampling_grows_to_the_largest_divisor_asked(self, name):
        # a fresh copy built without the simplicity check, which samples a trig curve at 8192, and unsampled by any test
        curve = JordanCurve._assembled(_curve(name).segments, _curve(name).diameter)
        assert "_sampling" not in curve.__dict__
        small = curve.grid(256)
        assert len(curve._sampling) == 256
        probe = curve.grid(2048)
        assert len(curve._sampling) == 2048 and _bits(probe) == _bits(curve.points(np.arange(2048) / 2048))
        assert np.shares_memory(curve.grid(1024), probe) and np.shares_memory(curve.grid(256), probe)
        assert _bits(curve.grid(256)) == _bits(small)
        assert not np.shares_memory(curve.grid(3), probe) and len(curve._sampling) == 2048
        full = curve.grid(GRID_SAMPLES)
        assert np.shares_memory(curve.grid(2048), full) and _bits(curve.grid(2048)) == _bits(probe)


def _circle_distance(p: complex):
    curve = unit_circle()
    return lambda q: np.abs(curve.points(q) - p)


def _counted(fn):
    """``fn`` and the list of the shapes it was called on."""
    calls = []

    def wrapped(q):
        calls.append(np.shape(q))
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
        assert early_calls == [(2, 1)] * 80

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
        # both ends, then the secant-predicted path, which the gap follows for many steps at a time
        assert len(early_calls) <= 4

    def test_minimiser_at_zero_takes_every_step(self):
        # the bracket keeps shrinking around 0 through ever smaller floats, so no step is a fixed point:
        # all 80 steps run, one call each on the stacked probes
        fn = _circle_distance(1.0)
        lo, hi = np.array([-0.01, -0.003]), np.array([0.02, 0.004])
        early, early_calls = _counted(fn)
        assert _bits(golden_min(early, lo, hi)) == _bits(full_golden_min(fn, lo, hi))
        assert early_calls == [(2, 2)] * 80


class TestStackedGolden:
    """``golden_min`` evaluates both probes of a step in one call, with the bits of one call per probe."""

    @staticmethod
    def _trig_distance(ps):
        curve = _curve("radial-trig")
        return lambda q: np.abs(curve.points(q) - ps)

    @staticmethod
    def _residual(name, angle):
        f = Polynomial.from_roots([(0.3 + 0.2j, 1), (1.0, 2), (-0.4j, 1)])
        curve, line = _curve(name), Line(angle)
        return lambda q: np.abs(line.residual(f(curve.points(q))))

    def test_one_call_per_probe_tree(self):
        lo = np.array([0.01, 0.3, 0.62])
        hi = lo + 0.004
        fn, shapes = _counted(self._trig_distance(_curve("radial-trig").points(lo + 0.002) + 1e-3))
        golden_min(fn, lo, hi)
        # each of the 80 steps evaluates the probes c and d of every bracket, stacked on a leading axis
        assert shapes == [(2, 3)] * 80

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


_F_TEST = Polynomial.from_roots([(0.3 + 0.2j, 1), (1.0, 2), (-0.4j, 1)])
_ITERS = st.sampled_from([0, 1, 47, 48, 52])


def _flip_brackets(fn, n: int, shift: float = 0.0):
    """Grid cells [t_i, t_i + 1 / n] where fn changes sign, as ``_try_detour`` finds them.

    With ``shift = 0`` the grid is t_i = i / n, as there; a shift gives
    brackets whose ends and width are not dyadic, on which a grid built as
    ``lo + j (hi - lo) / 2^K`` can miss the bisection's bits.
    """
    ts = shift + np.arange(n) / n
    vals = fn(ts)
    nxt = np.roll(vals, -1)
    flip = ((vals < 0) & (nxt > 0)) | ((vals > 0) & (nxt < 0))
    return ts[flip], ts[flip] + 1.0 / n


class TestBatchedSearch:
    """``bisect_zero`` reads several steps off one evaluated path and ``golden_min`` stacks its probes, bit for bit."""

    @staticmethod
    def _h(name, angle):
        curve, line = _curve(name), Line(angle)
        return lambda q: line.residual(_F_TEST(curve.points(q)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["radial-trig", "lshape", "composite-detour"]),
        st.floats(-np.pi, np.pi),
        st.sampled_from([64, 512, 4096]),
        _ITERS,
        st.sampled_from([0.0, 0.1, 1 / 3]),
    )
    def test_bisect_line_residual_equals_full_loop(self, name, angle, n, iters, shift):
        h = self._h(name, angle)
        lo, hi = _flip_brackets(h, n, shift)
        assert _bits(bisect_zero(h, lo, hi, iters)) == _bits(full_bisect_zero(h, lo, hi, iters))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["radial-trig", "circle", "composite-detour"]),
        st.floats(0.0, 1.0),
        st.floats(1e-4, 0.3),
        _ITERS,
        st.sampled_from([0.0, 0.1, 1 / 3]),
    )
    def test_bisect_detour_gap_equals_full_loop(self, name, t0, eps, iters, shift):
        # the disc boundary around an on-curve point crosses the curve where |gamma(t) - z| = eps
        curve = _curve(name)
        z = curve.point(t0)

        def gfn(q):
            return np.abs(curve.points(q) - z) - eps

        lo, hi = _flip_brackets(gfn, 8192, shift)
        assert _bits(bisect_zero(gfn, lo, hi, iters)) == _bits(full_bisect_zero(gfn, lo, hi, iters))

    @classmethod
    def _shaped_brackets(cls, shape):
        h = cls._h("radial-trig", 0.7)
        lo, hi = _flip_brackets(h, 256, 0.1)
        assert len(lo) >= 4
        if shape == "scalar":
            return h, lo[1], hi[1]
        if shape == "2-D":
            return h, lo[:4].reshape(2, 2), hi[:4].reshape(2, 2)
        if shape == "empty":
            return h, lo[:0], hi[:0]
        return h, lo, hi

    @pytest.mark.parametrize("iters", [0, 1, 47, 48, 52])
    @pytest.mark.parametrize("shape", ["scalar", "1-D", "2-D", "empty"])
    def test_bisect_bracket_shapes(self, shape, iters):
        h, lo, hi = self._shaped_brackets(shape)
        assert _bits(bisect_zero(h, lo, hi, iters)) == _bits(full_bisect_zero(h, lo, hi, iters))

    @pytest.mark.parametrize("shape", ["scalar", "1-D", "2-D", "empty"])
    def test_golden_bracket_shapes(self, shape):
        h, lo, hi = self._shaped_brackets(shape)

        def dist(q):
            return np.abs(h(q))

        assert _bits(golden_min(dist, lo, hi)) == _bits(full_golden_min(dist, lo, hi))

    @pytest.mark.parametrize("iters", [0, 1, 47, 48, 52])
    def test_zero_or_nan_at_lo(self, iters):
        # fn(lo) is NaN in the first bracket and exactly 0 in the second: neither bracket ever moves its lo
        def fn(q):
            return np.where(q < 0.2, np.nan, q - 0.3)

        lo, hi = np.array([0.1, 0.3, 0.25]), np.array([0.4, 0.6, 0.5])
        assert _bits(bisect_zero(fn, lo, hi, iters)) == _bits(full_bisect_zero(fn, lo, hi, iters))

        # on the unit circle |gamma(0) - 1| is exactly 0
        curve = unit_circle()

        def dist(q):
            return np.abs(curve.points(q) - 1.0)

        lo, hi = np.array([0.0, 0.0]), np.array([0.1, 0.3])
        assert not dist(lo).any()
        assert _bits(bisect_zero(dist, lo, hi, iters)) == _bits(full_bisect_zero(dist, lo, hi, iters))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(1e-9, 0.01), st.floats(1e-9, 0.01), st.floats(-0.002, 0.002)), min_size=1, max_size=5),
        st.floats(-0.05, 0.05),
    )
    def test_golden_straddling_zero_equals_full_loop(self, brackets, offset):
        curve = _curve("radial-trig")
        lo = -np.array([a for a, _, _ in brackets])
        hi = np.array([b for _, b, _ in brackets])
        ps = curve.points(np.array([t for _, _, t in brackets])) * (1.0 + offset)

        def fn(q):
            return np.abs(curve.points(q) - ps)

        assert _bits(golden_min(fn, lo, hi)) == _bits(full_golden_min(fn, lo, hi))

    @pytest.mark.parametrize("iters", [7, 48])
    def test_one_call_per_predicted_path(self, iters):
        # both ends once, then per call each bracket's predicted path over all the steps it has left
        curve = unit_circle()
        lo = np.array([0.01, 0.2, 0.45])
        hi = lo + 0.05

        def gap(q):
            return np.abs(curve.points(q) - 1.0) - np.array([0.1, 1.3, 1.99])

        fn, shapes = _counted(gap)
        assert _bits(bisect_zero(fn, lo, hi, iters)) == _bits(full_bisect_zero(gap, lo, hi, iters))
        assert 2 <= len(shapes) <= 1 + iters
        assert shapes[0] == (2, 3)
        # the first pass holds every bracket's whole predicted path
        assert shapes[1] == (iters, 3)
        assert all(len(shape) == 2 and shape[1] == 3 for shape in shapes)


class TestPredictedBisection:
    """``bisect_zero`` follows a secant-predicted path; whatever it predicts, the bits are those of one call per step.

    Noise at the level of a few ulps makes fn change sign many times near
    its root, where the secant is no guide; an exact zero or a NaN at a
    probe, and a zero fn(lo), are the sign tests' edge cases.  Each case
    also keeps the bound of one call for the ends plus one per step.
    """

    ITERS = [-1, 0, 1, 5, 6, 47, 52, 60]

    @staticmethod
    def _check(fn, lo, hi, iters):
        counted, calls = _counted(fn)
        assert _bits(bisect_zero(counted, lo, hi, iters)) == _bits(full_bisect_zero(fn, lo, hi, iters))
        assert len(calls) <= 1 + max(iters, 0)
        return len(calls)

    @staticmethod
    def _noise(q):
        """A pure function of each float's bits, in [-0.5, 0.5)."""
        return (np.asarray(q, dtype=float).view(np.int64) % 1009) / 1009.0 - 0.5

    @pytest.mark.parametrize("iters", ITERS)
    @pytest.mark.parametrize("amplitude", [1e-16, 1e-13, 1e-9])
    def test_noisy_fn(self, iters, amplitude):
        curve = unit_circle()

        def gap(q):
            return np.abs(curve.points(q) - 1.0) - 0.5 + amplitude * self._noise(q)

        # both crossings of |z - 1| = 0.5, bracketed on the detour's grid
        lo = np.floor(np.array([np.arcsin(0.25), np.pi - np.arcsin(0.25)]) / np.pi * 8192) / 8192
        self._check(gap, lo, lo + 1.0 / 8192, iters)

    @pytest.mark.parametrize("iters", ITERS)
    def test_exact_zero_at_a_midpoint(self, iters):
        # each root is the midpoint a step-by-step bisection visits at step 1, 3, 12 or 30
        lo, hi = np.array([0.25, 0.1, 0.1, -0.7]), np.array([0.75, 0.5, 0.5, 0.3])
        roots = []
        for a, b, depth in zip(lo.tolist(), hi.tolist(), (1, 3, 12, 30)):
            toward = a + 0.37 * (b - a)
            for _ in range(depth):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if mid < toward else (a, mid)
            roots.append(mid)
        roots = np.array(roots)

        def fn(q):
            return np.expm1(q - roots)

        assert not fn(np.array(roots)).any()
        self._check(fn, lo, hi, iters)

    @pytest.mark.parametrize("iters", ITERS)
    def test_nan_and_zero_ends(self, iters):
        # NaN on a window around the root, NaN at hi, and fn(lo) exactly 0
        def fn(q):
            return np.where(np.abs(q - 0.3) < 1e-9, np.nan, (q - 0.3) * (q - 0.75))

        lo = np.array([0.1, 0.2, 0.75, 0.25])
        hi = np.array([0.5, 0.3 + 5e-10, 0.9, 0.3 + 1e-6])
        assert np.isnan(fn(hi[1:2])).all() and fn(lo[2:3])[0] == 0.0
        self._check(fn, lo, hi, iters)

    @pytest.mark.parametrize("iters", ITERS)
    def test_columns_settle_at_different_steps(self, iters):
        # widths from one half down to two ulps: each bracket reaches its fixed point at its own step
        root = np.float64(0.3)
        widths = np.array([0.5, 1e-3, 1e-9, 1e-15, 0.0])
        lo = root - widths * 0.4
        hi = root + widths * 0.6
        lo[-1], hi[-1] = np.nextafter(root, 0.0), np.nextafter(root, 1.0)

        def fn(q):
            return np.tanh(7.0 * (q - root)) + 0.2 * (q - root) ** 2

        self._check(fn, lo, hi, iters)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(1e-14, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        st.sampled_from([0.0, 1e-16, 1e-12]),
        st.sampled_from(ITERS),
    )
    def test_random_brackets(self, brackets, amplitude, iters):
        lo = np.array([a for a, _, _ in brackets])
        hi = lo + np.array([w for _, w, _ in brackets])
        roots = lo + np.array([f for _, _, f in brackets]) * (hi - lo)

        def fn(q):
            return np.sinh(3.0 * (q - roots)) + np.cos(q) * amplitude * self._noise(q)

        self._check(fn, lo, hi, iters)


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
    """Closed-form nearest points on every segment kind against the scan and golden refine they replaced."""

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

    @pytest.mark.parametrize("name", ["radial-trig", "trig-no-trailing-sine", "trig-falling-parameter", "composite-detour"])
    def test_trig_curves_agree_with_scan_and_refine(self, name):
        # roots of d/dt |z - p|^2 on every trig segment, from 10^-8.5 to 1 diameter off the curve
        curve = _curve(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        ts = rng.uniform(0.0, 1.0, 200)
        normals = -1j * curve.derivs(ts) / np.abs(curve.derivs(ts))
        offsets = curve.diameter * 10.0 ** rng.uniform(-8.5, 0.0, 200) * rng.choice([-1.0, 1.0], 200)
        ps = curve.points(ts) + offsets * normals
        t, dist = nearest_parameter(curve, ps)
        _, dist_scan = scan_nearest_parameter(curve, ps)
        assert np.all((0.0 <= t) & (t < 1.0))
        assert np.all(dist <= dist_scan + 4e-16 * (1.0 + np.abs(ps)))
        # a point on the curve gets its own parameter back, to rounding
        t_on, dist_on = nearest_parameter(curve, curve.points(ts))
        gap = np.abs(t_on - ts)
        assert np.all(np.minimum(gap, 1.0 - gap) <= 1e-12)
        assert np.all(dist_on < 1e-14)

    def test_nearer_edge_of_a_trig_detour(self):
        # the scan's refine settles on the trig edge; the detour's arc, whose radial gap this is, is nearer
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        curve = build_detour(trig, [trig.point(0.25)], eps_schedule=[0.05]).composite
        arc = curve.segments[0]
        ps = np.array([-0.04985816277976444 + 0.9862312874576986j])
        t, dist = nearest_parameter(curve, ps)
        _, dist_scan = scan_nearest_parameter(curve, ps)
        assert dist_scan[0] == pytest.approx(5.546e-7, rel=1e-3)
        assert dist[0] <= 4.2193e-7
        assert dist[0] == pytest.approx(abs(abs(ps[0] - arc.center) - arc.radius), rel=1e-9)
        assert 0.0 < t[0] < curve.breaks[1]

    def test_corners_get_their_breaks(self):
        for name in ("square", "lshape", "square-detour"):
            curve = _closed_form_curve(name)
            t, dist = nearest_parameter(curve, np.array([c.location for c in curve.corners]))
            assert list(t) == [c.parameter for c in curve.corners]
            assert not dist.any()


@cache
def _area_segments() -> dict:
    """Segments of every kind and direction: partial and full arcs of both senses, lines, trig pieces."""
    trig = _curve("radial-trig").segments[0]
    return {
        "arc-partial": ArcSegment(0.3 - 0.2j, 1.7, -0.4, 2.1),
        "arc-partial-clockwise": ArcSegment(0.3 - 0.2j, 1.7, 2.1, -0.4),
        "arc-full": ArcSegment(1 + 1j, 0.5, 0.0, TWO_PI),
        "arc-full-clockwise": ArcSegment(-2j, 0.5, 1.0, 1.0 - TWO_PI),
        "line": LineSegment(1 + 2j, -0.5 + 0.1j),
        "line-through-origin": LineSegment(-1 - 1j, 2 + 2j),
        "trig-full": trig,
        "trig-partial": trig.subsegment(0.2, 0.7),
        "trig-reversed": trig.reversed(),
        "trig-reversed-partial": trig.reversed().subsegment(0.1, 0.4),
        "trig-backwards-subsegment": trig.subsegment(0.7, 0.2),
        "trig-no-trailing-sine": _curve("trig-no-trailing-sine").segments[0],
        "trig-falling-parameter": _curve("trig-falling-parameter").segments[0],
        "trig-off-centre": TrigSegment((2.0, 0.5, 0.1, 0.0, 0.03), (-1.0, 0.05, 0.5), 0.3, 4.0),
    }


def _area_curves() -> dict:
    curves = {name: _curve(name) for name in CURVE_NAMES}
    curves.update((name, _closed_form_curve(name)) for name in CLOSED_FORM_NAMES)
    return curves


def _chords(seg, n: int = 1 << 16) -> float:
    return chord_area(seg.points(np.linspace(0.0, 1.0, n + 1)))


class TestClosedFormArea:
    """``area()``, half the integral of Im(conj(z) dz) along a segment, against the shoelace sum of 2^16 chords.

    ``signed_area`` sums it over a curve's segments, and its sign decides a
    curve's orientation; before, the shoelace sum of the 4096-point grid
    polygon did, and every curve must keep the sign that gave.
    """

    @pytest.mark.parametrize("name", list(_area_segments()))
    def test_segment_matches_chords(self, name):
        seg = _area_segments()[name]
        assert seg.area() == pytest.approx(_chords(seg), rel=1e-8, abs=1e-12 * seg.extent() ** 2)

    def test_directions_flip_the_sign(self):
        segs = _area_segments()
        for name, seg in segs.items():
            assert seg.reversed().area() == pytest.approx(-seg.area(), rel=1e-12, abs=1e-14), name
        assert segs["arc-partial-clockwise"].area() == pytest.approx(-segs["arc-partial"].area(), rel=1e-12)

    @pytest.mark.parametrize("name", [*CURVE_NAMES, *CLOSED_FORM_NAMES])
    def test_curve_matches_chords(self, name):
        curve = _area_curves()[name]
        want = sum(_chords(seg) for seg in curve.segments)
        assert curve.signed_area() == pytest.approx(want, rel=1e-8)

    def test_detour_composites_match_chords(self):
        trig = _curve("radial-trig")
        for base, zs in (
            (unit_circle(), [np.exp(0.7j), -1j]),
            (square(0.0, 2.0), [1 + 0.37j, -1 - 1j]),
            (trig, [trig.point(0.3)]),
            (trig, [trig.point(0.1), trig.point(0.55)]),
        ):
            composite = build_detour(base, zs).composite
            want = sum(_chords(seg) for seg in composite.segments)
            assert composite.signed_area() == pytest.approx(want, rel=1e-8)
            # the splices run outside the base curve
            assert composite.signed_area() > base.signed_area()

    @staticmethod
    def _grid_polygon_area(curve) -> float:
        pts = curve.points(np.arange(4096) / 4096)
        return chord_area(np.append(pts, pts[:1]))

    @pytest.mark.parametrize("name", [*CURVE_NAMES, *CLOSED_FORM_NAMES])
    def test_keeps_the_grid_polygons_sign(self, name):
        curve = _area_curves()[name]
        old = self._grid_polygon_area(curve)
        assert old > 0.0 and curve.signed_area() == pytest.approx(old, rel=1e-5)

    @pytest.mark.parametrize("family", ["circle", "trig-perturbed", "square", "lshape"])
    def test_harness_families_keep_the_grid_polygons_sign(self, family):
        for seed in range(20):
            curve = random_instance(np.random.default_rng(seed), HarnessConfig(curve_family=family)).curve
            old = self._grid_polygon_area(curve)
            assert old > 0.0 and curve.signed_area() == pytest.approx(old, rel=1e-5)
            reversed_segments = [seg.reversed() for seg in reversed(curve.segments)]
            assert sum(seg.area() for seg in reversed_segments) == pytest.approx(-curve.signed_area(), rel=1e-12)


def _real_samples() -> np.ndarray:
    rng = np.random.default_rng(20)
    special = [0.0, -0.0, 1e-300, 5e-324, np.pi, -np.pi / 2, 2 * np.pi * 0.3, 1e5, -7.25]
    return np.concatenate([special, rng.uniform(-10.0, 10.0, 50), rng.uniform(-1e-3, 1e-3, 20)])


def _complex_samples() -> np.ndarray:
    rng = np.random.default_rng(21)
    z = rng.normal(size=79) + 1j * rng.normal(size=79)
    return np.concatenate([[0.0, 1.0, -1j, 1e-300 + 1e-300j], z * np.geomspace(1e-8, 1e8, 79)])


_ELEMENTWISE = {
    "cos": (np.cos, _real_samples),
    "sin": (np.sin, _real_samples),
    "complex-exp": (np.exp, lambda: 1j * _real_samples() + np.tanh(_real_samples()[::-1])),
    "complex-abs": (np.abs, _complex_samples),
    "angle": (np.angle, _complex_samples),
    # two Horner steps of Polynomial.__call__: acc = acc * z + c
    "complex-multiply-add": (lambda z: ((0.3 - 1.7j) * z + (1.1 + 0.2j)) * z + (2.5 + 0.5j), _complex_samples),
    "conj": (np.conj, _complex_samples),
    # the root tests' |z|: the one-point form took Python's complex abs, which is hypot of the parts
    "hypot": (lambda z: np.hypot(z.real, z.imag), _complex_samples),
    # a Taylor magnitude, |f^(j)(z)| / j! * (1 + |z|)^j, on a row of the root tests' array
    "scaled-magnitude": (lambda z: np.hypot(z.real, z.imag) / 720.0 * (1.0 + np.hypot(z.imag, z.real)), _complex_samples),
    # the trig kernel's Horner steps p = p * w + c on w = exp(i t), then p * w
    "laurent-horner": (
        lambda w: (((0.3 - 1.7j) * w + (1.1 + 0.2j)) * w + (-0.4 + 0.9j)) * w,
        lambda: np.exp(1j * _real_samples()),
    ),
}


class TestElementwiseBits:
    """Each element of a NumPy elementwise result has the same bits whatever array it sits in.

    The searches evaluate many probes in one stacked call and the curve
    kernel evaluates sub-arrays of a batch, and both claim the bits of one
    call per point.  That holds only if these operations give a value the
    same bits alone, at any offset of a longer array and in any row of a
    stacked one.  A NumPy build that breaks it fails here, by name.
    """

    @pytest.mark.parametrize("name", list(_ELEMENTWISE))
    def test_same_bits_in_any_array(self, name):
        op, samples = _ELEMENTWISE[name]
        x = samples()
        want = op(x)
        for i in range(len(x)):
            assert _bits(op(x[i : i + 1])) == _bits(want[i : i + 1]), (name, x[i])
            assert _bits(op(np.asarray(x[i]))) == _bits(np.asarray(want[i])), (name, x[i])
        for off in range(1, 9):
            padded = np.concatenate([x[::-1][:off], x])
            assert _bits(op(padded)[off:]) == _bits(want), (name, off)
        for length in range(1, 18):
            assert _bits(op(x[:length])) == _bits(want[:length]), (name, length)
        stacked = op(np.stack([x[::-1], x, x]))
        assert _bits(stacked[1]) == _bits(want) and _bits(stacked[2]) == _bits(want), name


class TestScalarParity:
    """The root tests' array kernel gives the bits of the one-point Python arithmetic it replaced.

    NumPy's ``np.abs`` on a complex array rounds differently from Python's
    complex ``abs`` (about a third of random inputs on an AVX-512 build), and
    its complex multiply can round a broadcast or in-place operand
    differently from a flat one.  The kernel takes hypot of the parts and
    multiplies flat arrays into fresh outputs; these checks fail by name on
    a build where that is no longer enough.
    """

    def test_hypot_is_python_abs(self):
        z = _complex_samples()
        want = np.array([abs(complex(v)) for v in z])
        assert _bits(np.hypot(z.real, z.imag)) == _bits(want)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_chain_values_are_horner_per_point(self, width):
        # every leading run of rows, as the polish reads them, and leading coefficients with a -0.0 part, which a
        # zero-padded Horner step 0 z + lead could turn into 0.0: each row must start at its own leading coefficient.
        # The drawn points are checked as drawn, and again with -0.0 imaginary parts.
        rng = np.random.default_rng(width)
        for n in (1, 2, 5, 9):
            coeffs = tuple(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
            drawn = rng.normal(size=width) + 1j * rng.normal(size=width)
            for lead in (coeffs[-1], complex(-1.5, -0.0), complex(1.5, -0.0), complex(-0.0, -2.0)):
                f = Polynomial(coeffs[:-1] + (lead,))
                chain = zerowind.polynomials._derivative_chain(f)
                on_axis = drawn.copy()
                on_axis.imag = -0.0
                for zs in (drawn, on_axis):
                    want, g = [], f
                    for j in range(n + 1):
                        want.append(_bits(np.array([g(complex(z)) for z in zs])))
                        if j < n:
                            g = g.derivative()
                    for rows in (None, *range(1, n + 2)):
                        got = zerowind.polynomials._chain_values(chain, zs, rows)
                        assert len(got) == (n + 1 if rows is None else rows)
                        assert [_bits(row) for row in got] == want[: len(got)], (n, lead, rows)


def _companion_cases() -> list[np.ndarray]:
    """Ascending coefficient vectors for the root kernel: random real and complex ones of degree 0-64, and edge cases."""
    rng = np.random.default_rng(26)
    cases = []
    for n in range(65):
        scale = np.geomspace(1e-3, 1e3, n + 1)
        cases.append(rng.normal(size=n + 1) * scale)
        cases.append((rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) * scale[::-1])
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    cases += [
        np.array([0.0, 0.0, 1.5, -2.0, 0.25]),  # trailing zeros of the descending vector: roots 0
        np.array([1.5, -2.0, 0.25, 0.0, 0.0]),  # leading zeros: stripped
        np.concatenate([[0j, -0.0j], z, [0j]]),
        np.array([0.0, -0.0, 3.0, 0.0]),  # a single nonzero
        np.array([2.5]),
        np.array([-1j]),
        np.zeros(4),  # all zeros
        np.zeros(3, dtype=complex),
        np.array([0.0]),
        np.array([3, -4, 2]),  # integers are solved as floats: -p[1:] / p[0] is 2, -1.5
        z.imag,  # a strided view
        np.array([1.0, 2.0, np.inf]),  # an inf leading coefficient zeroes the companion row
        np.array([1.0, np.inf, 2.0]),
        np.array([np.nan, 1.0, 2.0]),
        np.array([1.0 + 0j, 2.0, complex(0.0, np.inf)]),
        np.array([1.0, np.nan + 0j, 2.0 - 1j]),
    ]
    return cases


class TestCompanionRoots:
    """``polynomial_roots(c)`` is ``np.roots(c[::-1])``: the same dtype, shape and bytes, or the same failure."""

    @staticmethod
    def _check(c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf / inf and the like, on both sides alike
            try:
                want = np.roots(c[::-1])
            except np.linalg.LinAlgError as exc:
                with pytest.raises(NoConvergence) as got:
                    polynomial_roots(c)
                assert str(got.value) == f"companion eigenproblem failed: {exc}"
                return
            got = polynomial_roots(c)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), c
        assert got.tobytes() == want.tobytes(), c

    def test_vectors(self):
        for c in _companion_cases():
            self._check(c)

    def test_every_solve_of_some_counts(self, monkeypatch):
        # the residuals of line segments are real, those of arcs and trig segments complex; a trig segment's nearest
        # points and turns solve its own polynomials, and the root finder solves f itself
        seen, original = [], zerowind.crossings.polynomial_roots

        def recorded(c):
            seen.append(np.array(c))
            return original(c)

        for module in (zerowind.crossings, zerowind.curves, zerowind.polynomials):
            monkeypatch.setattr(module, "polynomial_roots", recorded)
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        f = Polynomial.from_roots([0.3 + 0.2j, -0.5j, 1.5, trig.point(0.3)])
        for curve in (square(0.1j, 1.6), unit_circle(), trig):
            count_preimages(f, curve, Line(0.3))
        for seg in trig.segments:
            seg.nearest(np.array([0.2 + 1.1j, -0.9]))
            seg.turns(np.array([0.1, 2.0 - 0.5j]))
        kinds = {c.dtype.kind for c in seen}
        assert kinds == {"f", "c"} and len(seen) > 10
        for c in seen:
            self._check(c)


def _arc_through(a: complex, b: complex, bulge: float) -> ArcSegment:
    """The arc from a to b whose middle lies bulge |b - a| / 2 to the right of the chord, or to the left when negative.

    Past a bulge of 1 (a half circle) the arc sweeps more than pi.
    """
    half, right = abs(b - a) / 2.0, -1j * (b - a) / abs(b - a)
    h = bulge * half
    radius = (half * half + h * h) / (2.0 * abs(h))
    center = (a + b) / 2.0 + (h - np.sign(h) * radius) * right
    a0 = float(np.angle(a - center))
    sweep = (float(np.angle(b - center)) - a0) % TWO_PI
    return ArcSegment(center, radius, a0, a0 + (sweep if h > 0 else sweep - TWO_PI))


@st.composite
def _arc_chain(draw):
    """A closed chain of two or more arcs.

    Rounded polygons (outward bulges, some past a half circle, and inward
    ones, which turn clockwise), circles cut into arcs, and detour
    composites of either at a random radius; each possibly reversed.
    """
    centre = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    size = draw(st.floats(0.05, 4.0))
    kind = draw(st.sampled_from(["rounded", "cut", "detour", "cut-detour"]))
    count = draw(st.integers(2, 5))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=count, max_size=count)))
    turned = np.cumsum(np.concatenate([[0.0], gaps[:-1]])) * TWO_PI / gaps.sum()
    cuts = (draw(st.floats(-TWO_PI, TWO_PI)) + turned).tolist()
    if kind == "rounded":
        verts = [centre + size * np.exp(1j * c) for c in cuts]
        outward = st.floats(0.05, 1.6) if count < 4 else st.floats(0.05, 0.9)
        bulges = [draw(st.one_of(outward, st.floats(-0.3, -0.05)) if count > 2 else outward) for _ in verts]
        segs = [_arc_through(verts[i], verts[(i + 1) % count], bulges[i]) for i in range(count)]
    else:
        ends = cuts + [cuts[0] + TWO_PI]
        segs = [ArcSegment(centre, size, ends[i], ends[i + 1]) for i in range(count)]
        if kind != "cut":
            base = circle(centre, size) if kind == "detour" else JordanCurve.from_segments(segs)
            marks = [centre + size * np.exp(1j * c) for c in cuts[: draw(st.integers(1, count))]]
            eps = draw(st.floats(1e-4, 0.3)) * size
            try:
                segs = list(build_detour(base, marks, eps_schedule=[eps]).composite.segments)
            except (DetourFailed, ValueError):
                assume(False)
    return [seg.reversed() for seg in reversed(segs)] if draw(st.booleans()) else segs


@st.composite
def _open_arc_chain(draw):
    """Two to six arcs, unclosed, of either direction and any sweep up to a full turn (or a hair past it)."""
    segs = []
    for _ in range(draw(st.integers(2, 6))):
        centre = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
        a0 = draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
        sweep = draw(st.one_of(st.floats(1e-3, TWO_PI), st.sampled_from([np.pi, TWO_PI, np.nextafter(TWO_PI, 7.0)])))
        sign = draw(st.sampled_from([1.0, -1.0]))
        segs.append(ArcSegment(centre, draw(st.floats(0.01, 3.0)), a0, a0 + sign * sweep))
    widths = np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=len(segs), max_size=len(segs))))
    breaks = tuple(np.concatenate([[0.0], widths[:-1] / widths[-1], [1.0]]))
    return JordanCurve(tuple(segs), breaks, (), 1.0)


def _probe_points(curve: JordanCurve, draw) -> np.ndarray:
    """Points near and far, on the curve, at its joints and at its arcs' centres."""
    samples, out = curve.points(np.linspace(0.0, 1.0, 97)), []
    span = max(np.ptp(samples.real), np.ptp(samples.imag), 1e-3)
    for _ in range(draw(st.integers(1, 8))):
        t = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([float(b) for b in curve.breaks])))
        where = draw(st.sampled_from(["on", "near", "far", "centre", "joint"]))
        if where == "on":
            out.append(curve.point(t))
        elif where == "near":
            off = draw(st.sampled_from([1e-12, 1e-6, 1e-2])) * span * np.exp(1j * draw(st.floats(0, 7)))
            out.append(curve.point(t) + off)
        elif where == "far":
            out.append(complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))) * span + samples.mean())
        elif where == "centre":
            out.append(complex(draw(st.sampled_from([seg.center for seg in curve.segments]))))
        else:
            out.append(complex(draw(st.sampled_from(list(curve._joints[0][:, 0])))))
    return np.array(out, dtype=complex)


def _corner_bits(corners) -> bytes:
    floats = np.array([(c[0], c[2]) for c in corners], dtype=float)
    return _bits(floats) + _bits(np.array([c[1] for c in corners], dtype=complex))


class TestArcTable:
    """A curve of two or more arcs, evaluated as one arc table, gives each arc's own bits.

    ``tests/oracles.py`` takes the segments one at a time, as every curve did
    before: points and derivatives by the masked per-segment dispatch,
    nearest points, the winding sum (segment turns added left to right, then
    the joint gaps), the joints, and the breaks, corners and diameter of the
    curve built.  Arcs past a half turn are cut into two chord pieces and a
    hair past a full turn into three, so the table pads the shorter arcs.
    """

    @staticmethod
    def _check_evaluation(curve: JordanCurve, ts: np.ndarray, ps: np.ndarray) -> None:
        assert curve._arcs is not None
        assert _bits(curve.points(ts)) == _bits(reference_points(curve, ts))
        assert _bits(curve.derivs(ts)) == _bits(reference_derivs(curve, ts))
        assert _bits(curve.points(ts[0])) == _bits(reference_points(curve, ts[0]))
        got, want = nearest_parameter(curve, ps), reference_nearest_parameter(curve, ps)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        for batch in (ps, ps[:1]):
            assert _bits(zerowind.curves._windings(curve, batch)) == _bits(reference_windings(curve, batch))
        ends, starts = reference_joints(curve.segments)
        assert _bits(curve._joints[0]) == _bits(ends[:, np.newaxis])
        assert _bits(curve._joints[1]) == _bits(starts[:, np.newaxis])

    @settings(max_examples=150, deadline=None, database=None)
    @given(_arc_chain(), st.lists(_param, min_size=1, max_size=12), st.data())
    def test_closed_chains_match_the_segments(self, segs, ts, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a clockwise chain is reversed with a warning
            try:
                curve = JordanCurve.from_segments(segs)
            except ValueError:
                assume(False)
        ts = np.array(ts, dtype=float)
        assert curve.diameter == full_matrix_diameter(segment_probes(segs))
        assert _bits(np.array(curve.breaks)) == _bits(np.array(reference_breaks(curve.segments)))
        corners = [(c.parameter, c.location, c.interior_angle) for c in curve.corners]
        assert _corner_bits(corners) == _corner_bits(reference_corners(curve.segments, curve.breaks))
        self._check_evaluation(curve, ts, _probe_points(curve, data.draw))

    @settings(max_examples=100, deadline=None, database=None)
    @given(_open_arc_chain(), st.lists(_param, min_size=1, max_size=12), st.data())
    def test_open_chains_match_the_segments(self, curve, ts, data):
        self._check_evaluation(curve, np.array(ts, dtype=float), _probe_points(curve, data.draw))

    def test_only_curves_of_several_arcs_have_a_table(self):
        assert unit_circle()._arcs is None and circle(1.0, 2.0)._arcs is None
        assert square(0.0, 2.0)._arcs is None and _curve("composite-detour")._arcs is None
        assert _closed_form_curve("stadium")._arcs is None
        assert _closed_form_curve("circle-detour")._arcs is not None


class TestOneSegmentCurves:
    """A curve of one segment is built and located with less work and the same bits.

    ``nearest_parameter`` takes the one segment's nearest points without
    measuring them, and their distances from the segment itself;
    ``reference_nearest_parameter`` measures them, picks the segment by
    argmin and evaluates the curve.  ``TrigSegment.area`` takes one
    exponential per harmonic difference; ``full_matrix_trig_area`` one per
    entry of its table.
    """

    NAMES = ("circle", "radial-trig", "trig-no-trailing-sine", "trig-falling-parameter")

    @staticmethod
    def _points(curve: JordanCurve, rng: np.random.Generator) -> np.ndarray:
        """Points on the curve, nudged within its band, moved off it along the normal, and its segment's ends."""
        ts = rng.uniform(0.0, 1.0, 60)
        on, normal = curve.points(ts), 1j * curve.derivs(ts) / np.abs(curve.derivs(ts))
        nudged = on + 1e-13 * normal * rng.uniform(-1.0, 1.0, 60)
        off = on + normal * rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-6.0, -0.5, 60)
        ends = curve.segments[0].points(np.array([0.0, 1.0]))
        return np.concatenate([on, nudged, off, ends])

    @pytest.mark.parametrize("name", NAMES)
    def test_location_matches_the_reference(self, name):
        curve = _curve(name)
        ps = self._points(curve, np.random.default_rng(len(name)))
        got, want = nearest_parameter(curve, ps), reference_nearest_parameter(curve, ps)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        band = curve.default_band()
        for loc, t, d in zip(classify_points(curve, ps), want[0].tolist(), want[1].tolist()):
            if d < band:
                assert loc.kind == "on-curve" and loc.t.hex() == t.hex()
            else:
                assert loc.kind != "on-curve"

    @pytest.mark.parametrize("name", NAMES)
    def test_segment_end_maps_to_zero(self, name):
        # the segment's point at s = 1.0 is nearest there, and t = 1.0 wraps to 0.0
        curve = _curve(name)
        p = curve.segments[0].points(np.array([1.0]))
        assert curve.segments[0].nearest(p)[0] == 1.0
        t, _ = nearest_parameter(curve, p)
        assert _bits(t) == _bits(reference_nearest_parameter(curve, p)[0]) == _bits(np.zeros(1))
        loc = classify_points(curve, p)[0]
        assert loc.kind == "on-curve" and loc.t.hex() == (0.0).hex()

    def test_area_is_the_full_table(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            kmax = int(rng.integers(1, 7))
            cx, cy = (tuple(rng.normal(size=int(rng.integers(1, 2 * kmax + 2)))) for _ in range(2))
            t0, t1 = rng.uniform(-10.0, 10.0, 2)
            full, partial = TrigSegment(cx, cy, 0.0, TWO_PI), TrigSegment(cx, cy, t0, t1)
            segs = [full, full.reversed(), TrigSegment(cx, cy, TWO_PI, 0.0), partial, partial.reversed()]
            segs.append(full.subsegment(*np.sort(rng.uniform(0.0, 1.0, 2))))
            for seg in segs:
                assert seg.area().hex() == full_matrix_trig_area(seg).hex()


_IMPORT_PROBE = """
import sys
from zerowind import Line, Polynomial, unit_circle, verify_detour, verify_trig
from zerowind.harness import HarnessConfig, run_harness

verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55])
run_harness(HarnessConfig(trials=1, max_degree=6, curve_family="trig-perturbed", seed=1))
verify_detour(Polynomial.from_roots([(1.0, 1), (0.3, 1)]), unit_circle(), Line(0.3))
print("numpy.ma" in sys.modules)
"""


class TestLazyImports:
    def test_no_masked_arrays_on_the_hot_path(self):
        # np.unique and friends import numpy.ma on first use, about 30 ms of a cold operation
        src = str(Path(zerowind.curves.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"
