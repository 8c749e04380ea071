import numpy as np
import pytest

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
    classify_point,
    classify_roots,
    curve_from_alias,
    interior_angle,
    polygon,
    radial_trig_curve,
    sample,
    square,
    unit_circle,
    verify_detour,
    verify_trig,
    winding_count,
)
from zerowind.curves import classify_points
from zerowind.harness import HarnessConfig, run_harness

from oracles import polygon_interior_angle

TWO_PI = 2 * np.pi


class TestSampling:
    def test_unit_circle_quarters(self, circle_curve):
        pts = [s.point for s in sample(circle_curve, 4)]
        for got, want in zip(pts, [1, 1j, -1, -1j]):
            assert got == pytest.approx(want, abs=1e-15)

    def test_square_eight_includes_corners(self, unit_square):
        pts = [s.point for s in sample(unit_square, 8)]
        corners = {c.location for c in unit_square.corners}
        hits = sum(any(abs(p - c) < 1e-12 for c in corners) for p in pts)
        assert hits == 4
        flags = [s.at_corner for s in sample(unit_square, 8)]
        assert sum(flags) == 4

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

    def test_sample_needs_three(self, circle_curve):
        with pytest.raises(ValueError):
            sample(circle_curve, 2)

    def test_tangent_is_global_derivative(self, circle_curve):
        s = sample(circle_curve, 16)[3]
        # d/dt exp(2 pi i t) = 2 pi i exp(2 pi i t)
        assert s.tangent == pytest.approx(TWO_PI * 1j * s.point, rel=1e-12)


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

    def test_near_curve_point_is_ambiguous(self, circle_curve):
        with pytest.raises(AmbiguousClassification):
            classify_point(circle_curve, 1.0 + 2e-12, band=1e-12)

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
        limacon = radial_trig_curve([(1.0, 0.0)], base_radius=0.5)
        with pytest.raises(AmbiguousClassification) as alone:
            classify_point(limacon, 0.2)
        with pytest.raises(AmbiguousClassification) as batched:
            classify_points(limacon, [5.0, 0.2, -5.0])
        assert str(batched.value) == str(alone.value)

    @staticmethod
    def _golden_batches(monkeypatch):
        calls = []
        original = zerowind.curves.golden_min

        def counted(fn, lo, hi):
            calls.append(len(lo))
            return original(fn, lo, hi)

        monkeypatch.setattr(zerowind.curves, "golden_min", counted)
        return calls

    def test_classify_roots_refines_once(self, monkeypatch):
        # a trig curve has no closed-form nearest point: its six roots share one golden refine
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        calls = self._golden_batches(monkeypatch)
        roots = [0.3, -0.5j, 2.0, trig.point(0.3), trig.point(0.7), -3 + 1j]
        report = classify_roots(Polynomial.from_roots([(r, 1) for r in roots]), trig)
        assert (report.m, report.lam) == (2, 2)
        assert calls == [6]

    @pytest.mark.parametrize("case", range(3), ids=["circle", "square", "lshape"])
    def test_arcs_and_lines_never_search(self, case, monkeypatch):
        curve, points, kinds = _located_point_sets()[case]
        calls = self._golden_batches(monkeypatch)
        assert [loc.kind for loc in classify_points(curve, points)] == kinds
        report = classify_roots(Polynomial.from_roots([(p, 1) for p in points]), curve)
        assert report.lam == kinds.count("on-curve")
        assert calls == []


class TestWorkBudget:
    """Curve evaluations per fixed instance must not grow back.

    The budgets are ``JordanCurve._dispatch`` counts.  Arcs and lines locate
    points in closed form, one dispatch per batch; a trig curve takes one
    coarse scan and one golden refine.  Golden section and bisection read
    several steps off each call and stop at their fixed point.  The golden
    refine on every curve, with two calls per step, took 477, 786, 167 and
    158 dispatches on these instances; with one call per step, 207, 164, 6
    and 82.  With each curve sampled once on its cached grid, a cold run
    takes 53, 46, 2 and 27.

    Separately, every grid scan, winding pass and orientation test reads the
    curve's one cached sampling, so a curve is evaluated at 1024 or more
    points once: when it is built.
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
        assert self._dispatches(monkeypatch, lambda: verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55])) <= 53

    def test_verify_detour(self, monkeypatch):
        f = Polynomial.from_roots([(1.0, 2), (0.3, 1)])
        assert self._dispatches(monkeypatch, lambda: verify_detour(f, unit_circle(), Line(0.3))) <= 46

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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_planted_trig_trial_samples_each_curve_once(self, monkeypatch, seed):
        cfg = HarnessConfig(trials=1, max_degree=6, curve_family="trig-perturbed", seed=seed)
        evaluated, built = self._large_evaluations(monkeypatch, lambda: run_harness(cfg))
        assert len(built) == 1
        assert [id(c) for c in evaluated] == [id(c) for c in built]

    def test_classify_roots(self, monkeypatch):
        f = Polynomial.from_roots([(r, 1) for r in (0.3 + 0.3j, 0.5 + 0.5j, 5, -4j, 1 + 1j, 2j)])

        def run():
            classify_roots(f, polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]))

        assert self._dispatches(monkeypatch, run) <= 2

    def test_classify_roots_on_trig_curve(self, monkeypatch):
        trig = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)])
        f = Polynomial.from_roots([(r, 1) for r in (0.3, -0.5j, 2.0, trig.point(0.3), trig.point(0.7), -3 + 1j)])
        assert self._dispatches(monkeypatch, lambda: classify_roots(f, trig)) <= 27

    def test_one_cosine_per_harmonic(self, monkeypatch):
        # x and y share cos(k t): two series of three harmonics call np.cos three times, not six
        seg = radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]).segments[0]
        assert len(seg.coeffs_x) == len(seg.coeffs_y) == 7
        calls = []
        original = np.cos

        def counted(x, *args, **kwargs):
            calls.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counted)
        seg.points(np.linspace(0.0, 1.0, 50))
        assert calls == [50, 50, 50]


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


class TestConstruction:
    def test_clockwise_auto_reversed_with_warning(self):
        with pytest.warns(UserWarning):
            sq = polygon([0, 2j, 2 + 2j, 2])  # clockwise square
        assert sq.signed_area() > 0

    def test_clockwise_rejected_when_not_auto(self):
        segs = [LineSegment(0, 2j), LineSegment(2j, 2 + 2j), LineSegment(2 + 2j, 2), LineSegment(2, 0)]
        with pytest.raises(ValueError):
            JordanCurve.from_segments(segs, auto_orient=False)

    def test_open_chain_rejected(self):
        segs = [LineSegment(0, 1), LineSegment(1, 1 + 1j), LineSegment(1 + 1j, 0.5j)]
        with pytest.raises(ValueError):
            JordanCurve.from_segments(segs)

    @pytest.mark.filterwarnings("ignore:clockwise curve reversed")
    @pytest.mark.parametrize("vertices", [[0, 2 + 1j, 2, 1j], [0, 1 + 1j, 1, 1j]], ids=["crossed", "bowtie"])
    def test_crossing_edges_rejected(self, vertices):
        # the crossings fall between the 96 samples per edge, which once let both through
        with pytest.raises(ValueError, match="self-intersects"):
            polygon(vertices)

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
        assert circle_curve.signed_area(1 << 14) == pytest.approx(np.pi, rel=1e-6)
