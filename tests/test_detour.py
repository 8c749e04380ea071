import numpy as np
import pytest

from zerowind import (
    DetourFailed,
    JordanCurve,
    Line,
    Polynomial,
    build_detour,
    classify_point,
    classify_roots,
    default_epsilon_schedule,
    square,
    unit_circle,
    verify_detour,
)
from zerowind.curves import _subsegment_span


class TestBuildDetour:
    def test_no_excisions_returns_base(self, circle_curve):
        det = build_detour(circle_curve, [])
        assert det.composite is circle_curve
        assert det.excised == ()

    def test_single_zero_moves_inside(self, circle_curve):
        det = build_detour(circle_curve, [1.0], eps_schedule=[0.1])
        assert classify_point(det.composite, 1.0).kind == "inside"
        assert det.excised == ((1.0, 0.1),)
        assert det.composite.signed_area() > 0

    def test_two_zeros_disjoint_discs(self, circle_curve):
        det = build_detour(circle_curve, [1.0, -1.0], eps_schedule=[0.1])
        assert len(det.excised) == 2
        for z, eps in det.excised:
            assert classify_point(det.composite, z).kind == "inside"
        (z1, e1), (z2, e2) = det.excised
        assert abs(z1 - z2) > e1 + e2

    def test_arc_span_matches_chord_geometry(self, circle_curve):
        # On the unit circle the splice arc spans pi + 2*arcsin(eps/2) exactly.
        for eps in (0.2, 0.1, 0.05):
            det = build_detour(circle_curve, [1.0], eps_schedule=[eps])
            assert det.arc_spans[0] == pytest.approx(np.pi + 2 * np.arcsin(eps / 2), abs=1e-9)

    def test_arc_excess_shrinks_with_radius(self, circle_curve):
        spans = [
            build_detour(circle_curve, [1.0], eps_schedule=[eps]).arc_spans[0]
            for eps in (0.2, 0.1, 0.05, 0.025)
        ]
        excess = [s - np.pi for s in spans]
        assert all(e > 0 for e in excess)
        assert all(a > b for a, b in zip(excess, excess[1:]))

    def test_zero_not_on_curve_rejected(self, circle_curve):
        with pytest.raises(ValueError):
            build_detour(circle_curve, [0.5])

    def test_repeated_point_rejected(self, circle_curve):
        # the default schedule scales with the smallest pairwise distance, which a repeat makes zero
        with pytest.raises(ValueError, match=r"\(1\+0j\) is listed more than once"):
            build_detour(circle_curve, [1, 1])
        with pytest.raises(ValueError, match="listed more than once"):
            build_detour(circle_curve, [1j, -1.0, 1j], eps_schedule=[0.1])

    def test_overlapping_discs_exhaust_schedule(self, circle_curve):
        close_pair = [1.0, complex(np.exp(0.05j))]
        with pytest.raises(DetourFailed):
            build_detour(circle_curve, close_pair, eps_schedule=[0.5])

    def test_schedule_falls_back_to_smaller_radius(self, circle_curve):
        close_pair = [1.0, complex(np.exp(0.05j))]
        det = build_detour(circle_curve, close_pair, eps_schedule=[0.5, 0.01])
        assert det.excised[0][1] == 0.01

    def test_default_schedule_scales(self, circle_curve):
        sched = default_epsilon_schedule(circle_curve, [1.0, -1.0])
        scale = min(2.0, circle_curve.diameter)  # antipodal pair distance vs diameter
        assert sched[0] == pytest.approx(0.2 * scale)
        assert len(sched) == 21
        assert all(a > b for a, b in zip(sched, sched[1:]))


class TestDetourZeroSets:
    def test_inside_set_is_base_inside_plus_excised(self, circle_curve):
        # plant roots inside, on, and outside; the composite must swallow
        # exactly the on-curve ones extra
        f = Polynomial.from_roots([(0.3 + 0.2j, 1), (1j, 2), (1.7, 1)])
        report = classify_roots(f, circle_curve)
        assert (report.m, report.lam) == (1, 2)
        det = build_detour(circle_curve, report.on_curve.locations())
        composite_report = classify_roots(f, det.composite)
        assert composite_report.m == 3
        assert composite_report.lam == 0
        assert classify_point(det.composite, 1.7).kind == "outside"

    def test_composite_orientation_preserved(self, circle_curve):
        det = build_detour(circle_curve, [1.0, 1j, -1.0], eps_schedule=[0.15])
        assert det.composite.signed_area() > 0
        assert det.base.signed_area() > 0


class TestSubsegmentWalk:
    # A square whose fourth break is 0.7500000000000001: from t = 1.75 the
    # walk used to locate the finished third edge again, because
    # 1 + 0.7500000000000001 rounds to 1.75, and never advanced.
    LO, HI = complex(-0.694280577853311, -0.8809946389142367), complex(1.12723243103293, 0.9405183699720043)
    CORNERS = [LO, complex(HI.real, LO.imag), HI, complex(LO.real, HI.imag)]
    SQUARE = {
        "segments": [
            {"kind": "line", "from": [a.real, a.imag], "to": [b.real, b.imag]}
            for a, b in zip(CORNERS, CORNERS[1:] + CORNERS[:1])
        ]
    }

    def test_rounded_break_is_crossed(self):
        curve = JordanCurve.from_json(self.SQUARE)
        assert curve.breaks[3] == 0.7500000000000001 and 1.0 + curve.breaks[3] == 1.75
        pieces = _subsegment_span(curve, 1.6, 2.3)
        assert len(pieces) == 4
        for a, b in zip(pieces, pieces[1:]):
            assert abs(a.points(1.0) - b.points(0.0)) < 1e-12
        assert abs(pieces[0].points(0.0) - curve.point(0.6)) < 1e-12
        assert abs(pieces[-1].points(1.0) - curve.point(0.3)) < 1e-12

    def test_planted_boundary_zero_on_square(self):
        # a degree-4 polynomial with a double zero on the square's left edge (planted m = 0, lambda = 2)
        coeffs = [
            (0.8626643471196566, 3.893986707302527),
            (-0.6334509146350769, 10.612137300411309),
            (-6.088451239011409, 5.529425581506825),
            (-4.37691456107475, -2.8490032879985887),
            (0.701609205158173, -0.6588994312258839),
        ]
        f = Polynomial([complex(re, im) for re, im in coeffs])
        rep, _ = verify_detour(f, JordanCurve.from_json(self.SQUARE), Line(0.12465140702202251))
        assert rep.holds
        assert rep.winding == 2
        assert (rep.m, rep.lam) == (0, 2)

    def test_walk_that_cannot_advance_is_typed(self):
        # at 1e17 adding a lap of 1.0 rounds away, so the walk never gets closer to its end
        with pytest.raises(DetourFailed, match="did not reach"):
            _subsegment_span(square(0.0, 2.0), 1e17, 1e17 + 64.0)
