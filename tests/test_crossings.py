import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerowind.crossings
import zerowind.harness
import zerowind.verify
from zerowind import (
    ArcSegment,
    BelowNoiseFloor,
    JordanCurve,
    Line,
    LineSegment,
    Polynomial,
    ZeroReport,
    arg_derivative_probe,
    build_detour,
    classify_roots,
    count_disc_preimages,
    count_preimages,
    polygon,
    radial_trig_curve,
    run_harness,
    square,
    trig_curve_from_complex_fourier,
    unit_circle,
    verify_detour,
    verify_trig,
)
from zerowind.harness import HarnessConfig

from oracles import dense_line_crossing_count, pointwise_preimage_values, sympy_segment_residual_roots

TWO_PI = 2 * np.pi


class TestLine:
    def test_angle_reduced_mod_pi(self):
        assert Line(np.pi + 0.3).angle == pytest.approx(0.3)
        assert Line(-0.2).angle == pytest.approx(np.pi - 0.2)

    def test_aliases(self):
        assert Line.from_json("real-axis").angle == 0.0
        assert Line.from_json("imag-axis").angle == pytest.approx(np.pi / 2)
        assert Line.from_json({"angle": 0.7}).angle == pytest.approx(0.7)
        with pytest.raises(ValueError):
            Line.from_json("diagonal")

    def test_tiny_negative_angle_is_zero(self):
        # -1e-20 % pi rounds to pi itself, which is outside [0, pi)
        line = Line(-1e-20)
        assert line.angle == 0.0
        assert line == Line(0.0)
        assert line.to_json() == {"angle": 0.0}

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_angle_in_half_open_range(self, angle):
        assert 0.0 <= Line(angle).angle < np.pi

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, angle):
        # NaN % pi is NaN and so is inf % pi: such a line has no direction
        with pytest.raises(ValueError, match="finite"):
            Line(angle)
        with pytest.raises(ValueError, match="finite"):
            Line.from_json({"angle": angle})


class TestLineResidual:
    def test_identity_map_real_axis(self, circle_curve):
        f = Polynomial([0, 1])
        line = Line.real_axis()
        assert line.residual(f(circle_curve.points(0.0))) == pytest.approx(0.0, abs=1e-15)
        assert line.residual(f(circle_curve.points(0.25))) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self, circle_curve):
        f = Polynomial([1, 2, 3])
        ts = np.linspace(0, 1, 7)
        vals = Line(0.4).residual(f(circle_curve.points(ts)))
        assert vals.shape == (7,)

    def test_real_coefficients_give_cosine_sum(self, circle_curve):
        # against the imaginary axis, the residual of a real-coefficient
        # polynomial is (up to sign) the cosine sum of its coefficients
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(-1, 1, size=6)
        coeffs[-1] += 2.0
        f = Polynomial(tuple(coeffs))
        for theta in rng.uniform(0, TWO_PI, size=16):
            want = sum(c * np.cos(j * theta) for j, c in enumerate(coeffs))
            got = Line.imag_axis().residual(f(circle_curve.points(theta / TWO_PI)))
            assert got == pytest.approx(-want, abs=1e-12)


class TestCountPreimages:
    def test_boundary_zero_powers_real_axis(self, circle_curve):
        # (z+1)^n vs the real axis: the n zeros of sin(n t/2) plus, for odd n,
        # the boundary zero at -1 (t = 1/2), which is not among them.
        for n in range(1, 9):
            f = Polynomial.from_roots([(-1.0, n)])
            got = count_preimages(f, circle_curve, Line.real_axis()).count
            want = n if n % 2 == 0 else n + 1
            assert got == want, f"n={n}"
            assert got == dense_line_crossing_count(f, circle_curve, Line.real_axis(), samples=200_000)

    def test_boundary_zero_powers_any_line(self, circle_curve):
        # (1+z)^n = (2 cos(t/2))^n e^{i n t/2} meets the line at angle 0.37 at
        # the n solutions of n t/2 = 0.37 mod pi and at its zero t = pi, which
        # is not one of them; a sampled search read n for n = 10 and 12
        for n in range(1, 13):
            f = Polynomial.from_roots([(-1.0, n)])
            assert count_preimages(f, circle_curve, Line(0.37)).count == n + 1, f"n={n}"

    def test_pure_power_hits_any_line_2n_times(self, circle_curve):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            f = Polynomial([0] * n + [1])
            for ang in rng.uniform(0, np.pi, size=4):
                assert count_preimages(f, circle_curve, Line(ang)).count == 2 * n

    def test_tangential_contact(self, circle_curve):
        pre = count_preimages(Polynomial([-1, 1]), circle_curve, Line.imag_axis())
        assert pre.count == 1
        assert pre.points[0].contact == "tangential"
        assert pre.points[0].t == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 2: a crossing at a break is a root of both segments' residuals, "
            "so its group's total order is 2 and reads as even"
        ),
    )
    def test_corner_crossings_are_transversal(self):
        # f(z) = z on the diamond: the real axis crosses it at the corners 1 and -1
        pre = count_preimages(Polynomial((0, 1)), polygon([1, 1j, -1, -1j]), Line(0.0))
        assert [(p.t, p.contact) for p in pre.points] == [(0.0, "transversal"), (0.5, "transversal")]

    def test_transversal_pair(self, circle_curve):
        pre = count_preimages(Polynomial([-1, 1]), circle_curve, Line.real_axis())
        assert pre.count == 2
        assert sorted(round(p.t, 6) for p in pre.points) == [0.0, 0.5]

    def test_rotation_equivariance(self, circle_curve):
        rng = np.random.default_rng(4)
        for _ in range(10):
            deg = int(rng.integers(1, 6))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            coeffs[-1] += 2
            f = Polynomial(tuple(coeffs))
            phi = float(rng.uniform(0, np.pi))
            a = count_preimages(f, circle_curve, Line(phi)).count
            b = count_preimages(f.scaled(np.exp(-1j * phi)), circle_curve, Line.real_axis()).count
            assert a == b

    def test_scaling_shifts_line_angle(self, circle_curve):
        rng = np.random.default_rng(6)
        f = Polynomial([0.3, -1.2, 0.8, 1.1])
        base = count_preimages(f, circle_curve, Line(0.4))
        for _ in range(5):
            c = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, TWO_PI))
            moved = count_preimages(f.scaled(c), circle_curve, Line(0.4 + np.angle(c)))
            assert moved.count == base.count
            assert np.allclose(sorted(p.t for p in moved.points), sorted(p.t for p in base.points), atol=1e-6)

    def test_real_scaling_preserves_set(self, circle_curve):
        f = Polynomial([0.3, -1.2, 0.8, 1.1])
        base = count_preimages(f, circle_curve, Line(0.9))
        for c in (2.0, -3.0):
            again = count_preimages(f.scaled(c), circle_curve, Line(0.9))
            assert again.count == base.count

    def test_bound_holds_across_line_angles(self, circle_curve):
        f = Polynomial.from_roots([(0.4 + 0.1j, 2), (np.exp(0.9j), 1), (1.8, 1)])
        for phi in np.linspace(0, np.pi, 32, endpoint=False):
            assert count_preimages(f, circle_curve, Line(phi)).count >= 2 * 2 + 1

    def test_matches_dense_oracle_on_random_instances(self, circle_curve):
        rng = np.random.default_rng(12)
        for _ in range(10):
            deg = int(rng.integers(1, 7))
            roots = []
            for _ in range(deg):
                kind = rng.random()
                if kind < 0.4:
                    roots.append(rng.uniform(0.2, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI)))
                elif kind < 0.7:
                    roots.append(np.exp(1j * TWO_PI * rng.integers(0, 360) / 360))
                else:
                    roots.append(rng.uniform(1.3, 2.5) * np.exp(1j * rng.uniform(0, TWO_PI)))
            f = Polynomial.from_roots(roots)
            line = Line(rng.uniform(0, np.pi))
            assert count_preimages(f, circle_curve, line).count == dense_line_crossing_count(
                f, circle_curve, line, samples=400_000
            )

    def test_works_on_trig_perturbed_curve(self):
        curve = radial_trig_curve([(0.02, -0.015), (0.01, 0.02)])
        f = Polynomial.from_roots([(0.2, 1), (complex(curve.point(0.25)), 2)])
        pre = count_preimages(f, curve, Line.real_axis())
        assert pre.count >= 2 * 1 + 2
        assert pre.count == dense_line_crossing_count(f, curve, Line.real_axis(), samples=400_000)

    def test_constant_image_on_line_rejected(self, circle_curve):
        # constant polynomial with value on the line: residual identically zero
        with pytest.raises(ValueError):
            count_preimages(Polynomial([2.0]), circle_curve, Line.real_axis())

    def test_band_reaches_classification(self, circle_curve, monkeypatch):
        # a zero 1e-8 outside the circle: on it within band 1e-7, off it for the
        # default band of about 2e-9.  On the curve it maps to the origin, on
        # the imaginary axis; off it, Re(e^{it} - a) = cos t - a < 0 for every t
        f = Polynomial([-(1.0 + 1e-8), 1.0])
        lams = []

        def spy(*args):
            report = classify_roots(*args)
            lams.append(report.lam)
            return report

        monkeypatch.setattr(zerowind.crossings, "classify_roots", spy)
        on = count_preimages(f, circle_curve, Line.imag_axis(), band=1e-7)
        assert [p.t for p in on.points] == [0.0]
        assert count_preimages(f, circle_curve, Line.imag_axis()).count == 0
        assert lams == [1, 0]

    def test_injected_params_short_circuit_classification(self, circle_curve, monkeypatch):
        f = Polynomial.from_roots([(-1.0, 2)])
        report = classify_roots(f, circle_curve)
        monkeypatch.setattr(zerowind.crossings, "classify_roots", None)
        assert count_preimages(f, circle_curve, Line.real_axis(), zeros=report).count == 2


class TestRootCount:
    """Each segment's zeros of h are roots of one polynomial; each kind of segment against an independent oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_line_segments_match_exact_roots(self, seed):
        # dyadic vertices and coefficients make h exact on every edge; roots
        # planted at an edge point and at a corner are divided out of f
        rng = np.random.default_rng(seed)
        shift = complex(rng.integers(-8, 9), rng.integers(-8, 9)) / 16
        verts = [shift + v for v in ([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j] if seed % 2 else [0, 2, 2 + 2j, 2j])]
        planted = [verts[int(rng.integers(len(verts)))], (verts[1] + verts[2]) / 2]
        free = [complex(rng.integers(-48, 49), rng.integers(-48, 49)) / 16 for _ in range(int(rng.integers(1, 4)))]
        lead = complex(rng.integers(1, 5), rng.integers(-4, 5)) / 4
        f = Polynomial.from_roots(planted[: 1 + seed % 2] + free, leading=lead)
        curve = polygon(verts)
        want = 0
        for seg in curve.segments:
            roots = sympy_segment_residual_roots(f.coeffs, seg.start_point, seg.end_point)
            want += sum(r < 1 for r in roots)  # a corner belongs to the segment it starts
        assert count_preimages(f, curve, Line.real_axis()).count == want

    @pytest.mark.parametrize("line", [Line(0.3), Line.imag_axis()], ids=["0.3", "imag"])
    def test_partial_arcs_match_dense_count(self, line):
        # a stadium of two half circles and two edges, and a circle of three arcs
        stadium = JordanCurve.from_segments(
            [
                LineSegment(-1 - 1j, 1 - 1j),
                ArcSegment(1, 1.0, -np.pi / 2, np.pi / 2),
                LineSegment(1 + 1j, -1 + 1j),
                ArcSegment(-1, 1.0, np.pi / 2, 3 * np.pi / 2),
            ]
        )
        arcs = JordanCurve.from_segments([ArcSegment(0.2j, 1.5, a, b) for a, b in ((0, 2), (2, 4), (4, TWO_PI))])
        for curve in (stadium, arcs):
            rng = np.random.default_rng(3)
            for _ in range(4):
                roots = [complex(curve.point(rng.random()))] + list(rng.normal(size=3) + 1j * rng.normal(size=3))
                f = Polynomial.from_roots(roots)
                got = count_preimages(f, curve, line).count
                assert got == dense_line_crossing_count(f, curve, line, samples=400_000)

    def test_trig_subsegments_match_dense_count(self):
        # a detour composite keeps two pieces of the trig segment; splitting
        # the whole curve at a break must not change its count either
        curve = radial_trig_curve([(0.02, -0.015), (0.01, 0.02)])
        seg = curve.segments[0]
        halves = JordanCurve.from_segments([seg.subsegment(0.0, 0.37), seg.subsegment(0.37, 1.0)])
        z0 = complex(curve.point(0.31))
        f = Polynomial.from_roots([(z0, 1), (0.2 - 0.1j, 1), (-1.7 + 0.4j, 1)])
        detour = build_detour(curve, [z0])
        for line in (Line(0.2), Line(1.3)):
            assert count_preimages(f, halves, line).count == count_preimages(f, curve, line).count
            got = count_preimages(f, detour.composite, line, zeros=ZeroReport.empty()).count
            assert got == dense_line_crossing_count(f, detour.composite, line, samples=400_000)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_on_a_corner_counts_once(self, k):
        sq = square(0.5 + 0.5j, 1.0)
        f = Polynomial.from_roots([(1 + 1j, k), (0.4 + 0.3j, 1)])
        for line in (Line(0.3), Line(2.0)):
            pre = count_preimages(f, sq, line)
            assert sum(abs(p.t - 0.5) < 1e-6 for p in pre.points) == 1
            assert pre.count == dense_line_crossing_count(f, sq, line, samples=400_000)

    def test_below_noise_floor_raises_at_once(self):
        # f on a circle of radius 1e-4 around its order-4 zero is about 4e-16,
        # under the rounding noise of evaluating f there (5e-13): a sampled
        # search scanned up to 4,194,304 samples before giving up
        f = Polynomial.from_roots([(1.0, 4), (-3.0, 1)])
        with pytest.raises(BelowNoiseFloor):
            count_disc_preimages(f, 1.0, 4, 1e-4, Line(0.37))

    def test_split_double_root_near_the_curve_counts_once(self, monkeypatch):
        # the planted double root at t = 0.925 is classified just off the curve,
        # as two simple roots 3e-8 apart; the two crossings near it lie 1.1e-8
        # apart in t, closer than the merge radius, so they are one point
        cfg = HarnessConfig(trials=1, max_degree=6, curve_family="trig-perturbed", seed=1289204377)
        assert run_harness(cfg).min_slack == 1
        monkeypatch.setattr(zerowind.crossings, "MERGE_RADIUS", 1e-9)
        assert run_harness(cfg).min_slack == 2


def _three_mark_composite() -> JordanCurve:
    """The unit circle rerouted around three points: three splice arcs and four arcs of the base circle.

    The stretch from the last mark to the first passes t = 0, where the
    circle's one segment begins, so it is cut in two.
    """
    marks = [np.exp(1j * a) for a in (0.5, 2.5, 4.5)]
    return build_detour(unit_circle(), marks, eps_schedule=[0.1]).composite


def _bits(rows) -> bytes:
    return np.array([complex(x) for row in rows for x in row]).tobytes()


class TestSharedAndBatchedWork:
    """One residual solve per circle, and one evaluation of the curve and of f per count, on the first read of its points."""

    def test_arcs_of_one_circle_share_one_solve(self, monkeypatch):
        composite = _three_mark_composite()
        base = [seg for seg in composite.segments if seg.radius == 1.0]
        assert (len(composite.segments), len(base)) == (7, 4)
        f = Polynomial.from_roots([0.2, -0.5j, 1.5 + 0.3j])
        original, calls = zerowind.crossings.polynomial_roots, []

        def counted(c):
            calls.append(1)
            return original(c)

        monkeypatch.setattr(zerowind.crossings, "polynomial_roots", counted)
        pre = count_preimages(f, composite, Line(0.3), zeros=ZeroReport.empty())
        # one solve for the base circle's four arcs and one per splice arc; one per segment took 7
        assert len(calls) == 4
        assert pre.count == dense_line_crossing_count(f, composite, Line(0.3), samples=200_000)

    @pytest.mark.parametrize(
        "case",
        [
            # f = z meets the real axis at the diamond's corners, t = 0 and the break 0.5
            (polygon([1, 1j, -1, -1j]), (0.0, 1.0), 0.0),
            # 1e-12 lower, just past the break 0.5 and at t just under 1.0
            (polygon([1, 1j, -1, -1j]), (1e-12j, 1.0), 0.0),
            (square(0.3j, 2.0), (0.4, -1.1, 0.2j, 1.0), 0.7),
            (unit_circle(), (0.0,) * 5 + (1.0,), 0.25),
            (radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]), (-0.1, 0.3j, 0.0, 1.0), 1.2),
            ("composite", (0.1, -0.3, 0.0, 0.5j, 1.0), 0.3),
        ],
        ids=["corners", "break-and-end", "square", "circle", "trig", "composite"],
    )
    def test_batched_points_equal_the_pointwise_ones(self, case):
        curve, coeffs, angle = case
        curve = _three_mark_composite() if curve == "composite" else curve
        f = Polynomial(coeffs)
        pre = count_preimages(f, curve, Line(angle))
        assert pre.count > 0
        ts = [p.t for p in pre.points]
        got = [(p.t, p.z, p.value) for p in pre.points]
        assert _bits(got) == _bits(pointwise_preimage_values(f, curve, ts))

    def test_the_break_and_end_cases_reach_both(self):
        diamond = polygon([1, 1j, -1, -1j])
        assert [p.t for p in count_preimages(Polynomial((0.0, 1.0)), diamond, Line(0.0)).points] == [0.0, 0.5]
        ts = [p.t for p in count_preimages(Polynomial((1e-12j, 1.0)), diamond, Line(0.0)).points]
        assert 0.5 < ts[0] < 0.5 + 1e-9 and 1.0 - 1e-9 < ts[1] < 1.0

    @pytest.mark.parametrize(
        "case",
        [
            (square(0.3j, 2.0), (0.4, -1.1, 0.2j, 1.0), 0.7),
            (unit_circle(), (0.0,) * 5 + (1.0,), 0.25),
            (radial_trig_curve([(0.02, -0.01), (0.0, 0.015)]), (-0.1, 0.3j, 0.0, 1.0), 1.2),
            ("composite", (0.1, -0.3, 0.0, 0.5j, 1.0), 0.3),
            (unit_circle(), (3.0, 0.1), np.pi / 2),  # no preimage at all
        ],
        ids=["square", "circle", "trig", "composite", "none"],
    )
    def test_json_is_the_eager_build(self, case):
        # the points are evaluated on the first read, whichever that is, with the floats an eager build gave them
        curve, coeffs, angle = case
        curve = _three_mark_composite() if curve == "composite" else curve
        f = Polynomial(coeffs)
        counted = count_preimages(f, curve, Line(angle))
        ts = np.array([t for t, _ in counted.found], dtype=float)
        zs = curve.points(ts)
        eager = {
            "count": len(ts),
            "points": [
                {"t": t, "z": [z.real, z.imag], "value": [v.real, v.imag], "contact": contact}
                for (_, contact), t, z, v in zip(counted.found, ts.tolist(), zs.tolist(), f(zs).tolist())
            ],
        }
        assert json.dumps(counted.to_json()) == json.dumps(eager)
        points_first = count_preimages(f, curve, Line(angle))
        assert points_first.points == counted.points
        assert json.dumps(points_first.to_json()) == json.dumps(eager)

    @pytest.mark.parametrize("caller", ["verify_trig", "run_harness", "verify_detour"])
    def test_counts_evaluate_no_preimage_points(self, monkeypatch, caller):
        # callers read only the count, so nothing after _cluster evaluates the curve or f
        tail, clustered = [], []
        cluster, points, call = zerowind.crossings._cluster, JordanCurve.points, Polynomial.__call__

        def counted_cluster(cands):
            clustered.append(True)
            return cluster(cands)

        def counted_points(self, t):
            if clustered and clustered[-1]:
                tail.append("points")
            return points(self, t)

        def counted_call(self, z):
            if clustered and clustered[-1]:
                tail.append("f")
            return call(self, z)

        for module in (zerowind.verify, zerowind.harness):
            def closed(*args, _count=module.count_preimages, **kwargs):
                try:
                    return _count(*args, **kwargs)
                finally:
                    clustered.append(False)

            monkeypatch.setattr(module, "count_preimages", closed)
        monkeypatch.setattr(zerowind.crossings, "_cluster", counted_cluster)
        monkeypatch.setattr(JordanCurve, "points", counted_points)
        monkeypatch.setattr(Polynomial, "__call__", counted_call)
        if caller == "verify_trig":
            assert verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55]).bound_holds
        elif caller == "run_harness":
            assert run_harness(HarnessConfig(trials=2, max_degree=5, curve_family="trig-perturbed", seed=3)).all_hold
        else:
            f = Polynomial.from_roots([(1.0, 1), (0.4j, 1), (-0.3, 1)])
            assert verify_detour(f, unit_circle(), Line(0.3))[0].holds
        assert clustered.count(True) == {"verify_trig": 2, "run_harness": 2, "verify_detour": 1}[caller]
        assert tail == []


def _mean_placement(group: list[float]) -> float:
    """Where ``_cluster`` put a group of segment roots before lone roots kept their own t: the wrapped mean."""
    first = group[0]
    return (first + float(np.mean([(s - first + 0.5) % 1.0 - 0.5 for s in group]))) % 1.0


class TestLoneCandidates:
    """A group of one segment root sits at that root's t, the bits the mean gave it."""

    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None, database=None)
    def test_same_bits_as_the_mean(self, ts):
        ts = sorted(set(ts))
        # keep t values more than the merge radius apart, cyclically, so each is its own group
        lone = [t for i, t in enumerate(ts) if i == 0 or t - ts[i - 1] > 2 * zerowind.crossings.MERGE_RADIUS]
        lone = [t for t in lone if t == lone[0] or lone[0] + 1.0 - t > 2 * zerowind.crossings.MERGE_RADIUS]
        got = zerowind.crossings._cluster([(t, 1, False) for t in lone])
        assert [t.hex() for t, _ in got] == [_mean_placement([t]).hex() for t in lone]
        assert {contact for _, contact in got} == {"transversal"}

    @pytest.mark.parametrize("t", [0.0, 5e-324, 1e-300, 0.1, 0.5, float(np.nextafter(1.0, 0.0))])
    def test_ends_of_the_period(self, t):
        assert zerowind.crossings._cluster([(t, 1, False)])[0][0].hex() == _mean_placement([t]).hex()

    def test_groups_of_two_still_take_the_mean(self):
        pair = [0.3, 0.3 + 5e-8]
        assert zerowind.crossings._cluster([(t, 1, False) for t in pair]) == [(_mean_placement(pair), "tangential")]


class TestNegligibleHarmonics:
    """A harmonic under the rounding of sum_k |c_k| takes no part in the root solves."""

    @pytest.mark.parametrize("tiny", [1e-20, 1e-40, 1e-80, 1e-160, 5e-324])
    def test_count_around_the_ellipse(self, tiny):
        # the ellipse winds once around f's root 0.3, so the line meets f's image twice;
        # a top harmonic of 1e-80 or 1e-160 gave 0, and a subnormal one raised LinAlgError
        f, line = Polynomial((-0.3, 1.0)), Line(0.4)
        ellipse = trig_curve_from_complex_fourier({1: 1.0, -1: 0.3})
        assert count_preimages(f, ellipse, line).count == 2
        assert count_preimages(f, trig_curve_from_complex_fourier({1: 1.0, -1: 0.3, 2: tiny}), line).count == 2


class TestDiscPreimages:
    def test_double_root(self):
        f = Polynomial.from_roots([(1.0, 2)])
        assert count_disc_preimages(f, 1.0, 2, 1e-2, Line.real_axis()) == 4

    def test_simple_root_any_line(self):
        f = Polynomial([-1, 1])
        for ang in (0.0, 0.7, np.pi / 2):
            assert count_disc_preimages(f, 1.0, 1, 1e-2, Line(ang)) == 2

    def test_high_multiplicity_with_far_root(self):
        for k in range(1, 5):
            f = Polynomial.from_roots([(1.0, k), (-5.0, 1)])
            assert count_disc_preimages(f, 1.0, k, 1e-3, Line.imag_axis()) == 2 * k

    def test_disc_must_exclude_other_roots(self):
        f = Polynomial.from_roots([(1.0, 1), (1.001, 1)])
        with pytest.raises(ValueError):
            count_disc_preimages(f, 1.0, 1, 1e-2, Line.real_axis())

    @pytest.mark.parametrize(
        "mult, multiplicity",
        [(2, 2.5), (2, 2.9), (2, "2"), (1, True), (1, 1.7)],
        ids=["double-2.5", "double-2.9", "double-string", "simple-bool", "simple-1.7"],
    )
    def test_multiplicity_that_is_not_an_integer_refused(self, mult, multiplicity, monkeypatch):
        # each was taken as int(multiplicity): a double root's 4 preimages, a simple root's 2
        solves, original = [], zerowind.crossings.find_roots
        monkeypatch.setattr(zerowind.crossings, "find_roots", lambda f: solves.append(f) or original(f))
        f = Polynomial.from_roots([(1.0, mult)])
        with pytest.raises(ValueError, match=f"^multiplicity must be an integer >= 1, not {multiplicity!r}$"):
            count_disc_preimages(f, 1.0, multiplicity, 1e-2, Line.real_axis())
        assert solves == []

    @pytest.mark.parametrize("multiplicity", [2, 2.0, np.int64(2)], ids=["int", "float", "numpy-int"])
    def test_integer_valued_multiplicity_accepted(self, multiplicity):
        f = Polynomial.from_roots([(1.0, 2)])
        assert count_disc_preimages(f, 1.0, multiplicity, 1e-2, Line.real_axis()) == 4

    def test_wrong_multiplicity_rejected(self):
        f = Polynomial.from_roots([(1.0, 2)])
        with pytest.raises(ValueError):
            count_disc_preimages(f, 1.0, 1, 1e-2, Line.real_axis())

    def test_not_a_root_rejected(self):
        f = Polynomial([-1, 1])
        with pytest.raises(ValueError):
            count_disc_preimages(f, 0.5, 1, 1e-2, Line.real_axis())


class TestArgDerivativeProbe:
    def test_double_root_mean(self):
        f = Polynomial.from_roots([(1.0, 2)])
        mean, _ = arg_derivative_probe(f, 1.0, 1e-3)
        assert mean == pytest.approx(2.0, abs=0.01)

    def test_identity_at_origin(self):
        mean, max_dev = arg_derivative_probe(Polynomial([0, 1]), 0.0, 0.37)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert max_dev < 1e-9

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-3])
    def test_radius_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            arg_derivative_probe(Polynomial.from_roots([(1.0, 2)]), 1.0, eps)

    def test_nearby_root_violates_precondition(self):
        f = Polynomial.from_roots([(1.0, 1), (1.001, 1)])
        with pytest.raises(ValueError):
            arg_derivative_probe(f, 1.0, 1e-2)

    def test_deviation_shrinks_when_other_factors_exist(self):
        # the deviation is the argument drift of the non-vanishing factor,
        # which scales linearly with the probe radius
        for k in (1, 2, 3, 5):
            f = Polynomial.from_roots([(1.0, k), (-5.0, 1)])
            devs = [arg_derivative_probe(f, 1.0, eps)[1] for eps in (1e-1, 1e-2, 1e-3)]
            assert devs[0] > devs[1] > devs[2]
            assert devs[2] < 1e-3

    def test_pure_power_deviation_never_grows(self):
        # for exact powers the drift term is identically zero, so the probe
        # floor is grid noise, which does not depend on the radius
        for k in (1, 3, 5):
            f = Polynomial.from_roots([(1.0, k)])
            devs = [arg_derivative_probe(f, 1.0, eps)[1] for eps in (1e-1, 1e-2, 1e-3)]
            assert devs[0] >= devs[1] >= devs[2]
            assert devs[2] < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.floats(0.01, 0.1))
    def test_mean_equals_multiplicity(self, k, eps):
        f = Polynomial.from_roots([(0.5j, k), (3.0, 1)])
        mean, _ = arg_derivative_probe(f, 0.5j, eps)
        assert mean == pytest.approx(k, abs=0.1)
