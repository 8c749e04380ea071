import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerowind.crossings
from zerowind import (
    CrossingConfig,
    Line,
    Polynomial,
    ResolutionTooCoarse,
    arg_derivative_probe,
    count_disc_preimages,
    count_preimages,
    line_residual,
    radial_trig_curve,
    unit_circle,
)

from oracles import dense_line_crossing_count

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
        assert line_residual(f, circle_curve, Line.real_axis(), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert line_residual(f, circle_curve, Line.real_axis(), 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self, circle_curve):
        f = Polynomial([1, 2, 3])
        ts = np.linspace(0, 1, 7)
        vals = line_residual(f, circle_curve, Line(0.4), ts)
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
            got = line_residual(f, circle_curve, Line.imag_axis(), theta / TWO_PI)
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

    def test_transversal_pair(self, circle_curve):
        pre = count_preimages(Polynomial([-1, 1]), circle_curve, Line.real_axis())
        assert pre.count == 2
        assert sorted(round(p.t, 6) for p in pre.points) == [0.0, 0.5]

    def test_doubling_reuses_scan_samples(self, circle_curve, monkeypatch):
        # level two keeps level one's 4096 residuals and evaluates f only on its 4096 odd points
        levels, scanned, checking = [], [], []
        detect, call = zerowind.crossings._detect, Polynomial.__call__
        f, line = Polynomial([-1, 1]), Line.real_axis()

        def counted_detect(h, ts, vals, cfg):
            levels.append(len(ts))
            checking.append(True)
            assert np.array_equal(vals, line_residual(f, circle_curve, line, ts))
            checking.pop()
            return detect(h, ts, vals, cfg)

        def counted_call(self, z):
            if np.size(z) >= 1024 and not checking:
                scanned.append(np.size(z))
            return call(self, z)

        monkeypatch.setattr(zerowind.crossings, "_detect", counted_detect)
        monkeypatch.setattr(Polynomial, "__call__", counted_call)
        assert count_preimages(f, circle_curve, line, CrossingConfig(samples=4096)).count == 2
        assert levels == [4096, 8192]
        assert scanned == [4096, 4096]

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

    def test_resolution_instability_raises(self, circle_curve):
        cfg = CrossingConfig(samples=8, max_samples=16)
        with pytest.raises(ResolutionTooCoarse):
            count_preimages(Polynomial([0, 0, 0, 0, 0, 1]), circle_curve, Line(0.3), cfg)

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_fewer_than_two_samples_rejected(self, samples):
        # one sample of z - 0.3 on the unit circle is real, which once read as "the image lies on the line"
        with pytest.raises(ValueError, match="samples must be at least 2"):
            CrossingConfig(samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 2"):
            count_preimages(Polynomial([-0.3, 1]), unit_circle(), Line.real_axis(), CrossingConfig(samples=samples))

    def test_two_samples_accepted(self, circle_curve):
        pre = count_preimages(Polynomial([-0.3, 1]), circle_curve, Line.real_axis(), CrossingConfig(samples=2))
        assert pre.count == 2

    def test_constant_image_on_line_rejected(self, circle_curve):
        # constant polynomial with value on the line: residual identically zero
        with pytest.raises(ValueError):
            count_preimages(Polynomial([2.0]), circle_curve, Line.real_axis())

    def test_injected_params_short_circuit_classification(self, circle_curve):
        f = Polynomial.from_roots([(-1.0, 2)])
        cfg = CrossingConfig(on_curve_params=(0.5,))
        assert count_preimages(f, circle_curve, Line.real_axis(), cfg).count == 2


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
