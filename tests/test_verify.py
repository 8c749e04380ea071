import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zerowind import (
    BoundaryCoefficientZero,
    Line,
    Polynomial,
    build_detour,
    classify_roots,
    count_preimages,
    find_roots,
    radial_trig_curve,
    reverse_poly,
    square,
    trig_zero_count,
    unit_circle,
    verify_detour,
    verify_main,
    verify_piecewise,
    verify_trig,
)
import zerowind.crossings
import zerowind.verify
from zerowind.crossings import CrossingConfig
from zerowind.verify import _SCAN_SAMPLES, _direct_cosine_zero_count, guarded_ceil

from oracles import dense_cosine_zero_count, dense_line_crossing_count, termwise_cosine_zero_count

TWO_PI = 2 * np.pi


class TestVerifyMain:
    def test_boundary_power_even(self, circle_curve):
        rep = verify_main(Polynomial.from_roots([(-1.0, 4)]), circle_curve, Line.real_axis())
        assert (rep.measured, rep.bound, rep.holds) == (4, 4, True)

    def test_pure_cube(self, circle_curve):
        rep = verify_main(Polynomial([0, 0, 0, 1]), circle_curve, Line.imag_axis())
        assert (rep.measured, rep.bound, rep.holds) == (6, 6, True)

    def test_two_interior_roots(self, circle_curve):
        f = Polynomial.from_roots([0.5, 0.0])
        rep = verify_main(f, circle_curve, Line.real_axis())
        assert rep.bound == 4
        assert rep.measured >= 4
        assert rep.measured == dense_line_crossing_count(f, circle_curve, Line.real_axis(), samples=400_000)

    def test_mixed_interior_boundary(self, circle_curve):
        f = Polynomial.from_roots([(1.0, 1), (0.5, 1)])
        rep = verify_main(f, circle_curve, Line.real_axis())
        assert rep.bound == 3
        assert rep.measured >= 3
        assert rep.holds

    def test_corners_rejected(self, unit_square):
        with pytest.raises(ValueError):
            verify_main(Polynomial([0, 1]), unit_square, Line.real_axis())

    def test_per_corner_reduces_to_multiplicities(self, circle_curve):
        rep = verify_main(Polynomial.from_roots([(1j, 2)]), circle_curve, Line(0.3))
        assert [(c.multiplicity, c.ceil_term) for c in rep.per_corner] == [(2, 2)]


class TestVerifyPiecewise:
    def test_corner_zero_on_square(self):
        sq = square(0.5 + 0.5j, 1.0)  # corners at 0, 1, 1+i, i
        rep = verify_piecewise(Polynomial([-(1 + 1j), 1]), sq, Line.real_axis())
        assert rep.bound == 1  # ceil(1 * (pi/2) / pi) = 1
        assert rep.measured >= 1
        assert rep.holds

    def test_double_corner_zero_term(self):
        sq = square(0.5 + 0.5j, 1.0)
        rep = verify_piecewise(Polynomial.from_roots([(1 + 1j, 2)]), sq, Line(0.4))
        assert [c.ceil_term for c in rep.per_corner] == [1]  # ceil(2 * (1/2)) = 1

    def test_reflex_corner_term(self, lshape):
        rep = verify_piecewise(Polynomial([-(1 + 1j), 1]), lshape, Line(0.3))
        assert [c.ceil_term for c in rep.per_corner] == [2]  # ceil(1 * (3/2)) = 2
        assert rep.measured >= rep.bound

    def test_smooth_curve_degenerates_to_main(self, circle_curve):
        f = Polynomial.from_roots([(0.3, 1), (np.exp(0.4j), 2)])
        a = verify_main(f, circle_curve, Line(0.8))
        b = verify_piecewise(f, circle_curve, Line(0.8))
        assert a.bound == b.bound == 4
        assert a.to_json() == b.to_json()

    def test_edge_zero_counts_like_smooth(self, unit_square):
        # a zero in the interior of an edge has interior angle pi
        z = complex(unit_square.point(0.1))
        rep = verify_piecewise(Polynomial([-z, 1]), unit_square, Line(1.1))
        assert rep.bound == 1
        assert rep.per_corner[0].interior_angle == pytest.approx(np.pi)

    def test_guarded_ceil(self):
        assert guarded_ceil(0.5) == 1
        assert guarded_ceil(1.0) == 1
        assert guarded_ceil(1.0 + 5e-10) == 1
        assert guarded_ceil(1.5) == 2


class TestVerifyDetour:
    def test_simple_boundary_zero(self, circle_curve):
        rep, det = verify_detour(Polynomial([-1, 1]), circle_curve, Line.real_axis(), eps_schedule=[0.1])
        assert rep.winding == 1
        assert rep.preimage_count >= 2
        assert rep.holds

    def test_double_boundary_with_interior(self, circle_curve):
        f = Polynomial.from_roots([(1.0, 2), (0.3, 1)])
        rep, det = verify_detour(f, circle_curve, Line.real_axis())
        assert rep.winding == 3  # m + lam = 1 + 2
        assert rep.preimage_count >= 6
        assert rep.holds

    def test_requires_boundary_zero(self, circle_curve):
        with pytest.raises(ValueError):
            verify_detour(Polynomial([-2, 1]), circle_curve, Line.real_axis())

    def test_detour_honours_band(self, circle_curve):
        # a zero just outside the circle: on it for band 1e-7, off it for the
        # default band of about 2e-9, which the detour must not fall back to
        f = Polynomial([-(1.0 + 1e-8), 1.0])
        rep, det = verify_detour(f, circle_curve, Line.real_axis(), cfg=CrossingConfig(band=1e-7))
        assert (rep.m, rep.lam, rep.winding) == (0, 1, 1)
        assert rep.holds
        assert len(det.excised) == 1

    def test_intermediate_count_on_shared_portion(self, circle_curve):
        # points of the composite away from the excision discs lie on the base
        # curve too; there must be at least 2m + sum(lam_j - 1) of them, and
        # adding the boundary zeros themselves recovers the full bound
        rng = np.random.default_rng(17)
        for _ in range(12):
            n_on = int(rng.integers(1, 3))
            roots = [(complex(np.exp(1j * TWO_PI * rng.integers(0, 24) / 24.0)), int(rng.integers(1, 3)))]
            for _ in range(n_on - 1):
                cand = complex(np.exp(1j * TWO_PI * rng.integers(0, 24) / 24.0))
                if all(abs(cand - r) > 0.7 for r, _ in roots):
                    roots.append((cand, int(rng.integers(1, 3))))
            if rng.random() < 0.7:
                roots.append((0.25 * np.exp(1j * rng.uniform(0, TWO_PI)), 1))
            f = Polynomial.from_roots(roots)
            line = Line(rng.uniform(0, np.pi))
            report = classify_roots(f, circle_curve)
            try:
                rep, det = verify_detour(f, circle_curve, line)
            except Exception:
                continue
            assert rep.holds
            pre = count_preimages(f, det.composite, line, CrossingConfig(on_curve_params=()))
            off_disc = [
                p for p in pre.points if all(abs(p.z - z) > eps * (1 + 1e-9) for z, eps in det.excised)
            ]
            lam_terms = sum(r.multiplicity - 1 for r in report.on_curve.roots)
            assert len(off_disc) >= 2 * report.m + lam_terms
            k = len(report.on_curve.roots)
            assert len(off_disc) + k >= 2 * report.m + report.lam


class TestReversePoly:
    def test_reversal(self):
        assert reverse_poly(Polynomial([1, 2, 3])) == Polynomial([3, 2, 1])

    def test_palindrome_fixed(self):
        f = Polynomial([2, 5, 5, 2])
        assert reverse_poly(f) == f

    def test_zero_constant_coefficient(self):
        with pytest.raises(BoundaryCoefficientZero):
            reverse_poly(Polynomial([0, 1]))

    def test_roots_become_reciprocals(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            roots = [rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, TWO_PI)) for _ in range(5)]
            f = Polynomial.from_roots(roots)
            g = reverse_poly(f)
            got = sorted(find_roots(g).locations(), key=lambda z: (z.real, z.imag))
            want = sorted((1.0 / r for r in roots), key=lambda z: (z.real, z.imag))
            assert np.allclose(got, want, atol=1e-7)


class TestTrigZeroCount:
    def test_two_coefficients(self):
        assert trig_zero_count([1, 2], "P") == 2  # 1 + 2cos(t): two crossings
        assert trig_zero_count([1, 2], "Q") == 0  # 2 + cos(t) > 0

    def test_tangential_comb(self):
        for n in (1, 2, 4, 7):
            coeffs = [1.0] + [0.0] * (n - 1) + [1.0]
            assert trig_zero_count(coeffs, "P") == n  # 1 + cos(n t), all touches
            assert trig_zero_count(coeffs, "Q") == n

    def test_zero_boundary_coefficient_rejected(self):
        with pytest.raises(BoundaryCoefficientZero):
            trig_zero_count([0, 1, 1], "P")

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            coeffs = rng.uniform(-1, 1, size=n + 1)
            if abs(coeffs[0]) < 0.05:
                coeffs[0] = 0.3
            if abs(coeffs[-1]) < 0.05:
                coeffs[-1] = -0.4
            assert trig_zero_count(list(coeffs), "P") == dense_cosine_zero_count(coeffs, samples=400_000)


class TestVerifyTrig:
    def test_linear_case(self):
        rep = verify_trig([1, 2])
        assert (rep.z_p, rep.z_q) == (2, 0)
        assert (rep.m_f, rep.m_g, rep.lam) == (1, 0, 0)
        assert rep.identity_holds and rep.bound_holds

    def test_boundary_power_parity(self):
        # (1+z)^n has all zeros on the circle; the cosine sum picks up the
        # boundary zero at t = pi only when n is even, giving n or n+1 zeros
        for n in (3, 4):
            coeffs = [math.comb(n, j) for j in range(n + 1)]
            rep = verify_trig(coeffs)
            assert rep.lam == n and rep.m_f == rep.m_g == 0
            assert rep.identity_holds and rep.bound_holds
            want = n if n % 2 == 1 else n + 1
            assert rep.z_p == rep.z_q == want
            assert rep.z_p == dense_cosine_zero_count(coeffs, samples=400_000)

    def test_palindromic_comb(self):
        rep = verify_trig([1, 0, 0, 0, 0, 1])
        assert rep.z_p == rep.z_q == 5
        assert rep.identity_holds and rep.bound_holds

    def test_unit_root_pair_identity(self):
        # plant an exact conjugate pair on the circle through a real quadratic factor
        rng = np.random.default_rng(41)
        for _ in range(8):
            psi = TWO_PI * rng.integers(1, 12) / 24.0
            quad = Polynomial([1.0, -2.0 * np.cos(psi), 1.0])
            rest = Polynomial.from_roots([rng.uniform(0.2, 0.7), rng.uniform(1.5, 2.5)])
            f_coeffs = np.convolve(np.array(quad.coeffs), np.array(rest.coeffs))
            rep = verify_trig([c.real for c in f_coeffs])
            assert rep.lam == 2
            assert rep.identity_holds
            assert rep.bound_holds

    def test_random_bound_holds(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            coeffs = rng.uniform(-1, 1, size=n + 1)
            if abs(coeffs[0]) < 0.05:
                coeffs[0] = 0.2
            if abs(coeffs[-1]) < 0.05:
                coeffs[-1] = 0.6
            rep = verify_trig(list(coeffs))
            assert rep.identity_holds
            assert rep.bound_holds

    def test_classifies_each_polynomial_once(self, monkeypatch):
        calls = []
        for module in (zerowind.verify, zerowind.crossings):
            original = module.classify_roots

            def counted(*args, _original=original, **kwargs):
                calls.append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "classify_roots", counted)
        rep = verify_trig([1, 4, 6, 4, 1])
        assert rep.lam == 4
        assert len(calls) == 2

    def test_classification_honours_band(self, circle_curve):
        # a conjugate pair just outside the circle: on it for band 1e-7, off it
        # for the default band of about 2e-9
        r, psi = 1.0 + 1e-8, np.pi / 3
        coeffs = [r * r, -2.0 * r * np.cos(psi), 1.0]
        band = 1e-7
        assert classify_roots(Polynomial(coeffs), circle_curve).lam == 0
        want = classify_roots(Polynomial(coeffs), circle_curve, band=band).lam
        assert want == 2
        rep = verify_trig(coeffs, CrossingConfig(band=band))
        assert rep.lam == want
        assert (rep.m_f, rep.m_g) == (0, 0)
        assert rep.identity_holds and rep.bound_holds

    @pytest.mark.parametrize(
        "a",
        [[np.complex128(1 + 2j), 2.0], np.array([1 + 2j, 2]), [1 + 2j, 2]],
        ids=["numpy-scalar", "numpy-array", "python-complex"],
    )
    def test_complex_coefficient_rejected(self, a):
        with pytest.raises(ValueError, match="coefficient 0"):
            verify_trig(a)
        with pytest.raises(ValueError, match="coefficient 0"):
            trig_zero_count(a)

    def test_zero_imaginary_part_is_real(self):
        assert verify_trig([1, 2 + 0j]).to_json() == verify_trig([1, 2]).to_json()


def _exponents(lo, hi):
    """Integers in [lo, hi] with both ends drawn often: overflow and underflow live there."""
    return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))


def _cheb_from_x_roots(roots):
    """Cosine-sum coefficients of prod (cos t - r), i.e. its Chebyshev coefficients in x = cos t."""
    return list(np.polynomial.chebyshev.poly2cheb(np.polynomial.polynomial.polyfromroots(roots)))


class TestDirectCosineScan:
    """The recurrence scan must count exactly as the termwise evaluation of the same rule."""

    @staticmethod
    def _same(coeffs):
        got = _direct_cosine_zero_count(coeffs)
        assert got == termwise_cosine_zero_count(coeffs), coeffs
        return got

    def test_criterion_8_distribution(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-1.0, 1.0, size=n + 1)
            while abs(a[0]) < 0.05:
                a[0] = rng.uniform(-1.0, 1.0)
            while abs(a[-1]) < 0.05:
                a[-1] = rng.uniform(-1.0, 1.0)
            self._same(list(a))

    def test_combs_and_binomials(self):
        for n in range(1, 13):
            assert self._same([1.0] + [0.0] * (n - 1) + [1.0]) == n  # 1 + cos(n t)
        for n in range(1, 9):
            self._same([math.comb(n, j) for j in range(n + 1)])  # (1 + z)^n

    @pytest.mark.parametrize(
        "t0, want",
        [
            (0.0, 3),  # on the grid, where the cyclic runs wrap
            ((_SCAN_SAMPLES // 8) * (TWO_PI / _SCAN_SAMPLES), 4),  # on the grid, t = pi/4
            (np.pi, 3),  # on the grid, on the mirror axis
            (1.0, 4),  # off the grid
        ],
    )
    def test_planted_double_zero(self, t0, want):
        # (cos t - cos t0)^2 (cos t - 0.3): a touch at +-t0 and two crossings
        a = np.cos(t0)
        assert self._same(_cheb_from_x_roots([a, a, 0.3])) == want

    @pytest.mark.parametrize(
        "coeffs, want",
        [([1e307] * 9, 16), ([1e-300] * 9, 16), ([1e-310] * 3, 4)],
        ids=["1e307", "1e-300", "1e-310"],
    )
    def test_extreme_scales(self, coeffs, want):
        # the counts of [1] * 9 and [1] * 3, whatever the scale
        assert self._same(coeffs) == want

    @settings(max_examples=100, deadline=None)
    @given(
        mantissas=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=9).filter(
            lambda m: abs(m[0]) >= 0.05 and abs(m[-1]) >= 0.05
        ),
        e=_exponents(-123, 123),
        k=_exponents(-900, 900),
    )
    @example(mantissas=[1.0] * 9, e=123, k=900)
    def test_power_of_two_scaling_invariant(self, mantissas, e, k):
        coeffs = np.ldexp(mantissas, e)
        scaled = np.ldexp(coeffs, k)
        assume(np.array_equal(np.ldexp(scaled, -k), coeffs))
        assert _direct_cosine_zero_count(scaled) == _direct_cosine_zero_count(coeffs)

    def test_one_grid_per_process(self, monkeypatch):
        # the grid's cosines are computed once and reused; a grid per call or
        # a cosine per term calls np.cos on a half-grid-sized array again
        big = []
        original = np.cos

        def counted(x, *args, **kwargs):
            if np.size(x) >= _SCAN_SAMPLES // 2:
                big.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counted)
        verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55])
        verify_trig([1, 4, 6, 4, 1])
        assert len(big) <= 1
