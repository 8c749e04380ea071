import math
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zerowind import (
    BoundaryCoefficientZero,
    Line,
    Polynomial,
    SelfCheckFailed,
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
from zerowind.verify import _exact_cosine_zero_count, guarded_ceil

from oracles import (
    dense_cosine_zero_count,
    dense_line_crossing_count,
    sympy_cosine_zero_count,
    termwise_cosine_zero_count,
)

TWO_PI = 2 * np.pi


def _exponents(lo, hi):
    """Integers in [lo, hi] with both ends drawn often: overflow and underflow live there."""
    return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))


def _cheb_from_x_roots(roots):
    """Cosine-sum coefficients of prod (cos t - r), i.e. its Chebyshev coefficients in x = cos t."""
    return list(np.polynomial.chebyshev.poly2cheb(np.polynomial.polynomial.polyfromroots(roots)))


def _dyadic(x, bits=8):
    """x rounded to a multiple of 2^-bits, so that products of a few such roots stay exact floats."""
    return math.ldexp(round(math.ldexp(x, bits)), -bits)


def _exact_cheb_from_x_roots(roots):
    """_cheb_from_x_roots on dyadic roots, checked to be the exact Chebyshev coefficients."""
    coeffs = _cheb_from_x_roots(roots)
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.prod([x - sympy.Rational(r) for r in roots]), x)
    got = sympy.Poly(sum(sympy.Rational(c) * sympy.chebyshevt(j, x) for j, c in enumerate(coeffs)), x)
    assert got == want, roots
    return coeffs


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
        # (see TestDirectCosineScan.test_combs_and_binomials); a sampled scan
        # merged the order-n zero at t = pi with its neighbours from n = 8 on
        for n in range(1, 13):
            coeffs = [math.comb(n, j) for j in range(n + 1)]
            rep = verify_trig(coeffs)
            assert rep.lam == n and rep.m_f == rep.m_g == 0
            assert rep.identity_holds and rep.bound_holds
            want = n if n % 2 == 1 else n + 1
            assert rep.z_p == rep.z_q == want
            if n <= 4:
                assert rep.z_p == dense_cosine_zero_count(coeffs, samples=400_000)

    def test_unresolved_binomial_is_caught(self):
        # (1 + z)^16 has 17 zeros, but |P| between the order-16 zero at t = pi
        # and its neighbours at pi -+ pi/16 stays under 2^-58 of sum |c_j|,
        # below what the float residual resolves: the preimage count takes
        # the three as one and the exact count of the integer coefficients
        # says so, instead of a report of 15 + 15 < 32 zeros
        with pytest.raises(SelfCheckFailed, match="preimage count 15 disagrees with exact cosine-sum count 17"):
            verify_trig([math.comb(16, j) for j in range(17)])

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            # (z - 1)(z - 0.3) and (z + 1)(z - 0.3): a simple zero at t = 0 or
            # pi, which the rounded floats turn into a near-touch
            ([0.3, -1.3, 1.0], (3, 1, 1, 0, 1)),
            ([-0.3, 0.7, 1.0], (3, 1, 1, 0, 1)),
            # (z + 1)^2 (z - 0.45)
            ([-0.45, 0.09999999999999998, 1.55, 1.0], (5, 3, 1, 0, 2)),
            # Chebyshev coefficients of (x - 1)^2 (x - 0.3) and of
            # (x - cos(pi/4))^2 (x - 0.3), rounded: the double root splits
            ([-1.45, 2.35, -1.15, 0.25], (3, 5, 0, 2, 1)),
            ([-1.0071067811865477, 1.6742640687119286, -0.8571067811865476, 0.25], (4, 4, 1, 2, 0)),
        ],
        ids=["root-1", "root-minus-1", "double-root-minus-1", "rounded-double-x-1", "rounded-double-x-pi4"],
    )
    def test_rounded_roots_near_the_circle(self, coeffs, want):
        # decimal inputs whose zeros the floats move by an ulp: a zero of the
        # sum that rounding splits or lifts off is one zero, in the preimage
        # count and in the exact count that checks it
        rep = verify_trig(coeffs)
        assert (rep.z_p, rep.z_q, rep.m_f, rep.m_g, rep.lam) == want
        assert rep.identity_holds and rep.bound_holds

    @pytest.mark.parametrize(
        "coeffs",
        [[1e307] * 9, [1e308] * 3, [1e-310] * 3, [5e-324] * 3],
        ids=["1e307x9", "1e308x3", "1e-310x3", "5e-324x3"],
    )
    def test_extreme_scales(self, coeffs):
        # the report of [1] * len(coeffs), with the coefficients echoed as given
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = verify_trig(coeffs).to_json()
        want = verify_trig([1.0] * len(coeffs)).to_json()
        assert got.pop("coeffs") == coeffs
        want.pop("coeffs")
        assert got == want

    def test_inexact_scaling_is_not_applied(self):
        # halving 5e-324 would round it to 0 and turn 1 + 5e-324 cos(t) +
        # cos(2t), whose zeros near pi/2 and 3pi/2 are pairs 2.5e-324 apart in
        # cos t, into 1 + cos(2t) with two double zeros; the vector is counted
        # as given
        assert zerowind.verify._unit_scaled((4.0, 3.0)) == (0.5, 0.375)
        assert zerowind.verify._unit_scaled((1.0, 5e-324, 1.0)) == (1.0, 5e-324, 1.0)
        assert _exact_cosine_zero_count([1.0, 5e-324, 1.0]) == sympy_cosine_zero_count([1.0, 5e-324, 1.0]) == 4
        assert _exact_cosine_zero_count([0.5, 0.0, 0.5]) == 2

    def test_boundary_coefficient_underflow_rejected(self):
        # scaled to max |a_j| in [0.5, 1), the constant coefficient rounds to 0
        for a in ([5e-324, 1.0], [1.0, 5e-324]):
            with pytest.raises(BoundaryCoefficientZero, match="underflows"):
                verify_trig(a)
            with pytest.raises(BoundaryCoefficientZero, match="underflows"):
                trig_zero_count(a)

    @settings(max_examples=25, deadline=None)
    @given(
        mantissas=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7).filter(
            lambda m: abs(m[0]) >= 0.05 and abs(m[-1]) >= 0.05
        ),
        k=_exponents(-1000, 1000),
    )
    def test_report_power_of_two_scaling_invariant(self, mantissas, k):
        scaled = [math.ldexp(m, k) for m in mantissas]
        assume(all(math.ldexp(s, -k) == m for s, m in zip(scaled, mantissas)))
        want = verify_trig(mantissas).to_json()
        got = verify_trig(scaled).to_json()
        assert got.pop("coeffs") == scaled
        want.pop("coeffs")
        assert got == want

    @pytest.mark.xfail(
        raises=SelfCheckFailed,
        strict=True,
        reason="ROADMAP item 4: two crossings in one grid cell of both scan levels are seen as one dip",
    )
    def test_close_crossing_pair_in_one_cell(self):
        # cos t (2 cos t + 1e-6) has simple zeros at pi/2 and 3pi/2 and, 5e-7
        # from each, a zero of 2 cos t + 1e-6: both pairs fit in one cell of
        # the 4096- and the 8192-point grid, so the preimage count reads 2
        rep = verify_trig([1.0, 1e-6, 1.0])
        assert rep.z_p == rep.z_q == 4

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


class TestDirectCosineScan:
    """The direct count of a cosine sum's zeros, exact in integer arithmetic, against independent oracles."""

    @staticmethod
    def _same(coeffs):
        got = _exact_cosine_zero_count(coeffs)
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
        for n in range(1, 17):
            # (1 + z)^n: the real part on the circle is 2^n cos^n(t/2) cos(n t/2),
            # zero at the n points of cos(n t/2) = 0 and, for even n, at t = pi;
            # integer coefficients are exact, so the zeros next to the flat
            # one at t = pi count apart however close |P| comes to 0 between
            coeffs = [math.comb(n, j) for j in range(n + 1)]
            want = n if n % 2 == 1 else n + 1
            assert _exact_cosine_zero_count(coeffs) == sympy_cosine_zero_count(coeffs) == want

    @pytest.mark.parametrize(
        "t0, want",
        [
            (0.0, 3),  # x = 1: the touch at t = 0 is a root at an end of [-1, 1]
            (np.pi / 4, 4),
            (np.pi, 3),  # x = -1
            (1.0, 4),
        ],
    )
    def test_planted_double_zero(self, t0, want):
        # (cos t - a)^2 (cos t - b): a touch at +-arccos(a) and two crossings,
        # with a the 8-bit dyadic nearest cos t0 and b near 0.3, so that the
        # coefficients are exact and the double root survives
        a = _dyadic(np.cos(t0))
        coeffs = _exact_cheb_from_x_roots([a, a, _dyadic(0.3)])
        assert self._same(coeffs) == sympy_cosine_zero_count(coeffs) == want

    @pytest.mark.parametrize("a, distinct, want", [(1.0, 2, 3), (np.cos(np.pi / 4), 6, 4)])
    def test_rounded_double_root_is_one_zero(self, a, distinct, want):
        # rounded to floats, the coefficients of (x - a)^2 (x - 0.3) no longer
        # have a double root: at a = 1 it leaves (-1, 1) or turns complex, at
        # cos(pi/4) it splits into two simple roots 4e-8 apart.  sympy
        # counts the distinct zeros of the floats; the exact count resolves
        # the sum to 2^-44 of sum |c_j| over the rounded coefficients and
        # sees the planted double zero
        coeffs = _cheb_from_x_roots([a, a, 0.3])
        assert sympy_cosine_zero_count(coeffs) == distinct
        assert _exact_cosine_zero_count(coeffs) == want
        assert verify_trig(coeffs).z_p == want

    def test_against_sympy_random(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            a = rng.uniform(-1.0, 1.0, size=n + 1)
            assert _exact_cosine_zero_count(list(a)) == sympy_cosine_zero_count(a), list(a)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_sympy_planted_multiple_roots(self, seed):
        # double and triple roots in x inside (-1, 1) and at +-1, with simple
        # roots inside and outside, all dyadic so the coefficients are exact
        rng = np.random.default_rng(100 + seed)
        inside = [_dyadic(x, 6) for x in rng.uniform(-0.95, 0.95, size=3)]
        roots = [inside[0]] * 2 + [inside[1]] * 3 + [inside[2]] + [_dyadic(rng.uniform(1.2, 3.0), 4)]
        roots += [1.0] * int(rng.integers(0, 4)) + [-1.0] * int(rng.integers(0, 4))
        coeffs = _exact_cheb_from_x_roots(roots)
        ends = (1.0 in roots) + (-1.0 in roots)
        want = 2 * len(set(inside) - {1.0, -1.0}) + ends
        assert _exact_cosine_zero_count(coeffs) == sympy_cosine_zero_count(coeffs) == want

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
        assert _exact_cosine_zero_count(scaled) == _exact_cosine_zero_count(coeffs)

    def test_no_sampled_scan(self, monkeypatch):
        # the count samples nothing: no np.cos on a grid of 2^17 points or
        # more, and no grid-sized buffer (a 262,144-point scan holds 2 MiB of
        # values alone, even with its grid's cosines cached)
        big = []
        original = np.cos

        def counted(x, *args, **kwargs):
            if np.size(x) >= 1 << 17:
                big.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counted)
        tracemalloc.start()
        try:
            verify_trig([0.7, -0.2, 0.45, -0.9, 0.3, 0.55])
            verify_trig([1, 4, 6, 4, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big == []
        assert peak < 1 << 21
