import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerowind import (
    DegreeZero,
    NoConvergence,
    NonIntegerWinding,
    Polynomial,
    ZeroOnCurve,
    classify_roots,
    find_roots,
    logderiv_integral,
    unit_circle,
    vanishing_order,
    winding_count,
)
import zerowind.polynomials as poly_mod

import math
import warnings
from pathlib import Path

from zerowind.harness import random_instance
from zerowind.verify import _as_real_coeffs, _unit_scaled, reverse_poly

from oracles import binomial_shift_coeffs, naive_poly_eval, scalar_find_roots, scalar_vanishing_order

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


class TestPolynomialType:
    def test_trailing_zeros_stripped(self):
        f = Polynomial([1, 2, 0, 0])
        assert f.degree == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([0, 0, 0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1, float("inf")])

    def test_eval_examples(self):
        assert Polynomial([1, 0, 1])(1j) == 0
        assert Polynomial([0, 0, 0, 1])(2.0) == 8

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_complex, min_size=1, max_size=11), finite_complex)
    def test_eval_matches_power_sums(self, coeffs, z):
        if all(c == 0 for c in coeffs):
            coeffs = coeffs + [1.0 + 0j]
        f = Polynomial(coeffs)
        want = naive_poly_eval(f.coeffs, z)
        scale = max(1.0, abs(want))
        assert abs(f(z) - want) / scale < 1e-12

    def test_vector_eval(self):
        f = Polynomial([1, 2, 3])
        zs = np.array([0.0, 1.0, 1j])
        assert np.allclose(f(zs), [1, 6, 1 + 2j - 3])

    def test_json_round_trip(self):
        for f in (Polynomial([1, 2.5, -3]), Polynomial([1j, 2, 1 - 1j])):
            assert Polynomial.from_json(f.to_json()) == f


class TestDerivative:
    def test_examples(self):
        assert Polynomial([0, 0, 1]).derivative() == Polynomial([0, 2])
        assert Polynomial([3, 2, 0, 1]).derivative() == Polynomial([2, 0, 3])

    def test_constant_raises(self):
        with pytest.raises(DegreeZero):
            Polynomial([5]).derivative()

    def test_overflowing_coefficient_is_no_convergence(self):
        # 2 * 1e308 overflows: the derivative is not representable, which is not a fault of the finite input
        with pytest.raises(NoConvergence, match=r"^coefficient of z\^1 in derivative 1 overflows: 2 \* \(1e\+308\+0j\)$"):
            Polynomial([1, 0, 1e308]).derivative()

    def test_binomial_power_chain(self):
        # (z+1)^5 -> 5(z+1)^4, compared through expanded coefficients
        f = Polynomial(binomial_shift_coeffs(1.0, 5))
        want = Polynomial([5 * c for c in binomial_shift_coeffs(1.0, 4)])
        got = f.derivative()
        assert got.degree == want.degree
        assert np.allclose(got.coeffs, want.coeffs)


class TestFindRoots:
    def test_simple_pair(self):
        rs = find_roots(Polynomial([1, 0, 1]))
        locs = sorted(rs.locations(), key=lambda z: z.imag)
        assert locs[0] == pytest.approx(-1j, abs=1e-10)
        assert locs[1] == pytest.approx(1j, abs=1e-10)

    def test_triple_root_clusters(self):
        f = Polynomial.from_roots([(1.0, 3)])
        rs = find_roots(f)
        assert len(rs.roots) == 1
        assert rs.roots[0].multiplicity == 3
        assert rs.roots[0].location == pytest.approx(1.0, abs=1e-10)

    def test_expanded_sextic(self):
        f = Polynomial(binomial_shift_coeffs(1.0, 6))  # (z+1)^6
        rs = find_roots(f)
        assert [(r.multiplicity) for r in rs.roots] == [6]
        assert rs.roots[0].location == pytest.approx(-1.0, abs=1e-9)
        assert rs.residual < 1e-10

    def test_mixed_multiplicities(self):
        f = Polynomial.from_roots([(1.0, 3), (-5.0, 1)])
        rs = find_roots(f)
        by_mult = {r.multiplicity: r.location for r in rs.roots}
        assert by_mult[3] == pytest.approx(1.0, abs=1e-9)
        assert by_mult[1] == pytest.approx(-5.0, abs=1e-9)

    def test_total_multiplicity_is_degree(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            deg = int(rng.integers(1, 9))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            coeffs[-1] += 3.0  # keep the leading coefficient away from zero
            rs = find_roots(Polynomial(tuple(coeffs)))
            assert rs.total_multiplicity == deg

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
    def test_real_coefficients_conjugate_closed(self, coeffs):
        if abs(coeffs[-1]) < 1e-2:
            coeffs[-1] = 1.0
        rs = find_roots(Polynomial(coeffs))
        locs = list(rs.locations())
        for z in locs:
            if abs(z.imag) > 1e-7:
                assert any(abs(w - z.conjugate()) < 1e-6 for w in locs)

    @pytest.mark.xfail(
        raises=NoConvergence,
        strict=True,
        reason=(
            "ROADMAP item 1: no fixed cluster radius separates the triple root at 0 from the simple roots "
            "+-0.0078i; a certified cluster test would"
        ),
    )
    def test_triple_root_beside_a_close_simple_pair(self):
        # z^3 (z^2 + 2^-14), found by test_real_coefficients_conjugate_closed
        rs = find_roots(Polynomial([0.0, 0.0, 0.0, 6.103515625e-05, 0.0, 1.0]))
        assert sorted(r.multiplicity for r in rs.roots) == [1, 1, 3]

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(Polynomial([2.0]))

    def test_eigen_garbage_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(len(a), np.nan + 0j))
        with pytest.raises(NoConvergence):
            find_roots(Polynomial([1, 0, 1]))

    def test_vanishing_order_probe(self):
        f = Polynomial.from_roots([(2.0, 4), (0.0, 1)])
        assert vanishing_order(f, 2.0) == 4
        assert vanishing_order(f, 0.0) == 1
        assert vanishing_order(f, 1.0) == 0

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([1, 0, 1e308], r"coefficient of z\^1 in derivative 1 overflows: 2 \* \(1e\+308\+0j\)"),
            ([0, 0, 0, 0, 1e307], r"coefficient of z\^1 in derivative 3 overflows: 2 \* \(1\.2e\+308\+0j\)"),
            ([1, 1e308, 1e308j, 5, 1e307], r"coefficient of z\^1 in derivative 1 overflows: 2 \* 1e\+308j"),
            ([0, 0, 1e308, 1e308], r"coefficient of z\^1 in derivative 1 overflows: 2 \* \(1e\+308\+0j\)"),
        ],
    )
    def test_overflowing_derivative_is_no_convergence(self, coeffs, message):
        # the derivative chain names the first derivative's lowest overflowing coefficient, as Polynomial.derivative
        # does for f' (so winding_count and count-zeros blame the same one); it was a ValueError that blamed the input
        f = Polynomial(coeffs)
        finds = [find_roots, lambda g: classify_roots(g, unit_circle())]
        if "derivative 1 " in message:
            finds += [Polynomial.derivative, lambda g: winding_count(g, unit_circle())]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # np.roots may overflow on the way
            for find in finds:
                with pytest.raises(NoConvergence, match=f"^{message}$"):
                    find(f)

    @pytest.mark.parametrize("z", [complex(np.inf, 0.0), complex(np.nan, 0.0), complex(1.0, -np.inf), np.inf])
    def test_vanishing_order_refuses_a_non_finite_point(self, z):
        # it warned and then raised NoConvergence: no Taylor magnitude above tolerance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite point"):
                vanishing_order(Polynomial([1, 1]), z)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


def _outcome(find, f):
    """(location bits, multiplicity, residual bits) per root and the worst residual's bits, or the exception raised."""
    try:
        roots, worst = find(f)
    except Exception as exc:  # the oracle's exceptions are compared by type and message
        return type(exc), str(exc)
    return [(_bits(z), m, _bits(res)) for z, m, res in roots], _bits(worst)


def _oracle_outcome(f):
    """The one-point form's outcome, with an OverflowError as ``find_roots`` reports it: NoConvergence."""
    got = _outcome(scalar_find_roots, f)
    return (NoConvergence, f"root test overflowed: {got[1]}") if got[0] is OverflowError else got


def _library_find(f):
    rs = find_roots(f)
    return [(r.location, r.multiplicity, res) for r, res in zip(rs.roots, rs.residuals)], rs.residual


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _random_polynomials(draw):
    n = draw(st.integers(1, 12))
    re = draw(st.lists(_unit, min_size=n + 1, max_size=n + 1))
    im = draw(st.one_of(st.just([0.0] * (n + 1)), st.lists(_unit, min_size=n + 1, max_size=n + 1)))
    coeffs = [complex(a, b) for a, b in zip(re, im)]
    if coeffs[-1] == 0:
        coeffs[-1] = 1.0
    return Polynomial(coeffs)


@st.composite
def _planted_polynomials(draw):
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        radius = draw(st.one_of(st.just(1.0), st.floats(0.2, 1.8)))
        z = radius * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        roots.append((complex(z), draw(st.integers(1, 3))))
    return Polynomial.from_roots(roots, leading=draw(st.floats(0.5, 2.0)))


class TestFindRootsOracle:
    """The array kernel of ``find_roots`` against the one-point form it replaced, bit for bit.

    Same root locations, multiplicities and residuals, to the last bit, or
    the same exception with the same message.
    """

    @settings(max_examples=150, deadline=None)
    @given(_random_polynomials())
    def test_random_polynomials(self, f):
        assert _outcome(_library_find, f) == _oracle_outcome(f)

    @settings(max_examples=150, deadline=None)
    @given(_planted_polynomials())
    def test_planted_multiplicities(self, f):
        assert _outcome(_library_find, f) == _oracle_outcome(f)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_binomial_powers(self, n):
        f = Polynomial([float(math.comb(n, j)) for j in range(n + 1)])
        got = _outcome(_library_find, f)
        assert got == _oracle_outcome(f)
        if n >= 32:
            # (1+z)^n has no accepted clustering from 32 on: ROADMAP item 1
            assert got[0] is NoConvergence

    @pytest.mark.parametrize("coeffs", [[0.0, 1.5e308 + 1.5e308j], [1.0, 1.5e308 + 1.5e308j]])
    def test_overflowing_modulus(self, coeffs):
        # finite parts whose modulus overflows: Python's complex abs raises OverflowError in the one-point
        # form, and the kernel reports it as a typed NoConvergence
        f = Polynomial(coeffs)
        assert _outcome(scalar_find_roots, f) == (OverflowError, "absolute value too large")
        assert _outcome(_library_find, f) == _oracle_outcome(f) == (
            NoConvergence,
            "root test overflowed: absolute value too large",
        )
        with pytest.raises(NoConvergence) as exc:
            find_roots(f)
        assert isinstance(exc.value.__cause__, OverflowError)

    @settings(max_examples=60, deadline=None)
    @given(_random_polynomials(), finite_complex)
    def test_vanishing_order(self, f, z):
        assert vanishing_order(f, z) == scalar_vanishing_order(f, z)

    def test_builds_one_derivative_chain(self, monkeypatch):
        f = Polynomial.from_roots([(0.5j, 2), (1.0, 1), (-1.5, 3)])
        chains, derivatives = [], []
        build, derivative = poly_mod._derivative_chain, Polynomial.derivative

        def counted_chain(g):
            chains.append(build(g))
            return chains[-1]

        def counted_derivative(self):
            derivatives.append(self)
            return derivative(self)

        monkeypatch.setattr(poly_mod, "_derivative_chain", counted_chain)
        monkeypatch.setattr(Polynomial, "derivative", counted_derivative)
        assert find_roots(f).total_multiplicity == 6
        # one chain of f and its 6 derivatives, built without a Polynomial per derivative
        assert len(chains) == 1 and chains[0].shape == (7, 7)
        assert derivatives == []


def _pool_polynomials(monkeypatch) -> list[Polynomial]:
    """The polynomials whose roots the benchmark's seed-1 pools ask for, in pool order.

    Each cosine sum's scaled polynomial and its reversal (``cosine-sums``),
    each planted trial's (``planted-trig``) and each planted instance's
    (``detour``): 1,200 polynomials of degree 1 to 8.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    polys = []
    cosine = WORKLOADS["cosine-sums"]
    for a in cosine.inputs(1, cosine.pool_size):
        f = Polynomial(_unit_scaled(_as_real_coeffs(a)))
        polys += [f, reverse_poly(f)]
    planted = WORKLOADS["planted-trig"]
    for cfg in planted.inputs(1, planted.pool_size):
        # run_harness's one trial draws its instance first
        polys.append(random_instance(np.random.default_rng(cfg.seed), cfg).polynomial)
    detour = WORKLOADS["detour"]
    polys += [inst.polynomial for inst in detour.inputs(1, detour.pool_size)]
    return polys


class TestFindRootsPools:
    """``find_roots`` against the one-point form, bit for bit, on the polynomials the benchmark roots (about 2 s).

    The pools hold mostly simple roots, so the polish reads only f and f';
    planted roots of multiplicity 4 and 5 make it read the chain's rows up
    to f^(5), and the Taylor test every row.
    """

    def test_seed_1_pools(self, monkeypatch):
        polys = _pool_polynomials(monkeypatch)
        assert len(polys) == 1200
        for f in polys:
            assert _outcome(_library_find, f) == _oracle_outcome(f), f.coeffs

    @pytest.mark.parametrize(
        "roots",
        [
            [(0.3, 5), (-0.5j, 4)],
            [(1.0, 4), (0.2 + 0.1j, 1)],
            [(0.9j, 5), (-1.1, 1), (0.4, 2)],
            [(np.exp(0.7j), 4), (0.5 * np.exp(2.1j), 3), (1.7, 1)],
            [(-0.25 + 0.5j, 5), (0.8, 5)],
        ],
    )
    def test_high_multiplicities(self, roots):
        f = Polynomial.from_roots(roots)
        got = _outcome(_library_find, f)
        assert got == _oracle_outcome(f)
        assert sorted(m for _, m, _ in got[0]) == sorted(m for _, m in roots)


class TestClassifyRoots:
    def test_zero_and_boundary(self, circle_curve):
        report = classify_roots(Polynomial.from_roots([0.0, 1.0]), circle_curve)
        assert (report.m, report.lam) == (1, 1)

    def test_all_outside(self, circle_curve):
        report = classify_roots(Polynomial.from_roots([(2.0, 2)]), circle_curve)
        assert (report.m, report.lam) == (0, 0)
        assert report.outside.total_multiplicity == 2

    def test_planted_multiplicities(self, circle_curve):
        f = Polynomial.from_roots([(0.5 * np.exp(0.7j), 2), (np.exp(1.1j), 3), (3.0, 1)])
        report = classify_roots(f, circle_curve)
        assert (report.m, report.lam) == (2, 3)
        assert report.on_curve_params[0] == pytest.approx(1.1 / (2 * np.pi), abs=1e-9)

    def test_multiplicity_sum_invariant(self, circle_curve):
        rng = np.random.default_rng(7)
        for _ in range(30):
            deg = int(rng.integers(1, 7))
            roots = [rng.uniform(0.2, 2.2) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(deg)]
            f = Polynomial.from_roots(roots)
            rep = classify_roots(f, circle_curve)
            total = rep.m + rep.lam + rep.outside.total_multiplicity
            assert total == deg


class TestWinding:
    def test_identity(self, circle_curve):
        assert winding_count(Polynomial([0, 1]), circle_curve) == 1

    def test_fifth_power(self, circle_curve):
        assert winding_count(Polynomial([0, 0, 0, 0, 0, 1]), circle_curve) == 5

    def test_one_inside_one_outside(self, circle_curve):
        f = Polynomial.from_roots([0.5, 3.0])
        assert winding_count(f, circle_curve) == 1

    def test_zero_on_curve_raises(self, circle_curve):
        with pytest.raises(ZeroOnCurve):
            winding_count(Polynomial([-1, 1]), circle_curve)

    def test_matches_planted_interior_count(self, circle_curve):
        rng = np.random.default_rng(5)
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            roots = []
            for _ in range(deg):
                r = rng.uniform(0.15, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 2.5)
                roots.append(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            f = Polynomial.from_roots(roots)
            inside = sum(1 for z in roots if abs(z) < 1)
            assert winding_count(f, circle_curve) == inside

    def test_overflowing_derivative_is_no_convergence(self, circle_curve):
        # the lift-off threshold differentiates f: 2 * 1e308 overflows
        with pytest.raises(NoConvergence, match="derivative 1 overflows"):
            winding_count(Polynomial([1, 0, 1e308]), circle_curve)

    def test_non_integer_guard(self, monkeypatch, circle_curve):
        monkeypatch.setattr(
            poly_mod, "adaptive_winding", lambda fn, **kw: (0.37, np.zeros(4), np.ones(4, dtype=complex))
        )
        with pytest.raises(NonIntegerWinding):
            winding_count(Polynomial([3, 1]), circle_curve)


class TestLogDerivIntegral:
    def test_single_zero(self, circle_curve):
        val = logderiv_integral(Polynomial([0, 1]), circle_curve, 1024)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_three_zeros_inside(self, circle_curve):
        f = Polynomial.from_roots([0.0, 1 / np.sqrt(8), -1 / np.sqrt(8)])
        val = logderiv_integral(f, circle_curve, 4096)
        assert val == pytest.approx(3.0, abs=1e-6)

    def test_no_zero_inside(self, circle_curve):
        val = logderiv_integral(Polynomial([-2, 1]), circle_curve, 1024)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_zero_on_curve_raises(self, circle_curve):
        with pytest.raises(ZeroOnCurve):
            logderiv_integral(Polynomial([-1, 1]), circle_curve, 1024)

    def test_agrees_with_winding(self, circle_curve):
        rng = np.random.default_rng(9)
        for _ in range(25):
            deg = int(rng.integers(1, 7))
            roots = []
            for _ in range(deg):
                r = rng.uniform(0.15, 0.8) if rng.random() < 0.5 else rng.uniform(1.3, 2.5)
                roots.append(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            f = Polynomial.from_roots(roots)
            w = winding_count(f, circle_curve)
            assert abs(logderiv_integral(f, circle_curve, 4096) - w) < 0.01
