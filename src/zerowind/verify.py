"""End-to-end bound verification.

For a polynomial f, a positively oriented Jordan curve, and a line L through
the origin, the number of distinct curve points mapped into L is at least
2m + lam, where m and lam count the zeros of f inside and on the curve with
multiplicity.  On piecewise-smooth curves each on-curve zero contributes
ceil(lam_j * alpha_j / pi) instead, with alpha_j the interior angle at the
zero (pi at smooth points, so the smooth bound is recovered).  This module
measures both sides and reports whether the bound holds, verifies the detour
construction that moves boundary zeros inside, and applies the machinery to
zero counts of cosine sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .crossings import Line, count_preimages
from .curves import DetourCurve, JordanCurve, _detour_at, interior_angle, unit_circle
from .errors import BoundaryCoefficientZero, SelfCheckFailed
from .polynomials import Polynomial, ZeroReport, classify_roots, winding_count

# ceil() guard against ratios like 0.5 or 1.0 computed a few ulps high
_CEIL_GUARD = 1e-9


def guarded_ceil(x: float) -> int:
    return int(math.ceil(x - _CEIL_GUARD))


@dataclass(frozen=True)
class CornerTerm:
    """One on-curve zero's contribution to the piecewise bound."""

    multiplicity: int
    interior_angle: float
    ceil_term: int


@dataclass(frozen=True)
class BoundReport:
    """Measured distinct line preimages against the lower bound they must satisfy."""

    measured: int
    bound: int
    m: int
    lam: int
    per_corner: tuple[CornerTerm, ...]
    holds: bool
    instance: dict

    def to_json(self) -> dict:
        return {
            "measured": self.measured,
            "bound": self.bound,
            "m": self.m,
            "lambda": self.lam,
            "per_corner": [
                {"multiplicity": c.multiplicity, "interior_angle": c.interior_angle, "ceil_term": c.ceil_term}
                for c in self.per_corner
            ],
            "holds": self.holds,
            "instance": self.instance,
        }


def _instance_descriptor(f: Polynomial, curve: JordanCurve, line: Line) -> dict:
    return {"polynomial": f.to_json(), "curve": curve.to_json(), "line": line.to_json()}


def verify_main(f: Polynomial, curve: JordanCurve, line: Line, *, band: float | None = None) -> BoundReport:
    """Check measured >= 2m + lam on a smooth curve, where every interior angle is pi."""
    if curve.corners:
        raise ValueError("curve has corners; use verify_piecewise")
    return verify_piecewise(f, curve, line, band=band)


def verify_piecewise(f: Polynomial, curve: JordanCurve, line: Line, *, band: float | None = None) -> BoundReport:
    """Check measured >= 2m + sum ceil(lam_j * alpha_j / pi) on a piecewise-smooth curve.

    A zero within ``band`` of the curve (None for the curve's default band) is on it.
    """
    report = classify_roots(f, curve, band)
    per_corner = []
    for root, t in zip(report.on_curve.roots, report.on_curve_params):
        alpha = interior_angle(curve, t)
        per_corner.append(CornerTerm(root.multiplicity, alpha, guarded_ceil(root.multiplicity * alpha / np.pi)))
    bound = 2 * report.m + sum(c.ceil_term for c in per_corner)
    measured = count_preimages(f, curve, line, zeros=report).count
    return BoundReport(
        measured=measured,
        bound=bound,
        m=report.m,
        lam=report.lam,
        per_corner=tuple(per_corner),
        holds=measured >= bound,
        instance=_instance_descriptor(f, curve, line),
    )


@dataclass(frozen=True)
class DetourReport:
    """Outcome of rerouting the curve around its on-curve zeros.

    With every boundary zero moved inside, the winding count along the
    composite must equal m + lam and the composite must carry at least
    2*(m + lam) distinct line preimages.
    """

    epsilon: float
    m: int
    lam: int
    winding: int
    preimage_count: int
    arc_spans: tuple[float, ...]
    holds: bool
    instance: dict

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "m": self.m,
            "lambda": self.lam,
            "winding": self.winding,
            "preimage_count": self.preimage_count,
            "arc_spans": list(self.arc_spans),
            "holds": self.holds,
            "instance": self.instance,
        }


def verify_detour(
    f: Polynomial,
    curve: JordanCurve,
    line: Line,
    eps_schedule=None,
    *,
    band: float | None = None,
) -> tuple[DetourReport, DetourCurve]:
    """Build the detour around f's on-curve zeros and verify counts along it.

    ``band`` (None for each curve's default band) places f's zeros on the
    curve and also sets the detour construction's and the composite's
    winding count's band.
    """
    report = classify_roots(f, curve, band)
    if report.lam < 1:
        raise ValueError("f has no zeros on the curve; the detour adds nothing")
    # the report already holds the zeros' curve parameters, so they are not located again
    zs = report.on_curve.locations()
    detour = _detour_at(curve, zs, report.on_curve_params, eps_schedule, curve.checked_band(band))
    w = winding_count(f, detour.composite, band=band)
    preimages = count_preimages(f, detour.composite, line, zeros=ZeroReport.empty())
    target = report.m + report.lam
    holds = (w == target) and (preimages.count >= 2 * target)
    rep = DetourReport(
        epsilon=detour.excised[0][1] if detour.excised else 0.0,
        m=report.m,
        lam=report.lam,
        winding=w,
        preimage_count=preimages.count,
        arc_spans=detour.arc_spans,
        holds=holds,
        instance=_instance_descriptor(f, curve, line),
    )
    return rep, detour


# ---------------------------------------------------------------------------
# coefficient reversal and cosine sums


def reverse_poly(f: Polynomial) -> Polynomial:
    """g(z) = z^n f(1/z): the coefficient sequence reversed; roots become reciprocals."""
    if f.coeffs[0] == 0:
        raise BoundaryCoefficientZero("constant coefficient is zero")
    if f.degree == 0:
        raise BoundaryCoefficientZero("reversal needs degree >= 1")
    return Polynomial(f.coeffs[::-1])


def _as_real_coeffs(a) -> tuple[float, ...]:
    coeffs = []
    for i, c in enumerate(a):
        z = complex(c)
        if z.imag != 0.0:
            raise ValueError(f"coefficient {i} is not real: {c!r}")
        coeffs.append(z.real)
    if len(coeffs) < 2:
        raise ValueError("need at least two coefficients")
    if coeffs[0] == 0.0 or coeffs[-1] == 0.0:
        raise BoundaryCoefficientZero("first and last coefficients must be nonzero")
    return tuple(coeffs)


def _unit_scaled(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """The coefficients times the power of two that brings max |a_j| into [0.5, 1), where that is exact.

    The scaling changes no zero and keeps the polynomials, their derivatives
    and their reversals clear of overflow and underflow.  A vector that it
    would round, because a coefficient falls into the subnormal range and
    loses bits, is returned as given: every count is taken on the floats as
    given.
    """
    e = math.frexp(max(abs(c) for c in coeffs))[1]
    scaled = tuple(math.ldexp(c, -e) for c in coeffs)
    if scaled[0] == 0.0 or scaled[-1] == 0.0:
        raise BoundaryCoefficientZero("first or last coefficient underflows against the largest one")
    if any(math.ldexp(s, e) != c for s, c in zip(scaled, coeffs)):
        return coeffs
    return scaled


# A coefficient with at most _EXACT_BITS significant bits is taken as exact
# (integers, short dyadics); any other as rounded to the nearest float, off by
# at most 2^-53 of itself.  The exact count resolves the cosine sum to 2^-44
# of the rounded coefficients' sum of magnitudes, 2^9 times the rounding bound.
_EXACT_BITS = 40
_CLUSTER_LEVEL_BITS = 44


def _deflate(p: list[int], r: int) -> list[int] | None:
    """p / (x - r) by synthetic division, coefficients highest degree first; None when r is not a root."""
    acc, quotient = 0, []
    for a in p:
        acc = a + r * acc
        quotient.append(acc)
    return quotient[:-1] if acc == 0 else None


def _primitive(p: list[int]) -> list[int]:
    """p without leading zeros, divided by the gcd of its coefficients (a positive factor)."""
    while p and p[0] == 0:
        p = p[1:]
    g = math.gcd(*p)
    return [a // g for a in p] if g > 1 else p


@functools.cache
def _chebyshev_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The monomial coefficients of T_0..T_n, lowest degree first, from T_{j+1} = 2x T_j - T_{j-1}."""
    rows, prev, cur = [], (0, 1), (1,)  # T_{-1} = T_1 = x, T_0 = 1
    for _ in range(n + 1):
        rows.append(cur)
        nxt = [0] + [2 * t for t in cur]
        for i, t in enumerate(prev):
            nxt[i] -= t
        prev, cur = cur, tuple(nxt)
    return tuple(rows)


def _sturm_count(p: list[int], dp: list[int]) -> tuple[int, bool]:
    """Distinct roots of p in (-1, 1), for p(1), p(-1) != 0, and whether p is square-free.

    dp is the primitive part of p'.  The Sturm sequence of p and p', each
    remainder's primitive part in place of the remainder: its sign changes at
    -1 and at 1 differ by the count, and it ends in a constant exactly when p
    has no multiple root.  Each remainder comes from the pseudo-remainder
    lc(b)^k a mod b, k = deg a - deg b + 1; dividing out lc(b)^k and the
    content multiplies it by a positive factor once the sign of lc(b)^k is
    undone, so the sign changes are those of the Sturm sequence.
    """
    seq, a, b = [p], p, dp
    while b:
        seq.append(b)
        if len(b) == 1:
            break
        lead, k = b[0], len(a) - len(b) + 1
        if k == 2:  # -lead^2 a mod b in one pass, the usual step
            q, la0, l2 = lead * a[1] - a[0] * b[1], lead * a[0], lead * lead
            rem = [q * u - l2 * v + la0 * w for u, v, w in zip(b[1:], a[2:], b[2:] + [0])]
        else:
            r = list(a)
            for i in range(k):
                q = r[i]
                r[i + 1 :] = [lead * c for c in r[i + 1 :]]
                r[i + 1 : i + len(b)] = [c - q * d for c, d in zip(r[i + 1 : i + len(b)], b[1:])]
            rem = r[k:]
            if lead > 0 or k % 2 == 0:
                rem = [-c for c in rem]
        a, b = b, _primitive(rem)
    # signs at 1 from the sum of the coefficients, at -1 from the alternating sum
    at_one = [v > 0 for v in map(sum, seq) if v]
    at_minus_one = [(v > 0) == (len(q) % 2 == 1) for q in seq if (v := sum(q[::2]) - sum(q[1::2]))]
    below, above = (sum(s != t for s, t in zip(signs, signs[1:])) for signs in (at_minus_one, at_one))
    return below - above, len(seq[-1]) == 1


def _derivative(p: list[int]) -> list[int]:
    """The primitive part of p'; p * 2^b and p + c share it, so it serves every level of one sum."""
    return _primitive([c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])])


def _exact_cosine_zero_count(coeffs) -> int:
    """Zeros of P(t) = sum_j c_j cos(j t) on [0, 2*pi), counted exactly in integer arithmetic.

    Independent of the curve/preimage machinery.  With x = cos t the sum is
    the polynomial p(x) = sum_j c_j T_j(x); each root of p in (-1, 1) is cos t
    at two t, the root 1 at t = 0 and the root -1 at t = pi.  Floats are
    dyadic rationals, so a common power of two turns the coefficients into
    ints, and everything after is exact, starting with the monomial
    coefficients of p from T_{j+1} = 2x T_j - T_{j-1}.

    When every coefficient is exact (at most 40 significant bits), the count
    is of the distinct zeros: p is divided by x - 1 and x + 1 while they
    divide it, and a Sturm sequence counts the distinct roots left in
    (-1, 1).  Otherwise P is known only to within its rounding, and the
    count is resolved to eta = 2^-44 sum |c_j| over the rounded c_j: it is
    the number of arcs of t on which |P| <= eta, one per zero of any order,
    and one per cluster of zeros and touches that the rounding could have
    split, merged or lifted off (a decimal root at z = 1 is one).  Each arc
    ends where P crosses eta or -eta, so the count is the number of roots of
    p - eta and p + eta in (-1, 1); where eta is a critical value of p, or
    |p(1)| or |p(-1)|, a crossing is not clean and eta is halved until none
    is.
    """
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)
    p = [0] * len(ratios)  # lowest degree first, until reversed below
    eta = 0  # sum |c_j| over the rounded c_j, times den as p is
    for (num, d), row in zip(ratios, _chebyshev_rows(len(ratios) - 1)):
        a = num * (den // d)
        m = abs(num)
        if m.bit_length() - (m & -m).bit_length() + 1 > _EXACT_BITS:  # significant bits
            eta += abs(a)
        for i, t in enumerate(row):
            p[i] += a * t
    p = p[::-1]
    while p and p[0] == 0:
        p = p[1:]
    if not p:
        raise ValueError("cosine sum vanishes identically")

    if not eta:
        ends = 0
        for r in (1, -1):
            q = _deflate(p, r)
            ends += q is not None
            while q is not None:
                p, q = q, _deflate(q, r)
        return 2 * _sturm_count(p, _derivative(p))[0] + ends
    dp = _derivative(p)
    at_one, at_minus_one = sum(p), (sum(p[::2]) - sum(p[1::2])) * (-1) ** (len(p) - 1)
    for bits in range(_CLUSTER_LEVEL_BITS, _CLUSTER_LEVEL_BITS + 64):
        scaled = [c << bits for c in p]
        count = 0
        for level in (eta, -eta):
            if at_one << bits == level or at_minus_one << bits == level:  # p << bits - level vanishes at 1 or -1
                break
            roots, square_free = _sturm_count(scaled[:-1] + [scaled[-1] - level], dp)
            if not square_free:  # p touches the level
                break
            count += roots
        else:
            return count
    raise ValueError("no clean resolution for the cosine sum")


def _checked_trig_count(
    f: Polynomial, circle_curve: JordanCurve, band: float | None, zeros: ZeroReport | None = None
) -> int:
    """Imaginary-axis preimages of the real polynomial f, cross-checked by the exact count of its coefficients."""
    count = count_preimages(f, circle_curve, Line.imag_axis(), band=band, zeros=zeros).count
    exact = _exact_cosine_zero_count([c.real for c in f.coeffs])
    if exact != count:
        raise SelfCheckFailed(f"preimage count {count} disagrees with exact cosine-sum count {exact}")
    return count


def trig_zero_count(a, which: str = "P", *, band: float | None = None) -> int:
    """Distinct zeros on [0, 2*pi) of the cosine sum built from coefficients a.

    ``which`` selects the coefficient order: "P" uses a as given, "Q" reversed.
    The count comes from line-preimage counting of the matching polynomial
    against the imaginary axis on the unit circle (the cosine sum is the real
    part of the polynomial there), then is cross-checked against an exact
    count of the sum's zeros in integer arithmetic, which merges zeros closer
    than the rounding of the coefficients resolves, as the preimage count
    does.  Where it is exact, the coefficients are first scaled by a power of
    two, which leaves the count unchanged.  ``band`` (None for the circle's
    default band) places the polynomial's zeros on the circle.
    """
    coeffs = _unit_scaled(_as_real_coeffs(a))
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    return _checked_trig_count(Polynomial(coeffs if which == "P" else coeffs[::-1]), unit_circle(), band)


@dataclass(frozen=True)
class TrigReport:
    """Zero counts of the paired cosine sums against their combined lower bound 2n."""

    coeffs: tuple[float, ...]
    z_p: int
    z_q: int
    m_f: int
    m_g: int
    lam: int
    identity_holds: bool  # m_f + m_g + lam == n
    bound_holds: bool  # z_p + z_q >= 2n

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "Z_P": self.z_p,
            "Z_Q": self.z_q,
            "m_f": self.m_f,
            "m_g": self.m_g,
            "lambda": self.lam,
            "identity_holds": self.identity_holds,
            "bound_holds": self.bound_holds,
        }


def verify_trig(a, *, band: float | None = None) -> TrigReport:
    """Count zeros of both cosine sums and check the degree identity and the 2n bound.

    Also verifies that the on-circle zeros of the polynomial reappear
    conjugated, with equal multiplicities, among the zeros of its reversal.
    Everything is computed on the coefficients scaled by the power of two
    that brings max |a_j| into [0.5, 1) where that scaling is exact, so it
    changes no zero; the report echoes them as given.  ``band`` (None for
    the circle's default band) places zeros on the circle for every count.
    """
    given = _as_real_coeffs(a)
    coeffs = _unit_scaled(given)
    n = len(coeffs) - 1
    f = Polynomial(coeffs)
    g = reverse_poly(f)
    circle_curve = unit_circle()
    zf = classify_roots(f, circle_curve, band)
    zg = classify_roots(g, circle_curve, band)

    remaining = list(zg.on_curve.roots)
    for root in zf.on_curve.roots:
        target = root.location.conjugate()
        match = next(
            (r for r in remaining if abs(r.location - target) < 1e-6 and r.multiplicity == root.multiplicity),
            None,
        )
        if match is None:
            raise SelfCheckFailed(f"no conjugate partner among reversed-polynomial zeros for {root.location}")
        remaining.remove(match)
    if remaining:
        raise SelfCheckFailed("reversed polynomial has unmatched on-circle zeros")

    z_p = _checked_trig_count(f, circle_curve, band, zf)
    z_q = _checked_trig_count(g, circle_curve, band, zg)
    return TrigReport(
        coeffs=given,
        z_p=z_p,
        z_q=z_q,
        m_f=zf.m,
        m_g=zg.m,
        lam=zf.lam,
        identity_holds=(zf.m + zg.m + zf.lam == n),
        bound_holds=(z_p + z_q >= 2 * n),
    )
